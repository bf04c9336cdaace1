#include <gtest/gtest.h>

#include "stcomp/algo/opening_window.h"
#include "stcomp/algo/registry.h"
#include "stcomp/algo/spatiotemporal.h"
#include "stcomp/algo/time_ratio.h"
#include "stcomp/stream/batch_adapter.h"
#include "stcomp/stream/dead_reckoning_stream.h"
#include "stcomp/stream/online_compressor.h"
#include "stcomp/stream/opening_window_stream.h"
#include "test_util.h"

namespace stcomp {
namespace {

using algo::BreakPolicy;
using testutil::Line;
using testutil::RandomWalk;
using testutil::Traj;

struct StreamCase {
  uint64_t seed;
  double epsilon;
};

class StreamBatchEquivalence : public ::testing::TestWithParam<StreamCase> {};

TEST_P(StreamBatchEquivalence, NopwStreamMatchesBatch) {
  const Trajectory trajectory = RandomWalk(150, GetParam().seed);
  OpeningWindowStream stream(GetParam().epsilon, BreakPolicy::kNormal,
                             StreamCriterion::kPerpendicular);
  const Trajectory streamed = CompressStream(trajectory, &stream).value();
  const Trajectory batch =
      trajectory.Subset(algo::Kept(algo::Nopw, trajectory, GetParam().epsilon));
  EXPECT_EQ(streamed.points(), batch.points());
}

TEST_P(StreamBatchEquivalence, BopwStreamMatchesBatch) {
  const Trajectory trajectory = RandomWalk(150, GetParam().seed);
  OpeningWindowStream stream(GetParam().epsilon, BreakPolicy::kBefore,
                             StreamCriterion::kPerpendicular);
  const Trajectory streamed = CompressStream(trajectory, &stream).value();
  const Trajectory batch =
      trajectory.Subset(algo::Kept(algo::Bopw, trajectory, GetParam().epsilon));
  EXPECT_EQ(streamed.points(), batch.points());
}

TEST_P(StreamBatchEquivalence, OpwTrStreamMatchesBatch) {
  const Trajectory trajectory = RandomWalk(150, GetParam().seed);
  OpeningWindowStream stream(GetParam().epsilon, BreakPolicy::kNormal,
                             StreamCriterion::kSynchronized);
  const Trajectory streamed = CompressStream(trajectory, &stream).value();
  const Trajectory batch = trajectory.Subset(
      algo::Kept(algo::OpwTr, trajectory, GetParam().epsilon));
  EXPECT_EQ(streamed.points(), batch.points());
}

TEST_P(StreamBatchEquivalence, OpwSpStreamMatchesBatch) {
  const Trajectory trajectory = RandomWalk(150, GetParam().seed);
  for (double speed : {5.0, 15.0}) {
    OpeningWindowStream stream(GetParam().epsilon, BreakPolicy::kNormal,
                               StreamCriterion::kSpatiotemporal, speed);
    const Trajectory streamed = CompressStream(trajectory, &stream).value();
    const Trajectory batch = trajectory.Subset(
        algo::Kept(algo::OpwSp, trajectory, GetParam().epsilon, speed));
    EXPECT_EQ(streamed.points(), batch.points()) << "speed=" << speed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StreamBatchEquivalence,
    ::testing::Values(StreamCase{1, 10.0}, StreamCase{2, 30.0},
                      StreamCase{3, 60.0}, StreamCase{4, 100.0},
                      StreamCase{5, 5.0}, StreamCase{6, 45.0}));

TEST(OpeningWindowStreamTest, RejectsNonMonotoneTime) {
  OpeningWindowStream stream(10.0, BreakPolicy::kNormal,
                             StreamCriterion::kPerpendicular);
  std::vector<TimedPoint> out;
  EXPECT_TRUE(stream.Push({0.0, 0.0, 0.0}, &out).ok());
  EXPECT_FALSE(stream.Push({0.0, 1.0, 1.0}, &out).ok());
  EXPECT_FALSE(stream.Push({-1.0, 1.0, 1.0}, &out).ok());
}

TEST(OpeningWindowStreamTest, EmitsFirstPointImmediately) {
  OpeningWindowStream stream(10.0, BreakPolicy::kNormal,
                             StreamCriterion::kPerpendicular);
  std::vector<TimedPoint> out;
  ASSERT_TRUE(stream.Push({0.0, 1.0, 2.0}, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], TimedPoint(0.0, 1.0, 2.0));
}

TEST(OpeningWindowStreamTest, BufferGrowsOnlyUntilCut) {
  // On a straight line, the buffer grows without bound (that's the
  // documented opening-window behaviour); on a jagged walk it stays small.
  const Trajectory jagged = RandomWalk(300, 7, 200.0);
  OpeningWindowStream stream(20.0, BreakPolicy::kNormal,
                             StreamCriterion::kPerpendicular);
  std::vector<TimedPoint> out;
  size_t max_buffer = 0;
  for (const TimedPoint& point : jagged.points()) {
    ASSERT_TRUE(stream.Push(point, &out).ok());
    max_buffer = std::max(max_buffer, stream.buffered_points());
  }
  EXPECT_LT(max_buffer, 100u);
}

TEST(OpeningWindowStreamTest, FinishFlushesTail) {
  const Trajectory trajectory = Line(10, 1.0, 5.0, 0.0);
  OpeningWindowStream stream(10.0, BreakPolicy::kNormal,
                             StreamCriterion::kPerpendicular);
  std::vector<TimedPoint> out;
  for (const TimedPoint& point : trajectory.points()) {
    ASSERT_TRUE(stream.Push(point, &out).ok());
  }
  EXPECT_EQ(out.size(), 1u);  // Only the anchor so far.
  stream.Finish(&out);
  ASSERT_EQ(out.size(), 2u);  // Countermeasure: the last point is kept.
  EXPECT_DOUBLE_EQ(out.back().t, 9.0);
  EXPECT_EQ(stream.buffered_points(), 0u);
}

TEST(DeadReckoningTest, ConstantVelocityEmitsAlmostNothing) {
  const Trajectory trajectory = Line(100, 10.0, 12.0, 3.0);
  DeadReckoningStream stream(5.0);
  const Trajectory compressed = CompressStream(trajectory, &stream).value();
  // First point + calibration-free straight run + flushed last point.
  EXPECT_LE(compressed.size(), 3u);
  EXPECT_DOUBLE_EQ(compressed.front().t, trajectory.front().t);
  EXPECT_DOUBLE_EQ(compressed.back().t, trajectory.back().t);
}

TEST(DeadReckoningTest, TurnTriggersCommit) {
  // Straight east, then a right-angle turn north.
  std::vector<TimedPoint> points;
  for (int i = 0; i < 10; ++i) {
    points.emplace_back(i * 10.0, i * 100.0, 0.0);
  }
  for (int i = 0; i < 10; ++i) {
    points.emplace_back((10 + i) * 10.0, 900.0, (i + 1) * 100.0);
  }
  const Trajectory trajectory = Traj(std::move(points));
  DeadReckoningStream stream(20.0);
  const Trajectory compressed = CompressStream(trajectory, &stream).value();
  EXPECT_GT(compressed.size(), 2u);
  EXPECT_LT(compressed.size(), trajectory.size());
}

TEST(DeadReckoningTest, PredictionErrorBoundedBetweenCommits) {
  const Trajectory trajectory = RandomWalk(200, 9);
  const double epsilon = 50.0;
  DeadReckoningStream stream(epsilon);
  std::vector<TimedPoint> out;
  for (const TimedPoint& point : trajectory.points()) {
    ASSERT_TRUE(stream.Push(point, &out).ok());
  }
  stream.Finish(&out);
  // Every original point was either committed or its prediction error at
  // push time was <= epsilon; weak but meaningful: committed points are a
  // subset of the original points.
  for (const TimedPoint& point : out) {
    bool found = false;
    for (const TimedPoint& original : trajectory.points()) {
      found |= original == point;
    }
    EXPECT_TRUE(found);
  }
}

TEST(BatchAdapterTest, MatchesDirectBatchRun) {
  const Trajectory trajectory = RandomWalk(120, 15);
  const algo::AlgorithmInfo* info = algo::FindAlgorithm("td-tr").value();
  algo::AlgorithmParams params;
  params.epsilon_m = 40.0;
  BatchAdapter adapter(*info, params);
  const Trajectory streamed = CompressStream(trajectory, &adapter).value();
  const Trajectory direct =
      trajectory.Subset(algo::Kept(algo::TdTr, trajectory, 40.0));
  EXPECT_EQ(streamed.points(), direct.points());
  EXPECT_EQ(adapter.name(), "td-tr-batch");
}

TEST(BatchAdapterTest, BuffersEverythingUntilFinish) {
  const Trajectory trajectory = RandomWalk(50, 16);
  const algo::AlgorithmInfo* info = algo::FindAlgorithm("ndp").value();
  BatchAdapter adapter(*info, algo::AlgorithmParams{});
  std::vector<TimedPoint> out;
  for (const TimedPoint& point : trajectory.points()) {
    ASSERT_TRUE(adapter.Push(point, &out).ok());
  }
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(adapter.buffered_points(), trajectory.size());
  adapter.Finish(&out);
  EXPECT_GE(out.size(), 2u);
}

}  // namespace
}  // namespace stcomp
