#include <gtest/gtest.h>

#include "stcomp/algo/reumann_witkam.h"
#include "stcomp/algo/squish.h"
#include "stcomp/algo/time_ratio.h"
#include "stcomp/algo/visvalingam.h"
#include "stcomp/error/evaluation.h"
#include "test_util.h"

namespace stcomp::algo {
namespace {

using testutil::Line;
using testutil::LineWithStop;
using testutil::RandomWalk;
using testutil::Traj;

TEST(VisvalingamTest, CollinearCollapses) {
  const Trajectory trajectory = Line(40, 1.0, 3.0, 2.0);
  EXPECT_EQ(Kept(Visvalingam, trajectory, 0.1), (IndexList{0, 39}));
}

TEST(VisvalingamTest, KeepsLargeTriangles) {
  // One 100x50 corner: triangle area 2500 m^2.
  const Trajectory trajectory =
      Traj({{0, 0, 0}, {1, 100, 0}, {2, 100, 100}});
  EXPECT_EQ(Kept(Visvalingam, trajectory, 2000.0), (IndexList{0, 1, 2}));
  EXPECT_EQ(Kept(Visvalingam, trajectory, 6000.0), (IndexList{0, 2}));
}

TEST(VisvalingamTest, MonotoneInThreshold) {
  const Trajectory trajectory = RandomWalk(120, 3);
  size_t previous = trajectory.size() + 1;
  for (double area : {1.0, 100.0, 1e4, 1e6}) {
    const IndexList kept = Kept(Visvalingam, trajectory, area);
    EXPECT_TRUE(IsValidIndexList(trajectory, kept));
    EXPECT_LE(kept.size(), previous);
    previous = kept.size();
  }
}

TEST(VisvalingamMaxPointsTest, HonoursBudget) {
  const Trajectory trajectory = RandomWalk(90, 5);
  for (int budget : {2, 5, 25, 89}) {
    const IndexList kept = Kept(VisvalingamMaxPoints, trajectory, budget);
    EXPECT_EQ(kept.size(), static_cast<size_t>(budget));
    EXPECT_TRUE(IsValidIndexList(trajectory, kept));
  }
  EXPECT_EQ(Kept(VisvalingamMaxPoints, trajectory, 500),
            Kept(KeepAll, trajectory));
}

TEST(VisvalingamTrTest, ConstantVelocityCollapsesDwellSurvives) {
  // Constant velocity: 3-D collinear, zero area, collapses.
  const Trajectory steady = Line(30, 10.0, 12.0, 5.0);
  EXPECT_EQ(Kept(VisvalingamTr, steady, 1.0, 10.0).size(), 2u);
  // A dwell deviates temporally: survives the spatiotemporal variant but
  // not the spatial one.
  const Trajectory with_stop = LineWithStop(10, 8, 10);
  EXPECT_EQ(Kept(Visvalingam, with_stop, 1.0).size(), 2u);
  EXPECT_GT(Kept(VisvalingamTr, with_stop, 1.0, 10.0).size(), 2u);
}

TEST(VisvalingamTrTest, ZeroTimeWeightMatchesSpatial) {
  const Trajectory trajectory = RandomWalk(80, 7);
  EXPECT_EQ(Kept(VisvalingamTr, trajectory, 500.0, 0.0),
            Kept(Visvalingam, trajectory, 500.0));
}

TEST(ReumannWitkamTest, StraightLineCollapses) {
  const Trajectory trajectory = Line(25, 1.0, 4.0, 1.0);
  EXPECT_EQ(Kept(ReumannWitkam, trajectory, 2.0), (IndexList{0, 24}));
}

TEST(ReumannWitkamTest, LeavesTheStripAtCorners) {
  const Trajectory trajectory = Traj(
      {{0, 0, 0}, {1, 50, 0}, {2, 100, 0}, {3, 100, 50}, {4, 100, 100}});
  const IndexList kept = Kept(ReumannWitkam, trajectory, 5.0);
  EXPECT_TRUE(IsValidIndexList(trajectory, kept));
  // The corner region must be represented (point 2 or 3 kept).
  EXPECT_GT(kept.size(), 2u);
}

TEST(ReumannWitkamTest, ValidAcrossThresholds) {
  const Trajectory trajectory = RandomWalk(100, 9);
  for (double epsilon : {1.0, 20.0, 400.0}) {
    EXPECT_TRUE(
        IsValidIndexList(trajectory, Kept(ReumannWitkam, trajectory, epsilon)));
  }
}

TEST(SquishTest, BufferBoundRespected) {
  const Trajectory trajectory = RandomWalk(200, 11);
  for (size_t capacity : {4u, 10u, 50u}) {
    const IndexList kept = Kept(Squish, trajectory, capacity);
    EXPECT_TRUE(IsValidIndexList(trajectory, kept));
    EXPECT_LE(kept.size(), capacity);
  }
}

TEST(SquishTest, LargeBufferKeepsEverything) {
  const Trajectory trajectory = RandomWalk(50, 13);
  EXPECT_EQ(Kept(Squish, trajectory, 500), Kept(KeepAll, trajectory));
}

TEST(SquishTest, PrefersHighSedPoints) {
  // Straight constant-speed line plus one big detour: at capacity 3 the
  // detour point must be the survivor.
  std::vector<TimedPoint> points;
  for (int i = 0; i <= 10; ++i) {
    points.emplace_back(i * 10.0, i * 100.0, i == 5 ? 300.0 : 0.0);
  }
  const Trajectory trajectory = testutil::Traj(std::move(points));
  const IndexList kept = Kept(Squish, trajectory, 3);
  EXPECT_EQ(kept, (IndexList{0, 5, 10}));
}

TEST(SquishETest, ZeroBudgetRemovesOnlyZeroErrorPoints) {
  const Trajectory steady = Line(30, 10.0, 8.0, 0.0);
  EXPECT_EQ(Kept(SquishE, steady, 0.0), (IndexList{0, 29}));
  const Trajectory jagged = RandomWalk(50, 15);
  EXPECT_EQ(Kept(SquishE, jagged, 0.0), Kept(KeepAll, jagged));
}

TEST(SquishETest, ErrorEstimateBoundsTrueError) {
  // The priority propagation makes the estimate an upper bound in
  // practice; verify the realised max SED stays within mu on random walks.
  for (uint64_t seed : {1u, 2u, 3u}) {
    const Trajectory trajectory = RandomWalk(150, seed);
    for (double mu : {20.0, 60.0}) {
      const IndexList kept = Kept(SquishE, trajectory, mu);
      const Evaluation eval = Evaluate(trajectory, kept).value();
      EXPECT_LE(eval.sync_error_max_m, mu + 1e-9)
          << "seed=" << seed << " mu=" << mu;
    }
  }
}

TEST(SquishETest, CompressionGrowsWithBudget) {
  const Trajectory trajectory = RandomWalk(200, 17);
  size_t previous = trajectory.size() + 1;
  for (double mu : {5.0, 20.0, 80.0, 320.0}) {
    const size_t kept = Kept(SquishE, trajectory, mu).size();
    EXPECT_LE(kept, previous);
    previous = kept;
  }
}

TEST(SquishETest, ComparableToOpwTrAtSameBudgetWithHardErrorBound) {
  // At the same numeric budget SQUISH-E and OPW-TR keep similar point
  // counts (which one wins depends on the trace), but SQUISH-E's realised
  // max error is bounded by the budget, which OPW-TR only guarantees for
  // non-final segments.
  const Trajectory trajectory = RandomWalk(300, 19);
  for (double budget : {20.0, 40.0, 80.0}) {
    const IndexList squish = Kept(SquishE, trajectory, budget);
    const IndexList opw = Kept(OpwTr, trajectory, budget);
    // SQUISH-E gets more conservative (relatively) as the budget grows,
    // because its estimates accumulate; it still compresses meaningfully.
    EXPECT_GT(squish.size(), opw.size() / 2) << "budget=" << budget;
    EXPECT_LT(squish.size(), trajectory.size()) << "budget=" << budget;
    const Evaluation eval = Evaluate(trajectory, squish).value();
    EXPECT_LE(eval.sync_error_max_m, budget + 1e-9);
  }
}

TEST(SquishBufferTest, MemoryIsRecycled) {
  // The buffer's node storage must stay O(capacity), not O(stream length).
  SquishBuffer buffer(8, 0.0);
  Rng rng(21);
  double t = 0.0;
  for (int i = 0; i < 10000; ++i) {
    t += 1.0 + rng.NextDouble();
    buffer.Push(i, TimedPoint(t, rng.NextUniform(0, 1000),
                              rng.NextUniform(0, 1000)));
    EXPECT_LE(buffer.size(), 9u);
  }
  IndexList kept;
  buffer.Finalize(kept);
  EXPECT_LE(kept.size(), 8u);
}

}  // namespace
}  // namespace stcomp::algo
