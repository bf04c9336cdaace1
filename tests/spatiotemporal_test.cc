#include "stcomp/algo/spatiotemporal.h"

#include <gtest/gtest.h>

#include "stcomp/algo/time_ratio.h"
#include "test_util.h"

namespace stcomp::algo {
namespace {

using testutil::Line;
using testutil::LineWithStop;
using testutil::RandomWalk;
using testutil::Traj;

TEST(SpeedJumpTest, ComputesDerivedSpeedDifference) {
  // Segment speeds: 10 m/s then 0 m/s -> jump of 10 at index 1.
  const Trajectory trajectory =
      Traj({{0, 0, 0}, {10, 100, 0}, {20, 100, 0}});
  EXPECT_DOUBLE_EQ(SpeedJump(trajectory, 1), 10.0);
}

TEST(OpwSpTest, ConstantSpeedCollapses) {
  const Trajectory trajectory = Line(30, 10.0, 12.0, 0.0);
  EXPECT_EQ(Kept(OpwSp, trajectory, 5.0, 5.0), (IndexList{0, 29}));
}

TEST(OpwSpTest, SpeedJumpForcesRetention) {
  // Accelerating from 5 m/s to 20 m/s instantly at index 5: with a 5 m/s
  // speed threshold the jump point must be retained even with a huge
  // distance threshold.
  std::vector<TimedPoint> points;
  double x = 0.0;
  for (int i = 0; i <= 10; ++i) {
    points.emplace_back(i * 10.0, x, 0.0);
    x += (i < 5 ? 5.0 : 20.0) * 10.0;
  }
  const Trajectory trajectory = Traj(std::move(points));
  const IndexList tight = Kept(OpwSp, trajectory, 1e9, 5.0);
  EXPECT_NE(std::find(tight.begin(), tight.end(), 5), tight.end());
  // With a generous speed threshold the jump is tolerated.
  const IndexList loose = Kept(OpwSp, trajectory, 1e9, 25.0);
  EXPECT_EQ(loose, (IndexList{0, 10}));
}

TEST(OpwSpTest, ReducesToOpwTrWithInfiniteSpeedThreshold) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const Trajectory trajectory = RandomWalk(120, seed);
    for (double epsilon : {20.0, 60.0}) {
      EXPECT_EQ(Kept(OpwSp, trajectory, epsilon, 1e18),
                Kept(OpwTr, trajectory, epsilon))
          << "seed=" << seed;
    }
  }
}

TEST(OpwSpTest, TighterSpeedThresholdNeverCompressesMore) {
  const Trajectory trajectory = RandomWalk(150, 8);
  for (double epsilon : {30.0, 60.0}) {
    const size_t kept5 = Kept(OpwSp, trajectory, epsilon, 5.0).size();
    const size_t kept15 = Kept(OpwSp, trajectory, epsilon, 15.0).size();
    const size_t kept25 = Kept(OpwSp, trajectory, epsilon, 25.0).size();
    EXPECT_GE(kept5, kept15);
    EXPECT_GE(kept15, kept25);
  }
}

TEST(OpwSpTest, ValidIndexLists) {
  const Trajectory trajectory = RandomWalk(90, 4);
  for (double epsilon : {10.0, 50.0}) {
    for (double speed : {5.0, 15.0, 25.0}) {
      EXPECT_TRUE(IsValidIndexList(trajectory,
                                   Kept(OpwSp, trajectory, epsilon, speed)));
    }
  }
}

TEST(TdSpTest, ConstantSpeedCollapses) {
  const Trajectory trajectory = Line(30, 10.0, 12.0, 0.0);
  EXPECT_EQ(Kept(TdSp, trajectory, 5.0, 5.0), (IndexList{0, 29}));
}

TEST(TdSpTest, ReducesToTdTrWithInfiniteSpeedThreshold) {
  for (uint64_t seed : {5u, 6u}) {
    const Trajectory trajectory = RandomWalk(120, seed);
    EXPECT_EQ(Kept(TdSp, trajectory, 40.0, 1e18), Kept(TdTr, trajectory, 40.0));
  }
}

TEST(TdSpTest, SpeedJumpForcesSplitOnCollinearPath) {
  // Straight line with a stop: SED splits already happen, but even with a
  // huge distance threshold the speed criterion must fire.
  const Trajectory trajectory = LineWithStop(8, 6, 8);
  const IndexList kept = Kept(TdSp, trajectory, 1e9, 5.0);
  EXPECT_GT(kept.size(), 2u);
}

TEST(TdSpTest, GuaranteesSpeedJumpBoundWithinSegments) {
  // After TD-SP, no *interior* discarded point has a speed jump above the
  // threshold (those would have forced a split).
  const Trajectory trajectory = RandomWalk(150, 31);
  const double speed_threshold = 10.0;
  const IndexList kept = Kept(TdSp, trajectory, 45.0, speed_threshold);
  for (size_t s = 1; s < kept.size(); ++s) {
    for (int i = kept[s - 1] + 1; i < kept[s]; ++i) {
      EXPECT_LE(SpeedJump(trajectory, i), speed_threshold);
    }
  }
}

TEST(TdSpTest, TinyInputs) {
  Trajectory empty;
  EXPECT_TRUE(Kept(TdSp, empty, 1.0, 1.0).empty());
  const Trajectory two = Traj({{0, 0, 0}, {1, 5, 5}});
  EXPECT_EQ(Kept(TdSp, two, 1.0, 1.0), (IndexList{0, 1}));
  EXPECT_EQ(Kept(OpwSp, two, 1.0, 1.0), (IndexList{0, 1}));
}

}  // namespace
}  // namespace stcomp::algo
