#include <gtest/gtest.h>

#include "stcomp/algo/bottom_up.h"
#include "stcomp/algo/sliding_window.h"
#include "stcomp/algo/time_ratio.h"
#include "stcomp/error/spatial_error.h"
#include "test_util.h"

namespace stcomp::algo {
namespace {

using testutil::Line;
using testutil::LineWithStop;
using testutil::RandomWalk;
using testutil::Traj;

TEST(BottomUpTest, CollinearCollapses) {
  const Trajectory trajectory = Line(25, 1.0, 3.0, 0.0);
  EXPECT_EQ(Kept(BottomUp, trajectory, 0.5, BottomUpMetric::kPerpendicular),
            (IndexList{0, 24}));
}

TEST(BottomUpTest, RespectsEpsilonGuarantee) {
  // Bottom-up's invariant: at the moment a point was removed, all affected
  // interiors were within eps of the merged segment. Verify the final
  // result still satisfies the per-segment bound.
  const Trajectory trajectory = RandomWalk(120, 3);
  const double epsilon = 30.0;
  const IndexList kept =
      Kept(BottomUp, trajectory, epsilon, BottomUpMetric::kPerpendicular);
  EXPECT_TRUE(IsValidIndexList(trajectory, kept));
  EXPECT_LE(MaxPerpendicularError(trajectory, kept), epsilon);
}

TEST(BottomUpTest, SynchronizedMetricSeesStops) {
  const Trajectory trajectory = LineWithStop(10, 8, 10);
  EXPECT_EQ(
      Kept(BottomUp, trajectory, 10.0, BottomUpMetric::kPerpendicular).size(),
      2u);
  EXPECT_GT(
      Kept(BottomUp, trajectory, 10.0, BottomUpMetric::kSynchronized).size(),
      2u);
}

TEST(BottomUpTest, MonotoneInEpsilon) {
  const Trajectory trajectory = RandomWalk(100, 7);
  size_t previous = trajectory.size() + 1;
  for (double epsilon : {2.0, 10.0, 50.0, 250.0}) {
    const size_t kept =
        Kept(BottomUp, trajectory, epsilon, BottomUpMetric::kPerpendicular)
            .size();
    EXPECT_LE(kept, previous);
    previous = kept;
  }
}

TEST(BottomUpMaxPointsTest, HonoursBudget) {
  const Trajectory trajectory = RandomWalk(80, 11);
  for (int budget : {2, 5, 20, 79}) {
    const IndexList kept = Kept(BottomUpMaxPoints, trajectory, budget,
                                BottomUpMetric::kPerpendicular);
    EXPECT_EQ(kept.size(), static_cast<size_t>(budget));
    EXPECT_TRUE(IsValidIndexList(trajectory, kept));
  }
}

TEST(BottomUpMaxPointsTest, BudgetBeyondSizeKeepsAll) {
  const Trajectory trajectory = RandomWalk(12, 13);
  EXPECT_EQ(
      Kept(BottomUpMaxPoints, trajectory, 50, BottomUpMetric::kPerpendicular),
      Kept(KeepAll, trajectory));
}

TEST(BottomUpTest, TinyInputs) {
  Trajectory empty;
  EXPECT_TRUE(
      Kept(BottomUp, empty, 1.0, BottomUpMetric::kPerpendicular).empty());
  const Trajectory two = Traj({{0, 0, 0}, {1, 1, 1}});
  EXPECT_EQ(Kept(BottomUp, two, 1.0, BottomUpMetric::kPerpendicular),
            (IndexList{0, 1}));
}

TEST(SlidingWindowTest, CapBoundsSegmentLength) {
  const Trajectory trajectory = Line(101, 1.0, 5.0, 0.0);
  const int cap = 10;
  const IndexList kept = Kept(SlidingWindow, trajectory, 1.0, cap);
  EXPECT_TRUE(IsValidIndexList(trajectory, kept));
  for (size_t s = 1; s < kept.size(); ++s) {
    EXPECT_LE(kept[s] - kept[s - 1], cap);
  }
  // A straight line still compresses well within each window.
  EXPECT_LE(kept.size(), 12u);
}

TEST(SlidingWindowTest, MatchesOpeningWindowWhenCapIsHuge) {
  const Trajectory trajectory = RandomWalk(100, 17);
  EXPECT_EQ(Kept(SlidingWindow, trajectory, 30.0, 1000000),
            Kept(Nopw, trajectory, 30.0));
  EXPECT_EQ(Kept(SlidingWindowTr, trajectory, 30.0, 1000000),
            Kept(OpwTr, trajectory, 30.0));
}

TEST(SlidingWindowTest, ViolationStillCutsInsideCap) {
  const Trajectory trajectory = RandomWalk(100, 19);
  const double epsilon = 25.0;
  const IndexList kept = Kept(SlidingWindow, trajectory, epsilon, 15);
  // Committed segments (except the forced last) satisfy the line bound.
  for (size_t s = 1; s + 1 < kept.size(); ++s) {
    for (int i = kept[s - 1] + 1; i < kept[s]; ++i) {
      EXPECT_LE(PointToLineDistance(
                    trajectory[static_cast<size_t>(i)].position,
                    trajectory[static_cast<size_t>(kept[s - 1])].position,
                    trajectory[static_cast<size_t>(kept[s])].position),
                epsilon);
    }
  }
}

}  // namespace
}  // namespace stcomp::algo
