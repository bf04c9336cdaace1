#include "stcomp/algo/time_ratio.h"

#include <gtest/gtest.h>

#include "stcomp/algo/douglas_peucker.h"
#include "stcomp/core/interpolation.h"
#include "stcomp/error/synchronous_error.h"
#include "test_util.h"

namespace stcomp::algo {
namespace {

using testutil::Line;
using testutil::LineWithStop;
using testutil::RandomWalk;
using testutil::Traj;

TEST(TdTrTest, ConstantSpeedLineCollapses) {
  // Constant speed on a straight line: SED of every interior point is 0.
  const Trajectory trajectory = Line(40, 10.0, 12.0, 5.0);
  EXPECT_EQ(TdTr(trajectory, 1.0), (IndexList{0, 39}));
}

TEST(TdTrTest, StopIsInvisibleToNdpButNotToTdTr) {
  // A 10-sample stop in the middle of a straight drive: spatially collinear
  // (NDP collapses everything), but temporally a huge deviation.
  const Trajectory trajectory = LineWithStop(10, 10, 10);
  EXPECT_EQ(DouglasPeucker(trajectory, 10.0).size(), 2u);
  EXPECT_GT(TdTr(trajectory, 10.0).size(), 2u);
}

TEST(TdTrTest, GuaranteesMaxSynchronousError) {
  // The TD invariant under the SED criterion bounds the synchronous error
  // at every original point — and, by convexity, everywhere.
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    const Trajectory trajectory = RandomWalk(250, seed);
    for (double epsilon : {15.0, 40.0, 90.0}) {
      const IndexList kept = TdTr(trajectory, epsilon);
      const Trajectory approximation = trajectory.Subset(kept);
      const double max_error =
          MaxSynchronousError(trajectory, approximation).value();
      EXPECT_LE(max_error, epsilon + 1e-9)
          << "seed=" << seed << " eps=" << epsilon;
    }
  }
}

TEST(TdTrTest, MeanSyncErrorBelowNdpOnStopHeavyTraces) {
  // The paper's Fig. 7 shape on a single adversarial trace.
  const Trajectory trajectory = LineWithStop(15, 12, 15);
  const double epsilon = 30.0;
  const Trajectory ndp =
      trajectory.Subset(DouglasPeucker(trajectory, epsilon));
  const Trajectory tdtr = trajectory.Subset(TdTr(trajectory, epsilon));
  EXPECT_LT(SynchronousError(trajectory, tdtr).value(),
            SynchronousError(trajectory, ndp).value());
}

TEST(TdTrTest, MonotoneCompressionInThreshold) {
  const Trajectory trajectory = RandomWalk(200, 5);
  size_t previous = trajectory.size() + 1;
  for (double epsilon : {5.0, 15.0, 45.0, 135.0}) {
    const IndexList kept = TdTr(trajectory, epsilon);
    EXPECT_TRUE(IsValidIndexList(trajectory, kept));
    EXPECT_LE(kept.size(), previous);
    previous = kept.size();
  }
}

TEST(OpwTrTest, ConstantSpeedLineCollapses) {
  const Trajectory trajectory = Line(40, 10.0, 12.0, 5.0);
  EXPECT_EQ(OpwTr(trajectory, 1.0), (IndexList{0, 39}));
}

TEST(OpwTrTest, CommittedSegmentsRespectSedThreshold) {
  const Trajectory trajectory = RandomWalk(180, 21);
  const double epsilon = 35.0;
  const IndexList kept = OpwTr(trajectory, epsilon);
  // All but the final forced segment honour the SED bound at interiors.
  for (size_t s = 1; s + 1 < kept.size(); ++s) {
    const TimedPoint& anchor = trajectory[static_cast<size_t>(kept[s - 1])];
    const TimedPoint& end = trajectory[static_cast<size_t>(kept[s])];
    for (int i = kept[s - 1] + 1; i < kept[s]; ++i) {
      EXPECT_LE(SynchronizedDistance(anchor, end,
                                     trajectory[static_cast<size_t>(i)]),
                epsilon);
    }
  }
}

TEST(OpwTrTest, DetectsTemporalDeviationOnCollinearPath) {
  const Trajectory trajectory = LineWithStop(10, 10, 10);
  EXPECT_GT(OpwTr(trajectory, 10.0).size(), 2u);
}

TEST(TdTrMaxPointsTest, HonoursBudgetAndUsesSed) {
  const Trajectory trajectory = RandomWalk(100, 41);
  for (int budget : {2, 5, 20}) {
    const IndexList kept = TdTrMaxPoints(trajectory, budget);
    EXPECT_EQ(kept.size(), static_cast<size_t>(budget));
    EXPECT_TRUE(IsValidIndexList(trajectory, kept));
  }
  // On a collinear path with a stop, the first extra point the SED budget
  // spends must land inside the stop region — perpendicular DP would see
  // nothing there.
  const Trajectory with_stop = LineWithStop(10, 10, 10);
  const IndexList kept = TdTrMaxPoints(with_stop, 3);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_GT(kept[1], 9);
  EXPECT_LT(kept[1], 22);
}

TEST(OpwTrTest, SplitDistanceAccessor) {
  const Trajectory trajectory = Traj({{0, 0, 0}, {2, 80, 0}, {10, 100, 0}});
  // At t=2 the time-ratio position is 20 east; the sample sits at 80.
  EXPECT_DOUBLE_EQ(
      SynchronizedDistance(trajectory[0], trajectory[2], trajectory[1]), 60.0);
}

}  // namespace
}  // namespace stcomp::algo
