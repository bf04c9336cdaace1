#include "stcomp/error/spatial_error.h"

#include <gtest/gtest.h>

#include "stcomp/algo/douglas_peucker.h"
#include "stcomp/error/evaluation.h"
#include "test_util.h"

namespace stcomp {
namespace {

using testutil::Line;
using testutil::RandomWalk;
using testutil::Traj;

TEST(PerpendicularErrorTest, ZeroWhenNothingDiscarded) {
  const Trajectory trajectory = RandomWalk(20, 1);
  const algo::IndexList all = algo::Kept(algo::KeepAll, trajectory);
  EXPECT_DOUBLE_EQ(MeanPerpendicularError(trajectory, all), 0.0);
  EXPECT_DOUBLE_EQ(MaxPerpendicularError(trajectory, all), 0.0);
}

TEST(PerpendicularErrorTest, HandComputed) {
  // Discarded point at (50, 30) against segment (0,0)-(100,0).
  const Trajectory trajectory =
      Traj({{0, 0, 0}, {5, 50, 30}, {10, 100, 0}});
  EXPECT_DOUBLE_EQ(MeanPerpendicularError(trajectory, {0, 2}), 30.0);
  EXPECT_DOUBLE_EQ(MaxPerpendicularError(trajectory, {0, 2}), 30.0);
}

TEST(PerpendicularErrorTest, MeanAveragesOverDiscarded) {
  const Trajectory trajectory =
      Traj({{0, 0, 0}, {1, 25, 10}, {2, 50, 30}, {3, 100, 0}});
  EXPECT_DOUBLE_EQ(MeanPerpendicularError(trajectory, {0, 3}), 20.0);
  EXPECT_DOUBLE_EQ(MaxPerpendicularError(trajectory, {0, 3}), 30.0);
}

TEST(PerpendicularErrorTest, UsesSegmentNotLine) {
  // Discarded point beyond the segment end: distance clamps to the
  // endpoint (3-4-5 triangle), not the infinite line (4).
  const Trajectory trajectory =
      Traj({{0, 0, 0}, {5, 13, 4}, {10, 10, 0}});
  EXPECT_DOUBLE_EQ(MaxPerpendicularError(trajectory, {0, 2}), 5.0);
}

TEST(AreaErrorTest, ZeroForIdenticalTrajectories) {
  const Trajectory trajectory = RandomWalk(30, 2);
  EXPECT_NEAR(AreaError(trajectory, trajectory).value(), 0.0, 1e-12);
}

TEST(AreaErrorTest, HandComputedTriangleDetour) {
  // Original detours to height 40 at mid-time; approximation runs along
  // the base line. Perpendicular offset is |linear| 0->40->0: average 20.
  const Trajectory original = Traj({{0, 0, 0}, {5, 50, 40}, {10, 100, 0}});
  const Trajectory approximation = Traj({{0, 0, 0}, {10, 100, 0}});
  EXPECT_NEAR(AreaError(original, approximation).value(), 20.0, 1e-12);
}

TEST(AreaErrorTest, PerpendicularNotSynchronous) {
  // A purely *temporal* deviation on a straight path: the object is ahead
  // of schedule but on the line. Perpendicular area error is 0.
  const Trajectory original = Traj({{0, 0, 0}, {2, 80, 0}, {10, 100, 0}});
  const Trajectory approximation = Traj({{0, 0, 0}, {10, 100, 0}});
  EXPECT_NEAR(AreaError(original, approximation).value(), 0.0, 1e-12);
}

TEST(AreaErrorTest, DegenerateApproximationSegment) {
  // Approximation pauses (zero-length segment): falls back to distance to
  // the stationary point.
  const Trajectory original =
      Traj({{0, 0, 0}, {5, 30, 0}, {10, 0, 0}, {20, 0, 0}});
  const Trajectory approximation =
      Traj({{0, 0, 0}, {10, 0, 0}, {20, 0, 0}});
  const double error = AreaError(original, approximation).value();
  // First 10 s: out-and-back detour against the (0,0)-(0,0)... the first
  // approximation segment (0,0)->(0,0) over t in [0,10] is degenerate, so
  // the distance is |p(t)|: 0->30->0 triangle, average 15 over [0,10];
  // second half exact 0. Time-weighted: 15 * 10/20 = 7.5.
  EXPECT_NEAR(error, 7.5, 1e-12);
}

TEST(AreaErrorTest, RequirementsEnforced) {
  const Trajectory a = Line(10, 1.0, 1.0, 0.0);
  const Trajectory b = Line(5, 1.0, 1.0, 0.0);
  EXPECT_FALSE(AreaError(a, b).ok());
}

TEST(EvaluationTest, FullEvaluationOnHandCase) {
  const Trajectory original = Traj({{0, 0, 0}, {5, 50, 40}, {10, 100, 0}});
  const Evaluation evaluation = Evaluate(original, {0, 2}).value();
  EXPECT_EQ(evaluation.original_points, 3u);
  EXPECT_EQ(evaluation.kept_points, 2u);
  EXPECT_NEAR(evaluation.compression_percent, 100.0 / 3.0, 1e-9);
  EXPECT_NEAR(evaluation.sync_error_mean_m, 20.0, 1e-12);
  EXPECT_NEAR(evaluation.sync_error_max_m, 40.0, 1e-12);
  EXPECT_DOUBLE_EQ(evaluation.perp_error_mean_m, 40.0);
  EXPECT_DOUBLE_EQ(evaluation.perp_error_max_m, 40.0);
  EXPECT_NEAR(evaluation.area_error_m, 20.0, 1e-12);
}

TEST(EvaluationTest, RejectsInvalidIndexList) {
  const Trajectory trajectory = RandomWalk(10, 3);
  EXPECT_FALSE(Evaluate(trajectory, {0, 3}).ok());
  EXPECT_FALSE(Evaluate(trajectory, {1, 9}).ok());
}

TEST(EvaluationTest, SyncDominatesOrEqualsAreaOnDpOutput) {
  // The synchronous distance is always >= the perpendicular distance to
  // the active segment's line, so the averaged errors order the same way.
  for (uint64_t seed : {4u, 5u, 6u}) {
    const Trajectory trajectory = RandomWalk(100, seed);
    const algo::IndexList kept =
        algo::Kept(algo::DouglasPeucker, trajectory, 40.0);
    const Evaluation evaluation = Evaluate(trajectory, kept).value();
    EXPECT_GE(evaluation.sync_error_mean_m, evaluation.area_error_m - 1e-9);
  }
}

}  // namespace
}  // namespace stcomp
