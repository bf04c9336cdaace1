#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "stcomp/algo/time_ratio.h"
#include "stcomp/core/spline.h"
#include "stcomp/error/cubic_error.h"
#include "stcomp/error/similarity.h"
#include "stcomp/error/synchronous_error.h"
#include "test_util.h"

namespace stcomp {
namespace {

using testutil::Line;
using testutil::RandomWalk;
using testutil::Traj;

TEST(CubicTrajectoryTest, RequiresTwoPoints) {
  const Trajectory one = Traj({{0, 0, 0}});
  EXPECT_FALSE(CubicTrajectory::Create(&one).ok());
}

TEST(CubicTrajectoryTest, InterpolatesThroughSamples) {
  const Trajectory trajectory = RandomWalk(20, 1);
  const CubicTrajectory cubic = CubicTrajectory::Create(&trajectory).value();
  for (const TimedPoint& point : trajectory.points()) {
    const Vec2 at = cubic.PositionAt(point.t).value();
    EXPECT_NEAR(at.x, point.position.x, 1e-9);
    EXPECT_NEAR(at.y, point.position.y, 1e-9);
  }
}

TEST(CubicTrajectoryTest, LinearMotionReproducedExactly) {
  // A straight constant-velocity run is in the spline's span.
  const Trajectory trajectory = Line(10, 10.0, 3.0, -2.0);
  const CubicTrajectory cubic = CubicTrajectory::Create(&trajectory).value();
  for (double t = 0.0; t <= 90.0; t += 3.7) {
    const Vec2 expected{3.0 * t, -2.0 * t};
    const Vec2 at = cubic.PositionAt(t).value();
    EXPECT_NEAR(at.x, expected.x, 1e-9);
    EXPECT_NEAR(at.y, expected.y, 1e-9);
    const Vec2 v = cubic.VelocityAt(t).value();
    EXPECT_NEAR(v.x, 3.0, 1e-9);
    EXPECT_NEAR(v.y, -2.0, 1e-9);
  }
}

TEST(CubicTrajectoryTest, RangeChecked) {
  const Trajectory trajectory = Line(5, 1.0, 1.0, 0.0);
  const CubicTrajectory cubic = CubicTrajectory::Create(&trajectory).value();
  EXPECT_FALSE(cubic.PositionAt(-0.1).ok());
  EXPECT_FALSE(cubic.VelocityAt(4.1).ok());
}

TEST(CubicTrajectoryTest, VelocityIsDerivativeNumerically) {
  const Trajectory trajectory = RandomWalk(15, 2);
  const CubicTrajectory cubic = CubicTrajectory::Create(&trajectory).value();
  const double t0 = trajectory.front().t + 0.3 * trajectory.Duration();
  const double h = 1e-6;
  const Vec2 numeric = (cubic.PositionAt(t0 + h).value() -
                        cubic.PositionAt(t0 - h).value()) /
                       (2.0 * h);
  const Vec2 analytic = cubic.VelocityAt(t0).value();
  EXPECT_NEAR(analytic.x, numeric.x, 1e-4);
  EXPECT_NEAR(analytic.y, numeric.y, 1e-4);
}

TEST(CubicErrorTest, ZeroForIdenticalLinearMotion) {
  const Trajectory trajectory = Line(10, 10.0, 5.0, 0.0);
  EXPECT_NEAR(CubicSynchronousError(trajectory, trajectory, 1e-9).value(),
              0.0, 1e-9);
}

TEST(CubicErrorTest, CloseToLinearErrorOnSmoothTraces) {
  // Against the same approximation, the cubic notion should be in the
  // same ballpark as the linear one (the reconstruction differs only by
  // the spline's overshoot between samples).
  const Trajectory trajectory = RandomWalk(60, 3);
  const Trajectory approximation =
      trajectory.Subset(algo::Kept(algo::TdTr, trajectory, 40.0));
  const double linear =
      SynchronousError(trajectory, approximation).value();
  const double cubic =
      CubicSynchronousError(trajectory, approximation, 1e-8).value();
  EXPECT_GT(cubic, 0.25 * linear);
  EXPECT_LT(cubic, 4.0 * linear);
}

TEST(FrechetTest, IdenticalTrajectoriesZero) {
  const Trajectory trajectory = RandomWalk(40, 4);
  EXPECT_DOUBLE_EQ(DiscreteFrechetDistance(trajectory, trajectory).value(),
                   0.0);
}

TEST(FrechetTest, ParallelLinesOffset) {
  const Trajectory a = Line(10, 1.0, 10.0, 0.0, 0.0, 0.0);
  const Trajectory b = Line(10, 1.0, 10.0, 0.0, 0.0, 25.0);
  EXPECT_DOUBLE_EQ(DiscreteFrechetDistance(a, b).value(), 25.0);
}

TEST(FrechetTest, SymmetricAndBoundsSinglePoint) {
  const Trajectory a = RandomWalk(30, 5);
  const Trajectory b = RandomWalk(25, 6);
  const double ab = DiscreteFrechetDistance(a, b).value();
  const double ba = DiscreteFrechetDistance(b, a).value();
  EXPECT_DOUBLE_EQ(ab, ba);
  EXPECT_GT(ab, 0.0);
  // Coupling distance dominates the start/end point distances.
  EXPECT_GE(ab + 1e-12, Distance(a.front().position, b.front().position));
  EXPECT_GE(ab + 1e-12, Distance(a.back().position, b.back().position));
}

TEST(FrechetTest, CompressionBoundedByVertexCoupling) {
  // The approximation's points are a subset of the original's, so matching
  // every original point to the nearer endpoint of its covering kept
  // segment is a valid monotone coupling; the discrete Frechet distance is
  // bounded by that coupling's worst pair.
  const Trajectory trajectory = RandomWalk(100, 7);
  const algo::IndexList kept = algo::Kept(algo::TdTr, trajectory, 30.0);
  const Trajectory approximation = trajectory.Subset(kept);
  double coupling_bound = 0.0;
  for (size_t s = 1; s < kept.size(); ++s) {
    for (int i = kept[s - 1]; i <= kept[s]; ++i) {
      const Vec2 p = trajectory[static_cast<size_t>(i)].position;
      coupling_bound = std::max(
          coupling_bound,
          std::min(
              Distance(p, trajectory[static_cast<size_t>(kept[s - 1])].position),
              Distance(p, trajectory[static_cast<size_t>(kept[s])].position)));
    }
  }
  const double frechet =
      DiscreteFrechetDistance(trajectory, approximation).value();
  EXPECT_LE(frechet, coupling_bound + 1e-9);
  EXPECT_GT(frechet, 0.0);
}

TEST(FrechetTest, RejectsEmpty) {
  Trajectory empty;
  const Trajectory a = Line(3, 1.0, 1.0, 0.0);
  EXPECT_FALSE(DiscreteFrechetDistance(empty, a).ok());
  EXPECT_FALSE(DiscreteFrechetDistance(a, empty).ok());
}

TEST(DtwTest, IdenticalZeroAndSymmetry) {
  const Trajectory a = RandomWalk(30, 8);
  EXPECT_DOUBLE_EQ(DtwDistance(a, a).value(), 0.0);
  const Trajectory b = RandomWalk(35, 9);
  EXPECT_DOUBLE_EQ(DtwDistance(a, b).value(), DtwDistance(b, a).value());
}

TEST(DtwTest, ParallelLinesOffset) {
  const Trajectory a = Line(10, 1.0, 10.0, 0.0, 0.0, 0.0);
  const Trajectory b = Line(10, 1.0, 10.0, 0.0, 0.0, 25.0);
  // Every aligned pair is exactly 25 m apart.
  EXPECT_DOUBLE_EQ(DtwDistance(a, b).value(), 25.0);
}

TEST(DtwTest, RobustToResampling) {
  // DTW should barely notice uniform subsampling of the same path.
  const Trajectory a = RandomWalk(100, 10);
  const Trajectory b = a.Subset([&] {
    algo::IndexList every_second;
    for (int i = 0; i < 100; i += 2) {
      every_second.push_back(i);
    }
    if (every_second.back() != 99) {
      every_second.push_back(99);
    }
    return every_second;
  }());
  EXPECT_LT(DtwDistance(a, b).value(), 15.0);
}

TEST(TimeShiftedTest, ZeroShiftMatchesMaxSync) {
  const Trajectory trajectory = RandomWalk(60, 11);
  const Trajectory approximation =
      trajectory.Subset(algo::Kept(algo::TdTr, trajectory, 50.0));
  EXPECT_NEAR(
      TimeShiftedMaxDistance(trajectory, approximation, 0.0).value(),
      MaxSynchronousError(trajectory, approximation).value(), 1e-9);
}

TEST(TimeShiftedTest, ShiftDetectsDeparturesApart) {
  // Same motion, departed 60 s later: shifting by 60 re-aligns perfectly.
  const Trajectory a = Line(20, 10.0, 10.0, 0.0);
  std::vector<TimedPoint> delayed;
  for (const TimedPoint& point : a.points()) {
    delayed.emplace_back(point.t + 60.0, point.position);
  }
  const Trajectory b = Traj(std::move(delayed));
  EXPECT_NEAR(TimeShiftedMaxDistance(a, b, -60.0).value(), 0.0, 1e-9);
  EXPECT_GT(TimeShiftedMaxDistance(a, b, 0.0).value(), 100.0);
}

TEST(TimeShiftedTest, RejectsDisjointIntervals) {
  const Trajectory a = Line(5, 1.0, 1.0, 0.0);
  EXPECT_FALSE(TimeShiftedMaxDistance(a, a, 100.0).ok());
}

}  // namespace
}  // namespace stcomp
