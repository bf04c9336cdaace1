#include "stcomp/error/synchronous_error.h"

#include <cmath>

#include <gtest/gtest.h>

#include "stcomp/algo/douglas_peucker.h"
#include "stcomp/algo/time_ratio.h"
#include "stcomp/error/integration.h"
#include "test_util.h"

namespace stcomp {
namespace {

using testutil::Line;
using testutil::RandomWalk;
using testutil::Traj;

double NumericAverageLinearNorm(Vec2 d0, Vec2 d1) {
  return AdaptiveSimpson(
      [&](double u) { return (d0 + (d1 - d0) * u).Norm(); }, 0.0, 1.0, 1e-12);
}

TEST(AverageLinearNormTest, ZeroVectors) {
  EXPECT_DOUBLE_EQ(AverageLinearNorm({0, 0}, {0, 0}), 0.0);
}

TEST(AverageLinearNormTest, ConstantOffsetCase) {
  // Paper case c1 = 0: translated segment, constant distance.
  EXPECT_DOUBLE_EQ(AverageLinearNorm({3, 4}, {3, 4}), 5.0);
}

TEST(AverageLinearNormTest, SharedStartPointCase) {
  // Paper case "segments share start point": d0 = 0 -> average is half the
  // final offset.
  EXPECT_NEAR(AverageLinearNorm({0, 0}, {6, 8}), 5.0, 1e-12);
}

TEST(AverageLinearNormTest, SharedEndPointCase) {
  EXPECT_NEAR(AverageLinearNorm({6, 8}, {0, 0}), 5.0, 1e-12);
}

TEST(AverageLinearNormTest, ZeroCrossingCollinearDeltas) {
  // d(u) passes through 0 in the middle (parallel chords, disc = 0):
  // average of |linear| = (1/4)(|d0| + |d1|) when the zero is at u=1/2.
  EXPECT_NEAR(AverageLinearNorm({-4, 0}, {4, 0}), 2.0, 1e-12);
}

TEST(AverageLinearNormTest, GeneralCaseMatchesQuadrature) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const Vec2 d0{rng.NextUniform(-100.0, 100.0),
                  rng.NextUniform(-100.0, 100.0)};
    const Vec2 d1{rng.NextUniform(-100.0, 100.0),
                  rng.NextUniform(-100.0, 100.0)};
    const double closed = AverageLinearNorm(d0, d1);
    const double numeric = NumericAverageLinearNorm(d0, d1);
    EXPECT_NEAR(closed, numeric, 1e-8 * (1.0 + numeric))
        << "trial=" << trial << " d0=(" << d0.x << "," << d0.y << ") d1=("
        << d1.x << "," << d1.y << ")";
  }
}

TEST(AverageLinearNormTest, NearDegenerateScales) {
  // Tiny direction change on a huge offset (cancellation regime).
  const Vec2 d0{1e6, 0.0};
  const Vec2 d1{1e6 + 1e-3, 1e-3};
  const double closed = AverageLinearNorm(d0, d1);
  EXPECT_NEAR(closed, 1e6, 1.0);
}

TEST(AverageLinearAbsTest, NoSignChange) {
  EXPECT_DOUBLE_EQ(AverageLinearAbs(2.0, 4.0), 3.0);
  EXPECT_DOUBLE_EQ(AverageLinearAbs(-2.0, -4.0), 3.0);
  EXPECT_DOUBLE_EQ(AverageLinearAbs(0.0, 4.0), 2.0);
}

TEST(AverageLinearAbsTest, SignChange) {
  // Crosses zero at u = 0.5: two triangles of average (1/4)(|s0|+|s1|).
  EXPECT_DOUBLE_EQ(AverageLinearAbs(-4.0, 4.0), 2.0);
  // Asymmetric crossing: s0=-1, s1=3, zero at u=0.25:
  // integral = 0.25*0.5*1 + 0.75*0.5*3 = 1.25.
  EXPECT_DOUBLE_EQ(AverageLinearAbs(-1.0, 3.0), 1.25);
}

TEST(SynchronousErrorTest, IdenticalTrajectoriesHaveZeroError) {
  const Trajectory trajectory = RandomWalk(50, 1);
  EXPECT_DOUBLE_EQ(SynchronousError(trajectory, trajectory).value(), 0.0);
  EXPECT_DOUBLE_EQ(MaxSynchronousError(trajectory, trajectory).value(), 0.0);
}

TEST(SynchronousErrorTest, RequiresMatchingInterval) {
  const Trajectory a = Line(10, 1.0, 1.0, 0.0);
  const Trajectory b = Line(5, 1.0, 1.0, 0.0);
  EXPECT_EQ(SynchronousError(a, b).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SynchronousErrorTest, RequiresTwoPoints) {
  const Trajectory a = Line(10, 1.0, 1.0, 0.0);
  const Trajectory one = Traj({{0, 0, 0}});
  EXPECT_FALSE(SynchronousError(a, one).ok());
  EXPECT_FALSE(SynchronousError(one, a).ok());
}

TEST(SynchronousErrorTest, HandComputedCase) {
  // Original: 0 -> 100 m in 10 s with a detour sample at (50, 40) at t=5.
  // Approximation: straight 0 -> 100.
  // Difference at t=0/10: 0; at t=5: (0, 40). Both halves are the "shared
  // endpoint" case: average 20 each, total 20.
  const Trajectory original =
      Traj({{0, 0, 0}, {5, 50, 40}, {10, 100, 0}});
  const Trajectory approximation = Traj({{0, 0, 0}, {10, 100, 0}});
  EXPECT_NEAR(SynchronousError(original, approximation).value(), 20.0, 1e-12);
  EXPECT_NEAR(MaxSynchronousError(original, approximation).value(), 40.0,
              1e-12);
}

TEST(SynchronousErrorTest, TimeWeightingMatters) {
  // Same geometry, but the detour interval lasts 1 s out of 100 s: the
  // time-weighted error collapses accordingly (Eq. 3's weighting).
  const Trajectory original =
      Traj({{0, 0, 0}, {99, 50, 40}, {100, 100, 0}});
  const Trajectory approximation = Traj({{0, 0, 0}, {100, 100, 0}});
  const double error = SynchronousError(original, approximation).value();
  // First 99 s: shared-start case scaled by the interpolated offset at
  // t=99 (|d(99)| = 40 in y plus x deviation), well below 40 on average;
  // exact value checked against quadrature below.
  const double numeric =
      SynchronousErrorNumeric(original, approximation, 1e-10).value();
  EXPECT_NEAR(error, numeric, 1e-6);
  // Max offset is ~63 m (the object also lags in x); the average stays
  // well below it and below the naive (40+0)/2 midpoint of the detour's
  // y-offset plus x-lag peak.
  EXPECT_LT(error, 40.0);
  EXPECT_GT(error, 20.0);
}

class ClosedFormVsNumeric : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClosedFormVsNumeric, AgreeOnCompressedRandomWalks) {
  const Trajectory trajectory = RandomWalk(120, GetParam());
  for (double epsilon : {10.0, 40.0, 120.0}) {
    const Trajectory approximation =
        trajectory.Subset(algo::Kept(algo::TdTr, trajectory, epsilon));
    const double closed =
        SynchronousError(trajectory, approximation).value();
    const double numeric =
        SynchronousErrorNumeric(trajectory, approximation, 1e-10).value();
    EXPECT_NEAR(closed, numeric, 1e-6 * (1.0 + numeric))
        << "eps=" << epsilon;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosedFormVsNumeric,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(SynchronousErrorTest, MaxAttainedAtGridVertex) {
  // The max over the union grid must dominate dense sampling.
  const Trajectory trajectory = RandomWalk(60, 12);
  const Trajectory approximation =
      trajectory.Subset(algo::Kept(algo::DouglasPeucker, trajectory, 50.0));
  const double reported =
      MaxSynchronousError(trajectory, approximation).value();
  double dense = 0.0;
  const double t0 = trajectory.front().t;
  const double t1 = trajectory.back().t;
  for (int k = 0; k <= 5000; ++k) {
    const double t = t0 + (t1 - t0) * k / 5000.0;
    dense = std::max(dense, Distance(trajectory.PositionAt(t).value(),
                                     approximation.PositionAt(t).value()));
  }
  EXPECT_GE(reported + 1e-9, dense);
  EXPECT_NEAR(reported, dense, 1e-6 + 0.01 * reported);
}

// Degenerate-input regressions: each test drives one closed-form branch of
// the paper's case analysis through whole trajectories (not just
// AverageLinearNorm vectors) and pins the hand-computed value against the
// adaptive-Simpson integrator.

TEST(SynchronousErrorDegenerateTest, StationaryIdenticalIsExactlyZero) {
  const Trajectory stationary =
      Traj({{0, 5, -3}, {7, 5, -3}, {19, 5, -3}, {40, 5, -3}});
  EXPECT_DOUBLE_EQ(SynchronousError(stationary, stationary).value(), 0.0);
  EXPECT_DOUBLE_EQ(MaxSynchronousError(stationary, stationary).value(), 0.0);
  EXPECT_NEAR(SynchronousErrorNumeric(stationary, stationary, 1e-12).value(),
              0.0, 1e-9);
}

TEST(SynchronousErrorDegenerateTest, ConstantSpeedCollinearRunIsExactlyZero) {
  // Constant velocity sampled at irregular times: the time-ratio schedule
  // of the two-point approximation reproduces the original exactly, so
  // every union interval hits the zero-offset branch.
  std::vector<TimedPoint> points;
  for (double t : {0.0, 1.0, 2.5, 7.0, 11.25, 30.0}) {
    points.emplace_back(t, 3.0 * t, -2.0 * t);
  }
  const Trajectory original = Traj(std::move(points));
  const Trajectory approximation =
      Traj({{0, 0, 0}, {30.0, 90.0, -60.0}});
  EXPECT_NEAR(SynchronousError(original, approximation).value(), 0.0, 1e-12);
  EXPECT_NEAR(MaxSynchronousError(original, approximation).value(), 0.0,
              1e-12);
  EXPECT_NEAR(
      SynchronousErrorNumeric(original, approximation, 1e-12).value(), 0.0,
      1e-9);
}

TEST(SynchronousErrorDegenerateTest, ConstantOffsetBranchPinned) {
  // On [10, 20] the original runs parallel to the approximation at a
  // constant (0, 4) offset — the paper's c1 = 0 branch. The flanking
  // intervals are the shared-start / shared-end cases (average = half the
  // extreme offset): (10*2 + 10*4 + 20*2) / 40 = 2.5.
  const Trajectory original =
      Traj({{0, 0, 0}, {10, 10, 4}, {20, 20, 4}, {40, 40, 0}});
  const Trajectory approximation = Traj({{0, 0, 0}, {40, 40, 0}});
  EXPECT_NEAR(SynchronousError(original, approximation).value(), 2.5, 1e-12);
  EXPECT_NEAR(MaxSynchronousError(original, approximation).value(), 4.0,
              1e-12);
  EXPECT_NEAR(
      SynchronousError(original, approximation).value(),
      SynchronousErrorNumeric(original, approximation, 1e-12).value(), 1e-9);
}

TEST(SynchronousErrorDegenerateTest, ZeroDiscriminantBranchPinned) {
  // On [5, 15] the offset runs from (0, -3) through zero to (0, 3):
  // collinear anti-parallel deltas, the zero-discriminant branch, average
  // (|d0| + |d1|) / 4 = 1.5. Flanks are shared-endpoint cases, also 1.5,
  // so the time-weighted total is exactly 1.5.
  const Trajectory original =
      Traj({{0, 0, 0}, {5, 5, -3}, {15, 15, 3}, {20, 20, 0}});
  const Trajectory approximation = Traj({{0, 0, 0}, {20, 20, 0}});
  EXPECT_NEAR(SynchronousError(original, approximation).value(), 1.5, 1e-12);
  EXPECT_NEAR(MaxSynchronousError(original, approximation).value(), 3.0,
              1e-12);
  EXPECT_NEAR(
      SynchronousError(original, approximation).value(),
      SynchronousErrorNumeric(original, approximation, 1e-12).value(), 1e-9);
}

TEST(IntegrationTest, AdaptiveSimpsonPolynomialsExact) {
  EXPECT_NEAR(AdaptiveSimpson([](double x) { return x * x; }, 0.0, 3.0, 1e-12),
              9.0, 1e-9);
  EXPECT_NEAR(AdaptiveSimpson([](double x) { return std::sin(x); }, 0.0,
                              3.14159265358979323846, 1e-12),
              2.0, 1e-9);
  EXPECT_DOUBLE_EQ(AdaptiveSimpson([](double) { return 1.0; }, 2.0, 2.0, 1e-12),
                   0.0);
}

TEST(IntegrationTest, HandlesKinks) {
  // |x - 0.3| has a kink; adaptive refinement must converge anyway.
  const double expected = 0.5 * (0.3 * 0.3 + 0.7 * 0.7);
  EXPECT_NEAR(AdaptiveSimpson([](double x) { return std::abs(x - 0.3); }, 0.0,
                              1.0, 1e-12),
              expected, 1e-9);
}

}  // namespace
}  // namespace stcomp
