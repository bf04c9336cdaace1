// Shared helpers for the stcomp test suite.

#ifndef STCOMP_TESTS_TEST_UTIL_H_
#define STCOMP_TESTS_TEST_UTIL_H_

#include <vector>

#include "stcomp/algo/registry.h"
#include "stcomp/common/check.h"
#include "stcomp/core/trajectory.h"
#include "stcomp/sim/random.h"

namespace stcomp::testutil {

// Runs a registered algorithm through its run_view entry point on a fresh
// Workspace and returns the kept indices.
inline algo::IndexList RunAlgorithm(const algo::AlgorithmInfo& info,
                                    TrajectoryView trajectory,
                                    const algo::AlgorithmParams& params) {
  algo::Workspace workspace;
  algo::IndexList kept;
  info.run_view(trajectory, params, workspace, kept);
  return kept;
}

// Builds a trajectory from {t, x, y} triples; aborts on invalid input
// (tests construct valid fixtures).
inline Trajectory Traj(std::vector<TimedPoint> points) {
  Result<Trajectory> result = Trajectory::FromPoints(std::move(points));
  STCOMP_CHECK(result.ok());
  return std::move(result).value();
}

// A straight constant-speed run: n points, dt seconds apart, vx/vy m/s.
inline Trajectory Line(int n, double dt, double vx, double vy,
                       double x0 = 0.0, double y0 = 0.0) {
  std::vector<TimedPoint> points;
  points.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    points.emplace_back(i * dt, x0 + vx * i * dt, y0 + vy * i * dt);
  }
  return Traj(std::move(points));
}

// A generic-position random walk: irregular timestamps, jittered positions.
// Deterministic in `seed`.
inline Trajectory RandomWalk(int n, uint64_t seed, double step_m = 50.0) {
  Rng rng(seed);
  std::vector<TimedPoint> points;
  points.reserve(static_cast<size_t>(n));
  double t = 0.0;
  Vec2 position{0.0, 0.0};
  for (int i = 0; i < n; ++i) {
    points.emplace_back(t, position);
    t += 1.0 + 9.0 * rng.NextDouble();
    position += {step_m * (rng.NextDouble() - 0.3),
                 step_m * (rng.NextDouble() - 0.5)};
  }
  return Traj(std::move(points));
}

// An x-monotone (hence simple, non-self-intersecting) random chain with
// irregular vertical swings; the guaranteed-correct regime for the
// Melkman-based path hull.
inline Trajectory MonotoneWalk(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<TimedPoint> points;
  points.reserve(static_cast<size_t>(n));
  double t = 0.0;
  double x = 0.0;
  double y = 0.0;
  for (int i = 0; i < n; ++i) {
    points.emplace_back(t, x, y);
    t += 1.0 + 9.0 * rng.NextDouble();
    x += 5.0 + 45.0 * rng.NextDouble();
    y += 80.0 * (rng.NextDouble() - 0.5);
  }
  return Traj(std::move(points));
}

// A drive with a long stop in the middle: spatially a straight line, but
// with strong speed variation — the regime where spatial and spatiotemporal
// criteria disagree most.
inline Trajectory LineWithStop(int n_before, int stop_samples, int n_after,
                               double dt = 10.0, double v = 15.0) {
  std::vector<TimedPoint> points;
  double t = 0.0;
  double x = 0.0;
  for (int i = 0; i < n_before; ++i) {
    points.emplace_back(t, x, 0.0);
    t += dt;
    x += v * dt;
  }
  for (int i = 0; i < stop_samples; ++i) {
    points.emplace_back(t, x, 0.0);
    t += dt;
  }
  for (int i = 0; i < n_after; ++i) {
    points.emplace_back(t, x, 0.0);
    t += dt;
    x += v * dt;
  }
  points.emplace_back(t, x, 0.0);
  return Traj(std::move(points));
}

}  // namespace stcomp::testutil

#endif  // STCOMP_TESTS_TEST_UTIL_H_
