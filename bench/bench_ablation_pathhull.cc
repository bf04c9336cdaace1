// Ablation: naive O(n^2)-worst-case Douglas-Peucker vs the Hershberger-
// Snoeyink path-hull variant. Outputs are asserted identical on every run
// (simple chains; see path_hull.h).
//
// Two workloads:
//  - "drive": a smooth x-monotone drive-like trace. Splits are balanced,
//    so the naive scan is already near-linear and the two are comparable.
//  - "sawtooth": alternating deviations with slowly growing amplitude.
//    Every split peels one point off the right end, so the naive scan
//    degenerates to O(n^2) while the path hull stays near-linear — the
//    asymmetric regime the 1992 speedup targets.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "stcomp/algo/douglas_peucker.h"
#include "stcomp/algo/path_hull.h"
#include "stcomp/common/check.h"
#include "stcomp/common/strings.h"
#include "stcomp/exp/table.h"
#include "stcomp/sim/random.h"

namespace {

using stcomp::Rng;
using stcomp::TimedPoint;
using stcomp::Trajectory;

// A long correlated walk (smooth heading drift) kept x-monotone, i.e.
// simple, so both implementations are guaranteed identical.
Trajectory DriveTrace(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<TimedPoint> points;
  points.reserve(static_cast<size_t>(n));
  double heading = 0.0;
  stcomp::Vec2 position{0.0, 0.0};
  for (int i = 0; i < n; ++i) {
    points.emplace_back(10.0 * i, position);
    heading = std::clamp(heading + rng.NextUniform(-0.25, 0.25), -1.0, 1.0);
    const double speed = 8.0 + 8.0 * rng.NextDouble();
    position += {speed * 10.0 * std::cos(heading),
                 speed * 10.0 * std::sin(heading)};
  }
  return Trajectory::FromPoints(std::move(points)).value();
}

// Alternating +-amplitude with a slow linear ramp: the farthest point of
// every range sits next to the range's right end, so naive DP peels one
// point per O(range) rescan. The tiny jitter keeps points in generic
// position; the near-collinear crests keep the hulls a handful of vertices.
Trajectory SawtoothTrace(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<TimedPoint> points;
  points.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double amplitude = 100.0 + 0.01 * i + 1e-4 * rng.NextDouble();
    const double y = (i % 2 == 0 ? 1.0 : -1.0) * amplitude;
    points.emplace_back(10.0 * i, 20.0 * i, y);
  }
  return Trajectory::FromPoints(std::move(points)).value();
}

template <typename F>
double TimeMs(const F& run, int repetitions) {
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < repetitions; ++r) {
    run();
  }
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count() /
         repetitions;
}

void RunWorkload(const char* name, Trajectory (*make)(int, uint64_t),
                 double epsilon, const std::vector<int>& sizes) {
  std::printf("workload: %s (epsilon = %.0f m)\n", name, epsilon);
  stcomp::Table table(
      {"points", "naive_ms", "hull_ms", "speedup", "kept_points"});
  for (int n : sizes) {
    const Trajectory trace = make(n, 42 + static_cast<uint64_t>(n));
    std::vector<int> naive_kept;
    std::vector<int> hull_kept;
    const int repetitions = n <= 2000 ? 5 : 2;
    const double naive_ms = TimeMs(
        [&] {
          naive_kept =
              stcomp::algo::Kept(stcomp::algo::DouglasPeucker, trace, epsilon);
        },
        repetitions);
    const double hull_ms = TimeMs(
        [&] {
          hull_kept = stcomp::algo::Kept(stcomp::algo::DouglasPeuckerHull,
                                         trace, epsilon);
        },
        repetitions);
    STCOMP_CHECK(naive_kept == hull_kept);
    table.AddRow({stcomp::StrFormat("%d", n),
                  stcomp::StrFormat("%.2f", naive_ms),
                  stcomp::StrFormat("%.2f", hull_ms),
                  stcomp::StrFormat("%.2fx", naive_ms / hull_ms),
                  stcomp::StrFormat("%zu", naive_kept.size())});
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace

int main() {
  std::printf(
      "Ablation: Douglas-Peucker, naive farthest-point scan vs Hershberger-"
      "Snoeyink path hulls\n(outputs asserted identical on every run)\n\n");
  RunWorkload("drive-like trace", DriveTrace, 50.0,
              {500, 1000, 2000, 5000, 10000, 20000, 50000});
  RunWorkload("adversarial sawtooth", SawtoothTrace, 90.0,
              {500, 1000, 2000, 5000, 10000, 20000, 50000});
  return 0;
}
