#include "stcomp/algo/registry.h"

#include "stcomp/algo/angular.h"
#include "stcomp/algo/bottom_up.h"
#include "stcomp/algo/douglas_peucker.h"
#include "stcomp/algo/opening_window.h"
#include "stcomp/algo/path_hull.h"
#include "stcomp/algo/perpendicular.h"
#include "stcomp/algo/radial_distance.h"
#include "stcomp/algo/sampling.h"
#include "stcomp/algo/reumann_witkam.h"
#include "stcomp/algo/sliding_window.h"
#include "stcomp/algo/spatiotemporal.h"
#include "stcomp/algo/squish.h"
#include "stcomp/algo/time_ratio.h"
#include "stcomp/algo/visvalingam.h"
#include "stcomp/common/check.h"
#include "stcomp/common/strings.h"
#include "stcomp/obs/metrics.h"
#include "stcomp/obs/timer.h"

namespace stcomp::algo {

Status AlgorithmParams::Validate() const {
  // The negated comparisons also reject NaN.
  if (!(epsilon_m >= 0.0)) {
    return InvalidArgumentError(
        StrFormat("epsilon_m must be >= 0, got %f", epsilon_m));
  }
  if (!(speed_threshold_mps >= 0.0)) {
    return InvalidArgumentError(StrFormat(
        "speed_threshold_mps must be >= 0, got %f", speed_threshold_mps));
  }
  if (keep_every < 1) {
    return InvalidArgumentError(
        StrFormat("keep_every must be >= 1, got %d", keep_every));
  }
  if (!(interval_s > 0.0)) {
    return InvalidArgumentError(
        StrFormat("interval_s must be > 0, got %f", interval_s));
  }
  constexpr double kPi = 3.14159265358979323846;
  if (!(min_heading_change_rad >= 0.0 && min_heading_change_rad <= kPi)) {
    return InvalidArgumentError(
        StrFormat("min_heading_change_rad must be in [0, pi], got %f",
                  min_heading_change_rad));
  }
  if (max_window < 2) {
    return InvalidArgumentError(
        StrFormat("max_window must be >= 2, got %d", max_window));
  }
  return Status::Ok();
}

namespace {

// Wraps an algorithm so every invocation through the registry validates
// its parameters and records its run count, wall time, input size and
// compression ratio under {algorithm=<name>} labels — the experiment
// harness, examples and fleet ingestion all get per-algorithm
// observability for free. Metric pointers are resolved once at
// registration; a run adds one exact timer and a few relaxed atomics
// (measured by bench_obs_overhead), so the wrapper is safe under the
// parallel sweep. With STCOMP_DISABLE_METRICS only the validation stays.
AlgorithmViewFn Instrumented(const std::string& name, AlgorithmViewFn fn) {
#if STCOMP_METRICS_ENABLED
  auto& registry = obs::MetricsRegistry::Global();
  const obs::LabelSet labels{{"algorithm", name}};
  obs::Counter* const runs =
      registry.GetCounter("stcomp_algo_runs_total", labels);
  obs::Counter* const points_in =
      registry.GetCounter("stcomp_algo_points_in_total", labels);
  obs::Counter* const points_kept =
      registry.GetCounter("stcomp_algo_points_kept_total", labels);
  obs::Histogram* const run_seconds = registry.GetHistogram(
      "stcomp_algo_run_seconds", labels, obs::LatencyBucketsSeconds());
  obs::Histogram* const ratio = registry.GetHistogram(
      "stcomp_algo_compression_ratio", labels, obs::RatioBuckets());
  obs::Histogram* const input_points = registry.GetHistogram(
      "stcomp_algo_input_points", labels, obs::SizeBuckets());
  return [=, fn = std::move(fn)](TrajectoryView trajectory,
                                 const AlgorithmParams& params,
                                 Workspace& workspace, IndexList& out) {
    STCOMP_CHECK_OK(params.Validate());
    {
      obs::ScopedTimer timer(run_seconds);
      fn(trajectory, params, workspace, out);
    }
    runs->Increment();
    points_in->Increment(trajectory.size());
    points_kept->Increment(out.size());
    input_points->Observe(static_cast<double>(trajectory.size()));
    if (!trajectory.empty()) {
      ratio->Observe(static_cast<double>(out.size()) /
                     static_cast<double>(trajectory.size()));
    }
  };
#else
  (void)name;
  return [fn = std::move(fn)](TrajectoryView trajectory,
                              const AlgorithmParams& params,
                              Workspace& workspace, IndexList& out) {
    STCOMP_CHECK_OK(params.Validate());
    fn(trajectory, params, workspace, out);
  };
#endif
}

std::vector<AlgorithmInfo> MakeRegistry() {
  std::vector<AlgorithmInfo> algorithms;
  const auto add = [&algorithms](std::string name, std::string description,
                                 bool online, bool spatiotemporal,
                                 AlgorithmViewFn run_view) {
    AlgorithmInfo info;
    info.name = std::move(name);
    info.description = std::move(description);
    info.online = online;
    info.spatiotemporal = spatiotemporal;
    info.run_view = std::move(run_view);
    algorithms.push_back(std::move(info));
  };
  add("uniform", "keep every i-th point [Tobler]", true, false,
      [](TrajectoryView t, const AlgorithmParams& p, Workspace&,
         IndexList& out) { UniformSampling(t, p.keep_every, out); });
  add("temporal", "keep one point per time bucket", true, true,
      [](TrajectoryView t, const AlgorithmParams& p, Workspace&,
         IndexList& out) { TemporalSampling(t, p.interval_s, out); });
  add("radial", "drop neighbours closer than epsilon", true, false,
      [](TrajectoryView t, const AlgorithmParams& p, Workspace&,
         IndexList& out) { RadialDistance(t, p.epsilon_m, out); });
  add("perpendicular", "Jenks three-point perpendicular test", true, false,
      [](TrajectoryView t, const AlgorithmParams& p, Workspace&,
         IndexList& out) { PerpendicularDistance(t, p.epsilon_m, out); });
  add("angular", "Jenks heading-change test", true, false,
      [](TrajectoryView t, const AlgorithmParams& p, Workspace&,
         IndexList& out) {
        AngularChange(t, p.min_heading_change_rad, out);
      });
  add("reumann-witkam", "strip-based single pass [Reumann-Witkam]", true,
      false,
      [](TrajectoryView t, const AlgorithmParams& p, Workspace&,
         IndexList& out) { ReumannWitkam(t, p.epsilon_m, out); });
  add("visvalingam", "least-effective-area removal (batch)", false, false,
      [](TrajectoryView t, const AlgorithmParams& p, Workspace& ws,
         IndexList& out) {
        // Treat epsilon as a length scale: area threshold eps^2 / 2.
        Visvalingam(t, 0.5 * p.epsilon_m * p.epsilon_m, ws, out);
      });
  add("ndp", "Douglas-Peucker, perpendicular distance (batch)", false, false,
      [](TrajectoryView t, const AlgorithmParams& p, Workspace& ws,
         IndexList& out) { DouglasPeucker(t, p.epsilon_m, ws, out); });
  add("ndp-hull", "Douglas-Peucker via convex-hull farthest queries", false,
      false,
      [](TrajectoryView t, const AlgorithmParams& p, Workspace& ws,
         IndexList& out) { DouglasPeuckerHull(t, p.epsilon_m, ws, out); });
  add("sliding", "capped opening window, perpendicular", true, false,
      [](TrajectoryView t, const AlgorithmParams& p, Workspace&,
         IndexList& out) {
        SlidingWindow(t, p.epsilon_m, p.max_window, out);
      });
  add("bottom-up", "greedy cheapest-removal (batch), perpendicular", false,
      false,
      [](TrajectoryView t, const AlgorithmParams& p, Workspace& ws,
         IndexList& out) {
        BottomUp(t, p.epsilon_m, BottomUpMetric::kPerpendicular, ws, out);
      });
  add("nopw", "opening window, break at violating point", true, false,
      [](TrajectoryView t, const AlgorithmParams& p, Workspace&,
         IndexList& out) { Nopw(t, p.epsilon_m, out); });
  add("bopw", "opening window, break before the float", true, false,
      [](TrajectoryView t, const AlgorithmParams& p, Workspace&,
         IndexList& out) { Bopw(t, p.epsilon_m, out); });
  add("td-tr", "top-down time-ratio (paper Sec. 3.2, batch)", false, true,
      [](TrajectoryView t, const AlgorithmParams& p, Workspace& ws,
         IndexList& out) { TdTr(t, p.epsilon_m, ws, out); });
  add("opw-tr", "opening-window time-ratio (paper Sec. 3.2)", true, true,
      [](TrajectoryView t, const AlgorithmParams& p, Workspace&,
         IndexList& out) { OpwTr(t, p.epsilon_m, out); });
  add("opw-sp", "opening-window spatiotemporal, SED + speed (paper SPT)",
      true, true,
      [](TrajectoryView t, const AlgorithmParams& p, Workspace& ws,
         IndexList& out) {
        OpwSp(t, p.epsilon_m, p.speed_threshold_mps, ws, out);
      });
  add("td-sp", "top-down spatiotemporal, SED + speed (batch)", false, true,
      [](TrajectoryView t, const AlgorithmParams& p, Workspace& ws,
         IndexList& out) {
        TdSp(t, p.epsilon_m, p.speed_threshold_mps, ws, out);
      });
  add("bottom-up-tr", "greedy cheapest-removal, synchronized distance",
      false, true,
      [](TrajectoryView t, const AlgorithmParams& p, Workspace& ws,
         IndexList& out) {
        BottomUp(t, p.epsilon_m, BottomUpMetric::kSynchronized, ws, out);
      });
  add("visvalingam-tr", "least 3-D (x, y, v*t) area removal", false, true,
      [](TrajectoryView t, const AlgorithmParams& p, Workspace& ws,
         IndexList& out) {
        VisvalingamTr(t, 0.5 * p.epsilon_m * p.epsilon_m,
                      /*time_weight_mps=*/10.0, ws, out);
      });
  add("squish-e", "SQUISH-E: priority-queue SED, error-bounded [Muckell]",
      true, true,
      [](TrajectoryView t, const AlgorithmParams& p, Workspace&,
         IndexList& out) { SquishE(t, p.epsilon_m, out); });
  for (AlgorithmInfo& info : algorithms) {
    info.run_view = Instrumented(info.name, std::move(info.run_view));
  }
  return algorithms;
}

}  // namespace

const std::vector<AlgorithmInfo>& AllAlgorithms() {
  // Function-local static: initialised on first use, never destroyed order
  // problems (registry lives for the program's lifetime).
  static const std::vector<AlgorithmInfo>* const kRegistry =
      new std::vector<AlgorithmInfo>(MakeRegistry());
  return *kRegistry;
}

Result<const AlgorithmInfo*> FindAlgorithm(std::string_view name) {
  for (const AlgorithmInfo& info : AllAlgorithms()) {
    if (info.name == name) {
      return &info;
    }
  }
  std::string known;
  for (const AlgorithmInfo& info : AllAlgorithms()) {
    if (!known.empty()) {
      known += ", ";
    }
    known += info.name;
  }
  return NotFoundError("unknown algorithm '" + std::string(name) +
                       "'; known: " + known);
}

}  // namespace stcomp::algo
