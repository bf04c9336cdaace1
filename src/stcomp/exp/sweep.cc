#include "stcomp/exp/sweep.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <utility>

#include "stcomp/obs/metrics.h"
#include "stcomp/obs/timer.h"

namespace stcomp {

// One sweep cell: run the algorithm's run_view over every trajectory,
// scratching in the caller's workspace, and average the evaluation
// metrics. Parameters are validated here so a bad threshold surfaces as a
// Status instead of tripping the registry wrapper's check.
Result<SweepPoint> EvaluateAveraged(const std::vector<Trajectory>& dataset,
                                    const algo::AlgorithmInfo& algorithm,
                                    const algo::AlgorithmParams& params,
                                    algo::Workspace& workspace,
                                    algo::IndexList& kept) {
  if (dataset.empty()) {
    return InvalidArgumentError("empty dataset");
  }
  STCOMP_RETURN_IF_ERROR(params.Validate());
  SweepPoint point;
  point.epsilon_m = params.epsilon_m;
  point.speed_threshold_mps = params.speed_threshold_mps;
  for (const Trajectory& trajectory : dataset) {
    algorithm.run_view(trajectory, params, workspace, kept);
    STCOMP_ASSIGN_OR_RETURN(const Evaluation evaluation,
                            Evaluate(trajectory, kept));
    point.compression_percent += evaluation.compression_percent;
    point.sync_error_mean_m += evaluation.sync_error_mean_m;
    point.sync_error_max_m += evaluation.sync_error_max_m;
    point.perp_error_mean_m += evaluation.perp_error_mean_m;
    point.area_error_m += evaluation.area_error_m;
  }
  const double n = static_cast<double>(dataset.size());
  point.compression_percent /= n;
  point.sync_error_mean_m /= n;
  point.sync_error_max_m /= n;
  point.perp_error_mean_m /= n;
  point.area_error_m /= n;
  return point;
}

std::vector<double> PaperThresholds() {
  std::vector<double> thresholds;
  for (double epsilon = 30.0; epsilon <= 100.0; epsilon += 5.0) {
    thresholds.push_back(epsilon);
  }
  return thresholds;
}

std::vector<double> PaperSpeedThresholds() { return {5.0, 15.0, 25.0}; }

Result<std::vector<SweepPoint>> SweepThresholds(
    const std::vector<Trajectory>& dataset, std::string_view name,
    const algo::AlgorithmParams& base, const std::vector<double>& thresholds) {
  STCOMP_ASSIGN_OR_RETURN(const algo::AlgorithmInfo* algorithm,
                          algo::FindAlgorithm(name));
  std::vector<SweepPoint> points;
  points.reserve(thresholds.size());
  algo::Workspace workspace;
  algo::IndexList kept;
  for (double epsilon : thresholds) {
    algo::AlgorithmParams params = base;
    params.epsilon_m = epsilon;
    STCOMP_ASSIGN_OR_RETURN(
        const SweepPoint point,
        EvaluateAveraged(dataset, *algorithm, params, workspace, kept));
    points.push_back(point);
  }
  return points;
}

Result<std::vector<std::vector<SweepPoint>>> SweepManyParallel(
    const std::vector<Trajectory>& dataset,
    const std::vector<SweepRequest>& requests, int num_threads) {
  // Resolve every name up front so a typo fails before any work runs.
  std::vector<const algo::AlgorithmInfo*> algorithms;
  algorithms.reserve(requests.size());
  for (const SweepRequest& request : requests) {
    STCOMP_ASSIGN_OR_RETURN(const algo::AlgorithmInfo* algorithm,
                            algo::FindAlgorithm(request.algorithm));
    algorithms.push_back(algorithm);
  }
  std::vector<std::vector<SweepPoint>> results(requests.size());
  // Flatten to (request, threshold) cells; each cell owns one result slot,
  // so workers never write the same memory and need no result lock.
  struct Cell {
    size_t request;
    size_t threshold;
  };
  std::vector<Cell> cells;
  for (size_t r = 0; r < requests.size(); ++r) {
    results[r].resize(requests[r].thresholds.size());
    for (size_t k = 0; k < requests[r].thresholds.size(); ++k) {
      cells.push_back({r, k});
    }
  }
#if STCOMP_METRICS_ENABLED
  auto& metrics = obs::MetricsRegistry::Global();
  obs::Histogram* const sweep_seconds = metrics.GetHistogram(
      "stcomp_exp_sweep_seconds", {}, obs::LatencyBucketsSeconds());
  std::vector<obs::Counter*> cell_counters;
  cell_counters.reserve(requests.size());
  for (const SweepRequest& request : requests) {
    cell_counters.push_back(
        metrics.GetCounter("stcomp_exp_sweep_cells_total",
                           {{"algorithm", request.algorithm}}));
  }
  obs::ScopedTimer sweep_timer(sweep_seconds);
#endif
  size_t thread_count =
      num_threads > 0 ? static_cast<size_t>(num_threads)
                      : static_cast<size_t>(std::max(
                            1u, std::thread::hardware_concurrency()));
  thread_count = std::max<size_t>(1, std::min(thread_count, cells.size()));
  std::atomic<size_t> next_cell{0};
  std::mutex error_mutex;
  Status first_error = Status::Ok();
  const auto worker = [&]() {
    // Per-thread scratch: grows to the largest trajectory once, then every
    // later cell on this thread runs allocation-free.
    algo::Workspace workspace;
    algo::IndexList kept;
    for (size_t c = next_cell.fetch_add(1, std::memory_order_relaxed);
         c < cells.size();
         c = next_cell.fetch_add(1, std::memory_order_relaxed)) {
      const Cell cell = cells[c];
      algo::AlgorithmParams params = requests[cell.request].base;
      params.epsilon_m = requests[cell.request].thresholds[cell.threshold];
      Result<SweepPoint> point = EvaluateAveraged(
          dataset, *algorithms[cell.request], params, workspace, kept);
      if (!point.ok()) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error.ok()) {
          first_error = point.status();
        }
        continue;
      }
      results[cell.request][cell.threshold] = *std::move(point);
      STCOMP_IF_METRICS(cell_counters[cell.request]->Increment());
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(thread_count - 1);
  for (size_t i = 0; i + 1 < thread_count; ++i) {
    threads.emplace_back(worker);
  }
  worker();  // The calling thread is the last worker.
  for (std::thread& thread : threads) {
    thread.join();
  }
  if (!first_error.ok()) {
    return first_error;
  }
  return results;
}

Result<std::vector<SweepPoint>> SweepThresholdsParallel(
    const std::vector<Trajectory>& dataset, std::string_view name,
    const algo::AlgorithmParams& base, const std::vector<double>& thresholds,
    int num_threads) {
  SweepRequest request;
  request.algorithm = std::string(name);
  request.base = base;
  request.thresholds = thresholds;
  STCOMP_ASSIGN_OR_RETURN(
      std::vector<std::vector<SweepPoint>> results,
      SweepManyParallel(dataset, {std::move(request)}, num_threads));
  return std::move(results.front());
}

}  // namespace stcomp
