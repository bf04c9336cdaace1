// Parameter sweeps: run one algorithm over a dataset at a sequence of
// thresholds and average the evaluation metrics — the exact procedure
// behind every figure in the paper's Sec. 4 ("fifteen different spatial
// threshold values ranging from 30 to 100 m ... averages over ten
// trajectories").
//
// Two drivers share one cell evaluator, EvaluateAveraged:
//   SweepThresholds          — serial, one reused workspace
//   SweepThresholdsParallel / SweepManyParallel — a std::thread pool over
//     (algorithm, threshold) cells, one workspace per thread. Cells are
//     independent (compression + error evaluation read the shared dataset
//     and write a private slot), so the parallel result is identical to
//     the serial one, in the same order.

#ifndef STCOMP_EXP_SWEEP_H_
#define STCOMP_EXP_SWEEP_H_

#include <string>
#include <string_view>
#include <vector>

#include "stcomp/algo/registry.h"
#include "stcomp/common/result.h"
#include "stcomp/core/trajectory.h"
#include "stcomp/error/evaluation.h"

namespace stcomp {

// Dataset-averaged metrics at one parameter setting.
struct SweepPoint {
  double epsilon_m = 0.0;
  double speed_threshold_mps = 0.0;
  double compression_percent = 0.0;
  double sync_error_mean_m = 0.0;
  double sync_error_max_m = 0.0;
  double perp_error_mean_m = 0.0;
  double area_error_m = 0.0;
};

// One algorithm's slice of a multi-algorithm sweep.
struct SweepRequest {
  std::string algorithm;            // Registry name, e.g. "td-tr".
  algo::AlgorithmParams base;       // Non-epsilon parameters.
  std::vector<double> thresholds;   // epsilon_m values to sweep.
};

// The paper's threshold grid: 30, 35, ..., 100 m (15 values).
std::vector<double> PaperThresholds();

// The paper's speed-difference thresholds: 5, 15, 25 m/s.
std::vector<double> PaperSpeedThresholds();

// Averages Evaluate() over `dataset` for one algorithm + parameter set,
// running the algorithm's run_view in the caller's `workspace` and `kept`
// (zero steady-state allocation when they are reused). kInvalidArgument on
// an empty dataset or invalid params.
Result<SweepPoint> EvaluateAveraged(const std::vector<Trajectory>& dataset,
                                    const algo::AlgorithmInfo& algorithm,
                                    const algo::AlgorithmParams& params,
                                    algo::Workspace& workspace,
                                    algo::IndexList& kept);

// Runs EvaluateAveraged for every epsilon in `thresholds` (other params
// from `base`). `name` is looked up in the registry.
Result<std::vector<SweepPoint>> SweepThresholds(
    const std::vector<Trajectory>& dataset, std::string_view name,
    const algo::AlgorithmParams& base, const std::vector<double>& thresholds);

// Parallel version of SweepThresholds: identical results, computed by
// `num_threads` workers (0 = hardware concurrency) over the threshold
// cells. Observability: records stcomp_exp_sweep_seconds and, per cell,
// stcomp_exp_sweep_cells_total{algorithm=...}.
Result<std::vector<SweepPoint>> SweepThresholdsParallel(
    const std::vector<Trajectory>& dataset, std::string_view name,
    const algo::AlgorithmParams& base, const std::vector<double>& thresholds,
    int num_threads = 0);

// Sweeps several algorithms in one thread pool; result[r][k] is request
// r's SweepPoint at thresholds[k] — exactly what SweepThresholds(r) would
// return. The first failing cell's error is returned (remaining cells are
// still drained); name lookup errors are reported before any work starts.
Result<std::vector<std::vector<SweepPoint>>> SweepManyParallel(
    const std::vector<Trajectory>& dataset,
    const std::vector<SweepRequest>& requests, int num_threads = 0);

}  // namespace stcomp

#endif  // STCOMP_EXP_SWEEP_H_
