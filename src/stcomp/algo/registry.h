// A uniform, name-addressable view over every compression algorithm, used
// by the experiment harness, examples and CLI tools.

#ifndef STCOMP_ALGO_REGISTRY_H_
#define STCOMP_ALGO_REGISTRY_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "stcomp/algo/compression.h"
#include "stcomp/algo/workspace.h"
#include "stcomp/common/result.h"

namespace stcomp::algo {

// Union of the tunables across all algorithms; each algorithm reads only
// the fields it documents.
struct AlgorithmParams {
  // Distance threshold (metres): every algorithm with a distance criterion.
  double epsilon_m = 50.0;
  // Speed-difference threshold (m/s): OPW-SP, TD-SP.
  double speed_threshold_mps = 15.0;
  // Keep every i-th point: uniform sampling.
  int keep_every = 2;
  // Time bucket (seconds): temporal sampling.
  double interval_s = 30.0;
  // Minimum heading change (radians): angular change.
  double min_heading_change_rad = 0.1;
  // Window cap (points): sliding window.
  int max_window = 32;

  // kInvalidArgument (naming the offending field) when any tunable is out
  // of its documented domain: epsilon_m < 0 or NaN, speed_threshold_mps < 0
  // or NaN, keep_every < 1, interval_s <= 0 or NaN, min_heading_change_rad
  // outside [0, pi], max_window < 2. Checked by the registry run wrappers
  // and the sweep/CLI entry points, so a bad parameter fails loudly at the
  // boundary instead of tripping a deep precondition (or silently
  // misbehaving).
  Status Validate() const;
};

// The one entry point of every algorithm (DESIGN.md §11): reads a
// non-owning view, scratches in the caller's workspace and fills a
// caller-owned output. Reusing (workspace, out) across calls makes the hot
// path allocation-free.
using AlgorithmViewFn = std::function<void(
    TrajectoryView, const AlgorithmParams&, Workspace&, IndexList&)>;

struct AlgorithmInfo {
  std::string name;         // Stable identifier, e.g. "td-tr".
  std::string description;  // One line for --help output.
  bool online;              // Usable on unbounded streams.
  bool spatiotemporal;      // Uses the temporal dimension in its criterion.
  AlgorithmViewFn run_view;
};

// All registered algorithms, in presentation order (spatial baselines
// first, then the paper's spatiotemporal contributions).
const std::vector<AlgorithmInfo>& AllAlgorithms();

// Lookup by name; kNotFound lists valid names in the message.
Result<const AlgorithmInfo*> FindAlgorithm(std::string_view name);

}  // namespace stcomp::algo

#endif  // STCOMP_ALGO_REGISTRY_H_
