// Shared conventions for all compression algorithms.
//
// Every algorithm maps a trajectory to the list of *kept* original indices,
// always sorted ascending and always including the first and the last index
// (for trajectories with >= 1 point). The approximation trajectory is then
// `trajectory.Subset(kept)`; error/compression accounting is uniform across
// algorithms (see error/evaluation.h).
//
// Each algorithm has one entry point (DESIGN.md §11),
// `void Foo(TrajectoryView, ..., [Workspace&,] IndexList& out)`: it clears
// and fills a caller-owned output and scratches in a caller-owned
// Workspace (workspace.h) when it needs scratch at all, so a caller that
// reuses both runs allocation-free once the buffers have grown. Kept()
// below returns a fresh result instead. `const Trajectory&` converts to
// TrajectoryView implicitly.

#ifndef STCOMP_ALGO_COMPRESSION_H_
#define STCOMP_ALGO_COMPRESSION_H_

#include <type_traits>
#include <utility>
#include <vector>

#include "stcomp/algo/workspace.h"
#include "stcomp/core/trajectory_view.h"

namespace stcomp::algo {

// Indices into the trajectory's samples retained by a compression run.
using IndexList = std::vector<int>;

// The trivial result: keep everything.
void KeepAll(TrajectoryView trajectory, IndexList& out);

// The indices whose `keep` flag is set, ascending; `kept_count` (the
// number of set flags) sizes the reserve. How the top-down family turns
// its per-point keep flags into a result.
void CollectKept(const std::vector<char>& keep, int kept_count,
                 IndexList& out);

// Returns true iff `kept` is sorted strictly ascending, within range, and
// contains the endpoints (vacuously true for empty trajectories). Used by
// tests and debug checks.
bool IsValidIndexList(TrajectoryView trajectory, const IndexList& kept);

// Compression rate in percent: (1 - kept/original) * 100; 0 when the
// trajectory has < 1 point.
double CompressionPercent(size_t original_points, size_t kept_points);

// The kept indices of `algorithm` on `trajectory`, in a fresh list:
// `Kept(TdTr, trajectory, 30.0)` runs TdTr(trajectory, 30.0, workspace,
// out) on a fresh Workspace, and `Kept(OpwTr, trajectory, 30.0)` runs
// OpwTr(trajectory, 30.0, out). An overloaded name does not compile here,
// which holds every algorithm to its one entry point.
template <typename Algorithm, typename... Args>
[[nodiscard]] IndexList Kept(Algorithm&& algorithm, TrajectoryView trajectory,
                             Args&&... args) {
  IndexList out;
  if constexpr (std::is_invocable_v<Algorithm&, TrajectoryView, Args&&...,
                                    Workspace&, IndexList&>) {
    Workspace workspace;
    algorithm(trajectory, std::forward<Args>(args)..., workspace, out);
  } else {
    algorithm(trajectory, std::forward<Args>(args)..., out);
  }
  return out;
}

}  // namespace stcomp::algo

#endif  // STCOMP_ALGO_COMPRESSION_H_
