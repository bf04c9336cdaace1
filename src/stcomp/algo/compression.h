// Shared conventions for all compression algorithms.
//
// Every algorithm maps a trajectory to the list of *kept* original indices,
// always sorted ascending and always including the first and the last index
// (for trajectories with >= 1 point). The approximation trajectory is then
// `trajectory.Subset(kept)`; error/compression accounting is uniform across
// algorithms (see error/evaluation.h).
//
// Each algorithm has two forms (DESIGN.md §11): a zero-copy entry point
// `void Foo(TrajectoryView, ..., IndexList& out)` that clears and fills a
// caller-owned output (allocation-free once the buffers have grown), and an
// allocating convenience wrapper `IndexList Foo(TrajectoryView, ...)`.
// `const Trajectory&` converts to TrajectoryView implicitly, so legacy call
// sites use either form unchanged.

#ifndef STCOMP_ALGO_COMPRESSION_H_
#define STCOMP_ALGO_COMPRESSION_H_

#include <vector>

#include "stcomp/core/trajectory_view.h"

namespace stcomp::algo {

// Indices into the trajectory's samples retained by a compression run.
using IndexList = std::vector<int>;

// The trivial result: keep everything.
void KeepAll(TrajectoryView trajectory, IndexList& out);
IndexList KeepAll(TrajectoryView trajectory);

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

}  // namespace stcomp::algo

#endif  // STCOMP_ALGO_COMPRESSION_H_
