// Hershberger & Snoeyink's path-hull speedup of Douglas-Peucker (paper
// Sec. 2.1, [17], "Speeding up the Douglas-Peucker line-simplification
// algorithm", Proc. 5th SDH, 1992).
//
// Idea: the farthest point of a range from its anchor-float line is an
// extreme point, i.e. a convex-hull vertex, of the range. The range's hull
// is maintained as a *path hull* — two Melkman half-hulls grown outward
// from a middle tag point, with O(1)-undoable additions — so that when DP
// splits a range, the half containing the split reuses the existing hulls
// (undoing additions past the split point) and only the other, smaller,
// half is rebuilt. The build work then satisfies the "rebuild the smaller
// half" recurrence, giving O(n log n) total hull maintenance.
//
// Caveat inherited from Melkman's algorithm: the incremental hull is only
// guaranteed correct for *simple* (non-self-intersecting) chains.
// Consecutive duplicate positions (an object standing still) are handled;
// a trace that crosses or retraces itself may split at a different point
// than the naive scan and can, in principle, miss a violating point. Use
// DouglasPeucker() when the input may self-intersect; the ablation bench
// (bench_ablation_pathhull) demonstrates both the identical output on
// simple chains and the speedup.

#ifndef STCOMP_ALGO_PATH_HULL_H_
#define STCOMP_ALGO_PATH_HULL_H_

#include "stcomp/algo/compression.h"
#include "stcomp/algo/workspace.h"

namespace stcomp::algo {

// Drop-in replacement for DouglasPeucker(trajectory, epsilon_m); output is
// identical for simple chains in generic position.
// Precondition (checked): epsilon_m >= 0.
void DouglasPeuckerHull(TrajectoryView trajectory, double epsilon_m,
                        Workspace& workspace, IndexList& out);

}  // namespace stcomp::algo

#endif  // STCOMP_ALGO_PATH_HULL_H_
