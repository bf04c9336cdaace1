// The Douglas-Peucker top-down algorithm (paper Sec. 2.1, [Douglas &
// Peucker 1973]) plus the generic top-down skeleton reused by the
// spatiotemporal TD-TR algorithm (time_ratio.h).

#ifndef STCOMP_ALGO_DOUGLAS_PEUCKER_H_
#define STCOMP_ALGO_DOUGLAS_PEUCKER_H_

#include <functional>

#include "stcomp/algo/compression.h"
#include "stcomp/algo/workspace.h"

namespace stcomp::algo {

// Distance of interior point `i` from the candidate approximation of the
// range (first, last): perpendicular distance for classic DP, synchronized
// (time-ratio) distance for TD-TR.
using SplitDistanceFn =
    std::function<double(TrajectoryView, int first, int last, int i)>;

// Perpendicular distance from point `i` to the line through points `first`
// and `last` (the classic DP criterion; the paper's NDP).
double PerpendicularSplitDistance(TrajectoryView trajectory, int first,
                                  int last, int i);

// The built-in split criteria as an enum: these take the batched-kernel
// whole-range path (geom/kernels.h) — one batched argmax per range over
// the workspace's SoA repack — and produce bit-identical output to the
// per-point SplitDistanceFn forms.
enum class SplitCriterion {
  kPerpendicular,  // NDP (classic Douglas-Peucker)
  kSynchronized,   // TD-TR
};

// Generic top-down recursion: splits (iteratively, with an explicit stack)
// at the interior point of maximum `distance` whenever that maximum exceeds
// `epsilon`; ties break to the lowest index. Keeps both endpoints.
// Precondition (checked): epsilon >= 0.
void TopDown(TrajectoryView trajectory, double epsilon,
             const SplitDistanceFn& distance, Workspace& workspace,
             IndexList& out);
IndexList TopDown(TrajectoryView trajectory, double epsilon,
                  const SplitDistanceFn& distance);

// Batched-kernel fast path for the built-in criteria. Allocation-free
// on a warmed workspace.
void TopDown(TrajectoryView trajectory, double epsilon,
             SplitCriterion criterion, Workspace& workspace, IndexList& out);

// Classic Douglas-Peucker with perpendicular-distance threshold `epsilon_m`
// ("NDP" in the paper's experiments).
void DouglasPeucker(TrajectoryView trajectory, double epsilon_m,
                    Workspace& workspace, IndexList& out);
IndexList DouglasPeucker(TrajectoryView trajectory, double epsilon_m);

// Best-first top-down refinement halting on output size instead of a
// distance threshold (paper Sec. 2, halting condition "the number of data
// points exceeds a user-defined value"). Always keeps the two endpoints,
// so the effective minimum is 2. Precondition (checked): max_points >= 2.
void TopDownMaxPoints(TrajectoryView trajectory, int max_points,
                      const SplitDistanceFn& distance, Workspace& workspace,
                      IndexList& out);
IndexList TopDownMaxPoints(TrajectoryView trajectory, int max_points,
                           const SplitDistanceFn& distance);

// Batched-kernel fast path for the built-in criteria.
void TopDownMaxPoints(TrajectoryView trajectory, int max_points,
                      SplitCriterion criterion, Workspace& workspace,
                      IndexList& out);

// The classic perpendicular-distance instance of TopDownMaxPoints.
void DouglasPeuckerMaxPoints(TrajectoryView trajectory, int max_points,
                             Workspace& workspace, IndexList& out);
IndexList DouglasPeuckerMaxPoints(TrajectoryView trajectory, int max_points);

}  // namespace stcomp::algo

#endif  // STCOMP_ALGO_DOUGLAS_PEUCKER_H_
