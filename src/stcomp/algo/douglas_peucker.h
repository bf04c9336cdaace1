// The Douglas-Peucker top-down algorithm (paper Sec. 2.1, [Douglas &
// Peucker 1973]) plus the top-down skeleton reused by the spatiotemporal
// TD-TR algorithm (time_ratio.h).

#ifndef STCOMP_ALGO_DOUGLAS_PEUCKER_H_
#define STCOMP_ALGO_DOUGLAS_PEUCKER_H_

#include "stcomp/algo/compression.h"
#include "stcomp/algo/workspace.h"

namespace stcomp::algo {

// The split criterion: the distance of an interior point from the
// candidate approximation of its range (first, last).
enum class SplitCriterion {
  kPerpendicular,  // NDP: distance to the line through first and last.
  kSynchronized,   // TD-TR: synchronized (time-ratio) distance.
};

// Top-down recursion: splits (iteratively, with an explicit stack) at the
// interior point of maximum `criterion` distance whenever that maximum
// exceeds `epsilon` (strictly); ties break to the lowest index, and a NaN
// distance never becomes the split. Keeps both endpoints. Allocation-free
// on a warmed workspace. Precondition (checked): epsilon >= 0.
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
                      SplitCriterion criterion, Workspace& workspace,
                      IndexList& out);

// The classic perpendicular-distance instance of TopDownMaxPoints.
void DouglasPeuckerMaxPoints(TrajectoryView trajectory, int max_points,
                             Workspace& workspace, IndexList& out);
IndexList DouglasPeuckerMaxPoints(TrajectoryView trajectory, int max_points);

}  // namespace stcomp::algo

#endif  // STCOMP_ALGO_DOUGLAS_PEUCKER_H_
