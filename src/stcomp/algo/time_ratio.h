// The paper's time-ratio algorithm class (Sec. 3.2): the top-down and
// opening-window skeletons driven by the synchronized (time-ratio) distance
// instead of the perpendicular distance.

#ifndef STCOMP_ALGO_TIME_RATIO_H_
#define STCOMP_ALGO_TIME_RATIO_H_

#include "stcomp/algo/compression.h"
#include "stcomp/algo/workspace.h"

namespace stcomp::algo {

// TD-TR: Douglas-Peucker skeleton, synchronized-distance split criterion.
// Batch algorithm. Precondition (checked): epsilon_m >= 0.
void TdTr(TrajectoryView trajectory, double epsilon_m, Workspace& workspace,
          IndexList& out);
IndexList TdTr(TrajectoryView trajectory, double epsilon_m);

// TD-TR under a point budget instead of a distance threshold (best-first
// splitting on the largest synchronized deviation). Precondition
// (checked): max_points >= 2.
void TdTrMaxPoints(TrajectoryView trajectory, int max_points,
                   Workspace& workspace, IndexList& out);
IndexList TdTrMaxPoints(TrajectoryView trajectory, int max_points);

// OPW-TR: opening window, synchronized-distance criterion, normal (break at
// the violating point) policy, matching the SPT pseudocode's recursion at
// the violating index. Online-capable (see stream/). Precondition
// (checked): epsilon_m >= 0.
void OpwTr(TrajectoryView trajectory, double epsilon_m, IndexList& out);
IndexList OpwTr(TrajectoryView trajectory, double epsilon_m);

}  // namespace stcomp::algo

#endif  // STCOMP_ALGO_TIME_RATIO_H_
