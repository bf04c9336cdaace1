#include "stcomp/algo/time_ratio.h"

#include "stcomp/algo/douglas_peucker.h"
#include "stcomp/algo/opening_window.h"

namespace stcomp::algo {

void TdTr(TrajectoryView trajectory, double epsilon_m, Workspace& workspace,
          IndexList& out) {
  TopDown(trajectory, epsilon_m, SplitCriterion::kSynchronized, workspace,
          out);
}

void TdTrMaxPoints(TrajectoryView trajectory, int max_points,
                   Workspace& workspace, IndexList& out) {
  TopDownMaxPoints(trajectory, max_points, SplitCriterion::kSynchronized,
                   workspace, out);
}

void OpwTr(TrajectoryView trajectory, double epsilon_m, IndexList& out) {
  OpeningWindow(trajectory, epsilon_m, BreakPolicy::kNormal,
                WindowCriterion::kSynchronized, out);
}

}  // namespace stcomp::algo
