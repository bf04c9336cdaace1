#include "stcomp/algo/time_ratio.h"

#include "stcomp/algo/douglas_peucker.h"
#include "stcomp/algo/opening_window.h"

namespace stcomp::algo {

void TdTr(TrajectoryView trajectory, double epsilon_m, Workspace& workspace,
          IndexList& out) {
  TopDown(trajectory, epsilon_m, SplitCriterion::kSynchronized, workspace,
          out);
}

IndexList TdTr(TrajectoryView trajectory, double epsilon_m) {
  Workspace workspace;
  IndexList kept;
  TdTr(trajectory, epsilon_m, workspace, kept);
  return kept;
}

void TdTrMaxPoints(TrajectoryView trajectory, int max_points,
                   Workspace& workspace, IndexList& out) {
  TopDownMaxPoints(trajectory, max_points, SplitCriterion::kSynchronized,
                   workspace, out);
}

IndexList TdTrMaxPoints(TrajectoryView trajectory, int max_points) {
  Workspace workspace;
  IndexList kept;
  TdTrMaxPoints(trajectory, max_points, workspace, kept);
  return kept;
}

void OpwTr(TrajectoryView trajectory, double epsilon_m, IndexList& out) {
  OpeningWindow(trajectory, epsilon_m, BreakPolicy::kNormal,
                WindowCriterion::kSynchronized, out);
}

IndexList OpwTr(TrajectoryView trajectory, double epsilon_m) {
  IndexList kept;
  OpwTr(trajectory, epsilon_m, kept);
  return kept;
}

}  // namespace stcomp::algo
