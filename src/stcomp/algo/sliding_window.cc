#include "stcomp/algo/sliding_window.h"

namespace stcomp::algo {

void SlidingWindow(TrajectoryView trajectory, double epsilon_m,
                   int max_window, IndexList& out) {
  OpeningWindow(trajectory, epsilon_m, BreakPolicy::kNormal,
                WindowCriterion::kPerpendicular, out, max_window);
}

void SlidingWindowTr(TrajectoryView trajectory, double epsilon_m,
                     int max_window, IndexList& out) {
  OpeningWindow(trajectory, epsilon_m, BreakPolicy::kNormal,
                WindowCriterion::kSynchronized, out, max_window);
}

}  // namespace stcomp::algo
