#include "stcomp/algo/sliding_window.h"

namespace stcomp::algo {

void SlidingWindow(TrajectoryView trajectory, double epsilon_m,
                   int max_window, IndexList& out) {
  OpeningWindow(trajectory, epsilon_m, BreakPolicy::kNormal,
                WindowCriterion::kPerpendicular, out, max_window);
}

IndexList SlidingWindow(TrajectoryView trajectory, double epsilon_m,
                        int max_window) {
  IndexList kept;
  SlidingWindow(trajectory, epsilon_m, max_window, kept);
  return kept;
}

void SlidingWindowTr(TrajectoryView trajectory, double epsilon_m,
                     int max_window, IndexList& out) {
  OpeningWindow(trajectory, epsilon_m, BreakPolicy::kNormal,
                WindowCriterion::kSynchronized, out, max_window);
}

IndexList SlidingWindowTr(TrajectoryView trajectory, double epsilon_m,
                          int max_window) {
  IndexList kept;
  SlidingWindowTr(trajectory, epsilon_m, max_window, kept);
  return kept;
}

}  // namespace stcomp::algo
