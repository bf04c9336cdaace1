#include "stcomp/algo/sliding_window.h"

#include "stcomp/common/check.h"

namespace stcomp::algo {

namespace {

void SlidingWindowImpl(TrajectoryView trajectory, double epsilon,
                       int max_window, WindowCriterion criterion,
                       IndexList& out) {
  STCOMP_CHECK(epsilon >= 0.0);
  STCOMP_CHECK(max_window >= 2);
  const int n = static_cast<int>(trajectory.size());
  if (n <= 2) {
    KeepAll(trajectory, out);
    return;
  }
  out.clear();
  out.push_back(0);
  int anchor = 0;
  int float_index = anchor + 2;
  while (float_index < n) {
    const int violation = FirstWindowViolation(trajectory, anchor,
                                               float_index, criterion,
                                               epsilon);
    if (violation >= 0) {
      out.push_back(violation);
      anchor = violation;
      float_index = anchor + 2;
      continue;
    }
    if (float_index - anchor >= max_window) {
      // Window cap reached without violation: commit the segment.
      out.push_back(float_index);
      anchor = float_index;
      float_index = anchor + 2;
      continue;
    }
    ++float_index;
  }
  if (out.back() != n - 1) {
    out.push_back(n - 1);
  }
}

}  // namespace

void SlidingWindow(TrajectoryView trajectory, double epsilon_m,
                   int max_window, IndexList& out) {
  SlidingWindowImpl(trajectory, epsilon_m, max_window,
                    WindowCriterion::kPerpendicular, out);
}

IndexList SlidingWindow(TrajectoryView trajectory, double epsilon_m,
                        int max_window) {
  IndexList kept;
  SlidingWindow(trajectory, epsilon_m, max_window, kept);
  return kept;
}

void SlidingWindowTr(TrajectoryView trajectory, double epsilon_m,
                     int max_window, IndexList& out) {
  SlidingWindowImpl(trajectory, epsilon_m, max_window,
                    WindowCriterion::kSynchronized, out);
}

IndexList SlidingWindowTr(TrajectoryView trajectory, double epsilon_m,
                          int max_window) {
  IndexList kept;
  SlidingWindowTr(trajectory, epsilon_m, max_window, kept);
  return kept;
}

}  // namespace stcomp::algo
