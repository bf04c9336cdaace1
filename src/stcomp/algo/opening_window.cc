#include "stcomp/algo/opening_window.h"

#include <cstddef>

#include "stcomp/common/check.h"
#include "stcomp/core/interpolation.h"
#include "stcomp/geom/kernels.h"

namespace stcomp::algo {

double PerpendicularWindowDistance(TrajectoryView trajectory, int anchor,
                                   int float_index, int i) {
  return PointToLineDistance(
      trajectory[static_cast<size_t>(i)].position,
      trajectory[static_cast<size_t>(anchor)].position,
      trajectory[static_cast<size_t>(float_index)].position);
}

double SynchronizedWindowDistance(TrajectoryView trajectory, int anchor,
                                  int float_index, int i) {
  return SynchronizedDistance(trajectory[static_cast<size_t>(anchor)],
                              trajectory[static_cast<size_t>(float_index)],
                              trajectory[static_cast<size_t>(i)]);
}

int FirstWindowViolation(TrajectoryView trajectory, int anchor,
                         int float_index, WindowCriterion criterion,
                         double epsilon) {
  // The window segment is built once; each interior point then costs one
  // per-point helper call, tested with strict `>` (a NaN never fires).
  const TimedPoint& a = trajectory[static_cast<size_t>(anchor)];
  const TimedPoint& f = trajectory[static_cast<size_t>(float_index)];
  if (criterion == WindowCriterion::kSynchronized) {
    const kernels::SedSegment seg{a.position.x, a.position.y, a.t,
                                  f.position.x, f.position.y, f.t};
    for (int i = anchor + 1; i < float_index; ++i) {
      const TimedPoint& p = trajectory[static_cast<size_t>(i)];
      if (kernels::SedDistancePoint(p.position.x, p.position.y, p.t, seg) >
          epsilon) {
        return i;
      }
    }
  } else {
    const kernels::LineSegment seg{a.position.x, a.position.y, f.position.x,
                                   f.position.y};
    for (int i = anchor + 1; i < float_index; ++i) {
      const TimedPoint& p = trajectory[static_cast<size_t>(i)];
      if (kernels::PerpDistancePoint(p.position.x, p.position.y, seg) >
          epsilon) {
        return i;
      }
    }
  }
  return -1;
}

void OpeningWindow(TrajectoryView trajectory, double epsilon,
                   BreakPolicy policy, WindowCriterion criterion,
                   IndexList& out, int max_window) {
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
    // Find the first interior violation of the current window. All interior
    // points must be re-examined whenever the float moves: for the
    // synchronized distance the approximation of *every* interior point
    // depends on the float (this is what makes the family O(N^2)).
    const int violation = FirstWindowViolation(trajectory, anchor,
                                               float_index, criterion,
                                               epsilon);
    int cut = 0;
    if (violation >= 0) {
      cut = policy == BreakPolicy::kNormal ? violation : float_index - 1;
    } else if (float_index - anchor >= max_window) {
      cut = float_index;  // Window cap reached without a violation.
    } else {
      ++float_index;
      continue;
    }
    // Every cut is > anchor: violation >= anchor + 1, float_index - 1 >=
    // anchor + 1 and float_index >= anchor + 2.
    out.push_back(cut);
    anchor = cut;
    float_index = anchor + 2;
  }
  if (out.back() != n - 1) {
    out.push_back(n - 1);
  }
}

void Nopw(TrajectoryView trajectory, double epsilon_m, IndexList& out) {
  OpeningWindow(trajectory, epsilon_m, BreakPolicy::kNormal,
                WindowCriterion::kPerpendicular, out);
}

IndexList Nopw(TrajectoryView trajectory, double epsilon_m) {
  IndexList kept;
  Nopw(trajectory, epsilon_m, kept);
  return kept;
}

void Bopw(TrajectoryView trajectory, double epsilon_m, IndexList& out) {
  OpeningWindow(trajectory, epsilon_m, BreakPolicy::kBefore,
                WindowCriterion::kPerpendicular, out);
}

IndexList Bopw(TrajectoryView trajectory, double epsilon_m) {
  IndexList kept;
  Bopw(trajectory, epsilon_m, kept);
  return kept;
}

}  // namespace stcomp::algo
