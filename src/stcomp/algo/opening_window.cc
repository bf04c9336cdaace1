#include "stcomp/algo/opening_window.h"

#include <cstddef>

#include "stcomp/common/check.h"
#include "stcomp/core/interpolation.h"
#include "stcomp/core/trajectory_view_soa.h"
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

void OpeningWindow(TrajectoryView trajectory, double epsilon,
                   BreakPolicy policy, const WindowDistanceFn& distance,
                   IndexList& out) {
  STCOMP_CHECK(epsilon >= 0.0);
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
    int violation = -1;
    for (int i = anchor + 1; i < float_index; ++i) {
      if (distance(trajectory, anchor, float_index, i) > epsilon) {
        violation = i;
        break;
      }
    }
    if (violation < 0) {
      ++float_index;
      continue;
    }
    const int cut =
        policy == BreakPolicy::kNormal ? violation : float_index - 1;
    // Both choices are > anchor: violation >= anchor + 1 and
    // float_index - 1 >= anchor + 1.
    out.push_back(cut);
    anchor = cut;
    float_index = anchor + 2;
  }
  if (out.back() != n - 1) {
    out.push_back(n - 1);
  }
}

IndexList OpeningWindow(TrajectoryView trajectory, double epsilon,
                        BreakPolicy policy, const WindowDistanceFn& distance) {
  IndexList kept;
  OpeningWindow(trajectory, epsilon, policy, distance, kept);
  return kept;
}

void OpeningWindow(TrajectoryView trajectory, double epsilon,
                   BreakPolicy policy, WindowCriterion criterion,
                   Workspace& workspace, IndexList& out) {
  STCOMP_CHECK(epsilon >= 0.0);
  const int n = static_cast<int>(trajectory.size());
  if (n <= 2) {
    KeepAll(trajectory, out);
    return;
  }
  // Kernelised form of the generic loop above: the whole interior of the
  // current window is scanned by one batched first-violation call per
  // float advance. Same O(N^2) scan structure (every interior point must
  // be re-examined whenever the float moves), but each scan is one tight
  // loop over the SoA columns. The per-point formulas in geom/kernels.h
  // are the ones PerpendicularWindowDistance / SynchronizedWindowDistance
  // route through, so the kept set is bit-identical to the generic path.
  const TrajectoryViewSoA soa =
      TrajectoryViewSoA::Repack(trajectory, workspace.soa);
  const double* x = soa.x();
  const double* y = soa.y();
  const double* t = soa.t();
  out.clear();
  out.push_back(0);
  int anchor = 0;
  int float_index = anchor + 2;
  while (float_index < n) {
    const size_t base = static_cast<size_t>(anchor) + 1;
    const size_t count = static_cast<size_t>(float_index - anchor - 1);
    const size_t f = static_cast<size_t>(float_index);
    const size_t a = static_cast<size_t>(anchor);
    std::ptrdiff_t hit;
    if (criterion == WindowCriterion::kSynchronized) {
      const kernels::SedSegment seg{x[a], y[a], t[a], x[f], y[f], t[f]};
      hit = kernels::SedFirstAbove(x + base, y + base, t + base, count, seg,
                                   epsilon);
    } else {
      const kernels::LineSegment seg{x[a], y[a], x[f], y[f]};
      hit = kernels::PerpFirstAbove(x + base, y + base, count, seg, epsilon);
    }
    if (hit < 0) {
      ++float_index;
      continue;
    }
    const int violation = anchor + 1 + static_cast<int>(hit);
    const int cut =
        policy == BreakPolicy::kNormal ? violation : float_index - 1;
    out.push_back(cut);
    anchor = cut;
    float_index = anchor + 2;
  }
  if (out.back() != n - 1) {
    out.push_back(n - 1);
  }
}

void Nopw(TrajectoryView trajectory, double epsilon_m, Workspace& workspace,
          IndexList& out) {
  OpeningWindow(trajectory, epsilon_m, BreakPolicy::kNormal,
                WindowCriterion::kPerpendicular, workspace, out);
}

void Nopw(TrajectoryView trajectory, double epsilon_m, IndexList& out) {
  Workspace workspace;
  Nopw(trajectory, epsilon_m, workspace, out);
}

IndexList Nopw(TrajectoryView trajectory, double epsilon_m) {
  IndexList kept;
  Nopw(trajectory, epsilon_m, kept);
  return kept;
}

void Bopw(TrajectoryView trajectory, double epsilon_m, Workspace& workspace,
          IndexList& out) {
  OpeningWindow(trajectory, epsilon_m, BreakPolicy::kBefore,
                WindowCriterion::kPerpendicular, workspace, out);
}

void Bopw(TrajectoryView trajectory, double epsilon_m, IndexList& out) {
  Workspace workspace;
  Bopw(trajectory, epsilon_m, workspace, out);
}

IndexList Bopw(TrajectoryView trajectory, double epsilon_m) {
  IndexList kept;
  Bopw(trajectory, epsilon_m, kept);
  return kept;
}

}  // namespace stcomp::algo
