#include "stcomp/algo/spatiotemporal.h"

#include <cmath>
#include <cstddef>
#include <vector>

#include "stcomp/algo/douglas_peucker.h"
#include "stcomp/common/check.h"
#include "stcomp/geom/kernels.h"

namespace stcomp::algo {

namespace {

// Fills `jumps` with SpeedJump(i) at every interior i (0 at the endpoints,
// which the criteria never test), once per run, so the SP scans read one
// value per candidate instead of recomputing two norms.
void FillSpeedJumps(TrajectoryView trajectory, std::vector<double>& jumps) {
  const int n = static_cast<int>(trajectory.size());
  jumps.assign(static_cast<size_t>(n), 0.0);
  for (int i = 1; i + 1 < n; ++i) {
    jumps[static_cast<size_t>(i)] = SpeedJump(trajectory, i);
  }
}

}  // namespace

double SpeedJump(TrajectoryView trajectory, int i) {
  STCOMP_CHECK(i > 0 && static_cast<size_t>(i) + 1 < trajectory.size());
  const double before = trajectory.SegmentSpeed(static_cast<size_t>(i) - 1);
  const double after = trajectory.SegmentSpeed(static_cast<size_t>(i));
  return std::abs(after - before);
}

void OpwSp(TrajectoryView trajectory, double max_dist_error_m,
           double max_speed_error_mps, Workspace& workspace, IndexList& out) {
  STCOMP_CHECK(max_dist_error_m >= 0.0);
  STCOMP_CHECK(max_speed_error_mps >= 0.0);
  const int n = static_cast<int>(trajectory.size());
  if (n <= 2) {
    KeepAll(trajectory, out);
    return;
  }
  // Iterative form of the paper's recursive SPT procedure: the recursion
  // SPT(s[i..]) after a violation at i is exactly "cut at i, re-anchor".
  FillSpeedJumps(trajectory, workspace.jumps);
  const std::vector<double>& jumps = workspace.jumps;
  out.clear();
  out.push_back(0);
  int anchor = 0;
  int float_index = anchor + 2;
  while (float_index < n) {
    // One scan per window: the first interior point whose SED or speed
    // jump exceeds its threshold (strict `>`, so a NaN never fires).
    const TimedPoint& a = trajectory[static_cast<size_t>(anchor)];
    const TimedPoint& f = trajectory[static_cast<size_t>(float_index)];
    const kernels::SedSegment seg{a.position.x, a.position.y, a.t,
                                  f.position.x, f.position.y, f.t};
    int violation = -1;
    for (int i = anchor + 1; i < float_index; ++i) {
      const TimedPoint& p = trajectory[static_cast<size_t>(i)];
      if (kernels::SedDistancePoint(p.position.x, p.position.y, p.t, seg) >
              max_dist_error_m ||
          jumps[static_cast<size_t>(i)] > max_speed_error_mps) {
        violation = i;
        break;
      }
    }
    if (violation < 0) {
      ++float_index;
      continue;
    }
    out.push_back(violation);
    anchor = violation;
    float_index = anchor + 2;
  }
  if (out.back() != n - 1) {
    out.push_back(n - 1);
  }
}

void OpwSp(TrajectoryView trajectory, double max_dist_error_m,
           double max_speed_error_mps, IndexList& out) {
  Workspace workspace;
  OpwSp(trajectory, max_dist_error_m, max_speed_error_mps, workspace, out);
}

IndexList OpwSp(TrajectoryView trajectory, double max_dist_error_m,
                double max_speed_error_mps) {
  IndexList kept;
  OpwSp(trajectory, max_dist_error_m, max_speed_error_mps, kept);
  return kept;
}

void TdSp(TrajectoryView trajectory, double max_dist_error_m,
          double max_speed_error_mps, Workspace& workspace, IndexList& out) {
  STCOMP_CHECK(max_dist_error_m >= 0.0);
  STCOMP_CHECK(max_speed_error_mps >= 0.0);
  FillSpeedJumps(trajectory, workspace.jumps);
  const std::vector<double>& jumps = workspace.jumps;
  RunTopDown(
      trajectory,
      [&](int first, int last) {
        // One pass takes both maxima over the interior of the range. Each
        // argmax starts from -1.0 and keeps the earliest strict maximum,
        // so a NaN never wins. The speed jump needs a predecessor and
        // successor sample in the full trajectory; interior points of any
        // range always have both.
        const TimedPoint& a = trajectory[static_cast<size_t>(first)];
        const TimedPoint& b = trajectory[static_cast<size_t>(last)];
        const kernels::SedSegment seg{a.position.x, a.position.y, a.t,
                                      b.position.x, b.position.y, b.t};
        int sed_index = first + 1;
        double max_sed = -1.0;
        int jump_index = first + 1;
        double max_jump = -1.0;
        for (int i = first + 1; i < last; ++i) {
          const TimedPoint& p = trajectory[static_cast<size_t>(i)];
          const double d =
              kernels::SedDistancePoint(p.position.x, p.position.y, p.t, seg);
          if (d > max_sed) {
            max_sed = d;
            sed_index = i;
          }
          const double jump = jumps[static_cast<size_t>(i)];
          if (jump > max_jump) {
            max_jump = jump;
            jump_index = i;
          }
        }
        if (max_sed > max_dist_error_m) {
          return sed_index;
        }
        return max_jump > max_speed_error_mps ? jump_index : -1;
      },
      workspace, out);
}

IndexList TdSp(TrajectoryView trajectory, double max_dist_error_m,
               double max_speed_error_mps) {
  Workspace workspace;
  IndexList kept;
  TdSp(trajectory, max_dist_error_m, max_speed_error_mps, workspace, kept);
  return kept;
}

}  // namespace stcomp::algo
