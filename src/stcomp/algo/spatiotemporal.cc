#include "stcomp/algo/spatiotemporal.h"

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "stcomp/common/check.h"
#include "stcomp/core/interpolation.h"
#include "stcomp/core/trajectory_view_soa.h"
#include "stcomp/geom/kernels.h"

namespace stcomp::algo {

namespace {

// Fills workspace.speeds / workspace.jumps from the SoA repack: speeds[i]
// is the derived speed of segment (i, i+1), jumps[i] == SpeedJump(i) for
// interior i (0 at the endpoints, which the criteria never test). The SP
// criteria then read O(1) per candidate instead of recomputing two norms.
void PrecomputeSpeedJumps(const TrajectoryViewSoA& soa, Workspace& workspace) {
  const size_t n = soa.size();
  workspace.speeds.resize(n > 0 ? n - 1 : 0);
  workspace.jumps.resize(n);
  kernels::SegmentSpeeds(soa.x(), soa.y(), soa.t(), n,
                         workspace.speeds.data());
  kernels::SpeedJumps(workspace.speeds.data(), n, workspace.jumps.data());
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
  // The per-window scan is kernelised: the first SED violation and the
  // first speed-jump violation are each found by one batched call, and the
  // earlier of the two is the window's violation — identical to the
  // point-at-a-time OR of the two criteria.
  const TrajectoryViewSoA soa =
      TrajectoryViewSoA::Repack(trajectory, workspace.soa);
  PrecomputeSpeedJumps(soa, workspace);
  const double* x = soa.x();
  const double* y = soa.y();
  const double* t = soa.t();
  const double* jumps = workspace.jumps.data();
  out.clear();
  out.push_back(0);
  int anchor = 0;
  int float_index = anchor + 2;
  while (float_index < n) {
    const size_t base = static_cast<size_t>(anchor) + 1;
    const size_t count = static_cast<size_t>(float_index - anchor - 1);
    const size_t a = static_cast<size_t>(anchor);
    const size_t f = static_cast<size_t>(float_index);
    const kernels::SedSegment seg{x[a], y[a], t[a], x[f], y[f], t[f]};
    const std::ptrdiff_t sed_hit = kernels::SedFirstAbove(
        x + base, y + base, t + base, count, seg, max_dist_error_m);
    // Only the window up to the SED violation matters for the jump scan:
    // the earliest violation of either kind wins.
    const size_t jump_count =
        sed_hit < 0 ? count : static_cast<size_t>(sed_hit) + 1;
    const std::ptrdiff_t jump_hit = kernels::ArrayFirstAbove(
        jumps + base, jump_count, max_speed_error_mps);
    std::ptrdiff_t hit = sed_hit;
    if (jump_hit >= 0 && (hit < 0 || jump_hit < hit)) {
      hit = jump_hit;
    }
    if (hit < 0) {
      ++float_index;
      continue;
    }
    const int violation = anchor + 1 + static_cast<int>(hit);
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
  const int n = static_cast<int>(trajectory.size());
  if (n <= 2) {
    KeepAll(trajectory, out);
    return;
  }
  const TrajectoryViewSoA soa =
      TrajectoryViewSoA::Repack(trajectory, workspace.soa);
  PrecomputeSpeedJumps(soa, workspace);
  const double* x = soa.x();
  const double* y = soa.y();
  const double* t = soa.t();
  const double* jumps = workspace.jumps.data();
  std::vector<char>& keep = workspace.keep;
  keep.assign(static_cast<size_t>(n), 0);
  keep[0] = 1;
  keep[static_cast<size_t>(n) - 1] = 1;
  int kept_count = 2;
  std::vector<std::pair<int, int>>& stack = workspace.ranges;
  stack.clear();
  stack.emplace_back(0, n - 1);
  while (!stack.empty()) {
    const auto [first, last] = stack.back();
    stack.pop_back();
    if (last - first < 2) {
      continue;
    }
    // One batched argmax per criterion over the interior of the range
    // (both maxima were previously accumulated in a single scalar loop;
    // the running maxima are independent, so two kernel scans produce the
    // same two results). The speed jump needs a predecessor and successor
    // sample in the full trajectory; interior points of any range always
    // have both.
    const size_t base = static_cast<size_t>(first) + 1;
    const size_t count = static_cast<size_t>(last - first - 1);
    const size_t a = static_cast<size_t>(first);
    const size_t b = static_cast<size_t>(last);
    const kernels::SedSegment seg{x[a], y[a], t[a], x[b], y[b], t[b]};
    const kernels::MaxResult max_sed =
        kernels::SedMax(x + base, y + base, t + base, count, seg);
    const kernels::MaxResult max_jump = kernels::ArrayMax(jumps + base, count);
    int split = -1;
    if (max_sed.value > max_dist_error_m) {
      split = first + 1 + static_cast<int>(max_sed.index);
    } else if (max_jump.value > max_speed_error_mps) {
      split = first + 1 + static_cast<int>(max_jump.index);
    }
    if (split >= 0) {
      keep[static_cast<size_t>(split)] = 1;
      ++kept_count;
      stack.emplace_back(split, last);
      stack.emplace_back(first, split);
    }
  }
  out.clear();
  out.reserve(static_cast<size_t>(kept_count));
  for (int i = 0; i < n; ++i) {
    if (keep[static_cast<size_t>(i)]) {
      out.push_back(i);
    }
  }
}

IndexList TdSp(TrajectoryView trajectory, double max_dist_error_m,
               double max_speed_error_mps) {
  Workspace workspace;
  IndexList kept;
  TdSp(trajectory, max_dist_error_m, max_speed_error_mps, workspace, kept);
  return kept;
}

}  // namespace stcomp::algo
