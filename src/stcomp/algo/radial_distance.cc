#include "stcomp/algo/radial_distance.h"

#include <cstddef>

#include "stcomp/common/check.h"
#include "stcomp/core/trajectory_view_soa.h"
#include "stcomp/geom/kernels.h"

namespace stcomp::algo {

void RadialDistance(TrajectoryView trajectory, double epsilon_m,
                    Workspace& workspace, IndexList& out) {
  STCOMP_CHECK(epsilon_m >= 0.0);
  const int n = static_cast<int>(trajectory.size());
  out.clear();
  if (n == 0) {
    return;
  }
  // Batched scan: from each kept anchor, one kernel call finds the first
  // point at least epsilon away (the keep rule is >=, not >); that point
  // becomes the next anchor. Identical to the per-point scan, one call
  // per kept point instead of one norm per input point.
  const TrajectoryViewSoA soa =
      TrajectoryViewSoA::Repack(trajectory, workspace.soa);
  const double* x = soa.x();
  const double* y = soa.y();
  out.push_back(0);
  int pos = 1;
  while (pos < n - 1) {
    const size_t anchor = static_cast<size_t>(out.back());
    const std::ptrdiff_t hit = kernels::RadialFirstReaching(
        x + pos, y + pos, static_cast<size_t>(n - 1 - pos), x[anchor],
        y[anchor], epsilon_m);
    if (hit < 0) {
      break;
    }
    out.push_back(pos + static_cast<int>(hit));
    pos = out.back() + 1;
  }
  if (n > 1) {
    out.push_back(n - 1);
  }
}

void RadialDistance(TrajectoryView trajectory, double epsilon_m,
                    IndexList& out) {
  Workspace workspace;
  RadialDistance(trajectory, epsilon_m, workspace, out);
}

IndexList RadialDistance(TrajectoryView trajectory, double epsilon_m) {
  IndexList kept;
  RadialDistance(trajectory, epsilon_m, kept);
  return kept;
}

}  // namespace stcomp::algo
