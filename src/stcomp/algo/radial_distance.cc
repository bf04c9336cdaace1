#include "stcomp/algo/radial_distance.h"

#include <cstddef>

#include "stcomp/common/check.h"
#include "stcomp/geom/kernels.h"

namespace stcomp::algo {

void RadialDistance(TrajectoryView trajectory, double epsilon_m,
                    IndexList& out) {
  STCOMP_CHECK(epsilon_m >= 0.0);
  const int n = static_cast<int>(trajectory.size());
  out.clear();
  if (n == 0) {
    return;
  }
  // One scan: a point is kept when it lies at least epsilon from the last
  // kept point, and becomes the next anchor. The keep test is inclusive
  // `>=` (a point exactly epsilon away is kept); a NaN distance never
  // keeps a point.
  out.push_back(0);
  Vec2 anchor = trajectory[0].position;
  for (int i = 1; i < n - 1; ++i) {
    const Vec2 p = trajectory[static_cast<size_t>(i)].position;
    if (kernels::RadialDistancePoint(p.x, p.y, anchor.x, anchor.y) >=
        epsilon_m) {
      out.push_back(i);
      anchor = p;
    }
  }
  if (n > 1) {
    out.push_back(n - 1);
  }
}

IndexList RadialDistance(TrajectoryView trajectory, double epsilon_m) {
  IndexList kept;
  RadialDistance(trajectory, epsilon_m, kept);
  return kept;
}

}  // namespace stcomp::algo
