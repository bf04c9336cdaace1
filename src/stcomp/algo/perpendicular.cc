#include "stcomp/algo/perpendicular.h"

#include "stcomp/common/check.h"

namespace stcomp::algo {

void PerpendicularDistance(TrajectoryView trajectory, double epsilon_m,
                           IndexList& out) {
  STCOMP_CHECK(epsilon_m >= 0.0);
  const int n = static_cast<int>(trajectory.size());
  out.clear();
  if (n == 0) {
    return;
  }
  out.push_back(0);
  for (int i = 1; i < n - 1; ++i) {
    const Vec2 anchor = trajectory[static_cast<size_t>(out.back())].position;
    const Vec2 candidate = trajectory[static_cast<size_t>(i)].position;
    const Vec2 next = trajectory[static_cast<size_t>(i) + 1].position;
    if (PointToLineDistance(candidate, anchor, next) >= epsilon_m) {
      out.push_back(i);
    }
  }
  if (n > 1) {
    out.push_back(n - 1);
  }
}

}  // namespace stcomp::algo
