#include "stcomp/algo/angular.h"

#include "stcomp/common/check.h"

namespace stcomp::algo {

void AngularChange(TrajectoryView trajectory, double min_heading_change_rad,
                   IndexList& out) {
  STCOMP_CHECK(min_heading_change_rad >= 0.0 &&
               min_heading_change_rad <= 3.14159265358979323846);
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
    if (HeadingChange(anchor, candidate, next) >= min_heading_change_rad) {
      out.push_back(i);
    }
  }
  if (n > 1) {
    out.push_back(n - 1);
  }
}

}  // namespace stcomp::algo
