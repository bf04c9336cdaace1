#include "stcomp/algo/reumann_witkam.h"

#include "stcomp/common/check.h"

namespace stcomp::algo {

void ReumannWitkam(TrajectoryView trajectory, double epsilon_m,
                   IndexList& out) {
  STCOMP_CHECK(epsilon_m >= 0.0);
  const int n = static_cast<int>(trajectory.size());
  if (n <= 2) {
    KeepAll(trajectory, out);
    return;
  }
  out.clear();
  out.push_back(0);
  int key = 0;
  int direction = 1;  // Successor defining the strip direction.
  for (int i = 2; i < n; ++i) {
    const double offset = PointToLineDistance(
        trajectory[static_cast<size_t>(i)].position,
        trajectory[static_cast<size_t>(key)].position,
        trajectory[static_cast<size_t>(direction)].position);
    if (offset > epsilon_m) {
      // The previous point ends the strip and becomes the new key.
      out.push_back(i - 1);
      key = i - 1;
      direction = i;
    }
  }
  if (out.back() != n - 1) {
    out.push_back(n - 1);
  }
}

}  // namespace stcomp::algo
