#include "stcomp/algo/bottom_up.h"

#include <algorithm>
#include <cstddef>

#include "stcomp/common/check.h"
#include "stcomp/core/interpolation.h"

namespace stcomp::algo {

namespace {

// The cost of removing b between a and c: the worst `metric` distance of
// any original point strictly between a and c from the merged segment.
auto MergeCost(TrajectoryView trajectory, BottomUpMetric metric) {
  return [trajectory, metric](int a, int /*b*/, int c) {
    double worst = 0.0;
    for (int i = a + 1; i < c; ++i) {
      double d = 0.0;
      if (metric == BottomUpMetric::kPerpendicular) {
        d = PointToSegmentDistance(
            trajectory[static_cast<size_t>(i)].position,
            trajectory[static_cast<size_t>(a)].position,
            trajectory[static_cast<size_t>(c)].position);
      } else {
        d = SynchronizedDistance(trajectory[static_cast<size_t>(a)],
                                 trajectory[static_cast<size_t>(c)],
                                 trajectory[static_cast<size_t>(i)]);
      }
      worst = std::max(worst, d);
    }
    return worst;
  };
}

}  // namespace

void BottomUp(TrajectoryView trajectory, double epsilon, BottomUpMetric metric,
              Workspace& workspace, IndexList& out) {
  STCOMP_CHECK(epsilon >= 0.0);
  RunBottomUp(
      trajectory, MergeCost(trajectory, metric),
      [epsilon](double cost, int /*kept*/) { return cost <= epsilon; },
      workspace, out);
}

IndexList BottomUp(TrajectoryView trajectory, double epsilon,
                   BottomUpMetric metric) {
  Workspace workspace;
  IndexList kept;
  BottomUp(trajectory, epsilon, metric, workspace, kept);
  return kept;
}

void BottomUpMaxPoints(TrajectoryView trajectory, int max_points,
                       BottomUpMetric metric, Workspace& workspace,
                       IndexList& out) {
  STCOMP_CHECK(max_points >= 2);
  RunBottomUp(
      trajectory, MergeCost(trajectory, metric),
      [max_points](double /*cost*/, int kept) { return kept > max_points; },
      workspace, out);
}

IndexList BottomUpMaxPoints(TrajectoryView trajectory, int max_points,
                            BottomUpMetric metric) {
  Workspace workspace;
  IndexList kept;
  BottomUpMaxPoints(trajectory, max_points, metric, workspace, kept);
  return kept;
}

}  // namespace stcomp::algo
