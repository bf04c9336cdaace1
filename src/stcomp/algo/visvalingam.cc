#include "stcomp/algo/visvalingam.h"

#include <cmath>
#include <cstddef>

#include "stcomp/algo/bottom_up.h"
#include "stcomp/common/check.h"

namespace stcomp::algo {

namespace {

// The cost of removing b between a and c: the area of the triangle
// (a, b, c) in the plane.
auto PlanarArea(TrajectoryView t) {
  return [t](int a, int b, int c) {
    const Vec2 pa = t[static_cast<size_t>(a)].position;
    const Vec2 pb = t[static_cast<size_t>(b)].position;
    const Vec2 pc = t[static_cast<size_t>(c)].position;
    return 0.5 * std::abs((pb - pa).Cross(pc - pa));
  };
}

// The same triangle in (x, y, weight * time) space.
auto SpatiotemporalArea(TrajectoryView t, double weight) {
  return [t, weight](int a, int b, int c) {
    const TimedPoint& qa = t[static_cast<size_t>(a)];
    const TimedPoint& qb = t[static_cast<size_t>(b)];
    const TimedPoint& qc = t[static_cast<size_t>(c)];
    const double e1x = qb.position.x - qa.position.x;
    const double e1y = qb.position.y - qa.position.y;
    const double e1t = weight * (qb.t - qa.t);
    const double e2x = qc.position.x - qa.position.x;
    const double e2y = qc.position.y - qa.position.y;
    const double e2t = weight * (qc.t - qa.t);
    const double cx = e1y * e2t - e1t * e2y;
    const double cy = e1t * e2x - e1x * e2t;
    const double cz = e1x * e2y - e1y * e2x;
    return 0.5 * std::sqrt(cx * cx + cy * cy + cz * cz);
  };
}

}  // namespace

void Visvalingam(TrajectoryView trajectory, double min_area_m2,
                 Workspace& workspace, IndexList& out) {
  STCOMP_CHECK(min_area_m2 >= 0.0);
  RunBottomUp(
      trajectory, PlanarArea(trajectory),
      [min_area_m2](double area, int /*kept*/) { return area < min_area_m2; },
      workspace, out);
}

void VisvalingamMaxPoints(TrajectoryView trajectory, int max_points,
                          Workspace& workspace, IndexList& out) {
  STCOMP_CHECK(max_points >= 2);
  RunBottomUp(
      trajectory, PlanarArea(trajectory),
      [max_points](double /*area*/, int kept) { return kept > max_points; },
      workspace, out);
}

void VisvalingamTr(TrajectoryView trajectory, double min_area_m2,
                   double time_weight_mps, Workspace& workspace,
                   IndexList& out) {
  STCOMP_CHECK(min_area_m2 >= 0.0);
  STCOMP_CHECK(time_weight_mps >= 0.0);
  RunBottomUp(
      trajectory, SpatiotemporalArea(trajectory, time_weight_mps),
      [min_area_m2](double area, int /*kept*/) { return area < min_area_m2; },
      workspace, out);
}

}  // namespace stcomp::algo
