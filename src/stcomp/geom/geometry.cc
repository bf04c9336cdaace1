#include "stcomp/geom/geometry.h"

#include <algorithm>

#include "stcomp/geom/kernels.h"

namespace stcomp {

namespace {
constexpr double kPi = 3.14159265358979323846;
}  // namespace

double PointToLineDistance(Vec2 p, Vec2 a, Vec2 b) {
  // Routed through the per-point helper so this path is bit-identical to
  // the algorithms' perpendicular scans (DESIGN.md §14). Note the helper's
  // norm is sqrt(dx*dx + dy*dy), not std::hypot.
  return kernels::PerpDistancePoint(p.x, p.y, {a.x, a.y, b.x, b.y});
}

double ProjectOntoSegment(Vec2 p, Vec2 a, Vec2 b) {
  const Vec2 ab = b - a;
  const double denom = ab.SquaredNorm();
  if (denom == 0.0) {
    return 0.0;
  }
  return std::clamp((p - a).Dot(ab) / denom, 0.0, 1.0);
}

double PointToSegmentDistance(Vec2 p, Vec2 a, Vec2 b) {
  const double u = ProjectOntoSegment(p, a, b);
  return Distance(p, Lerp(a, b, u));
}

double InteriorAngle(Vec2 a, Vec2 b, Vec2 c) {
  const Vec2 u = a - b;
  const Vec2 v = c - b;
  const double nu = u.Norm();
  const double nv = v.Norm();
  if (nu == 0.0 || nv == 0.0) {
    return kPi;
  }
  const double cosine = std::clamp(u.Dot(v) / (nu * nv), -1.0, 1.0);
  return std::acos(cosine);
}

double HeadingChange(Vec2 a, Vec2 b, Vec2 c) {
  return kPi - InteriorAngle(a, b, c);
}

double Heading(Vec2 a, Vec2 b) {
  const Vec2 d = b - a;
  if (d.x == 0.0 && d.y == 0.0) {
    return 0.0;
  }
  return std::atan2(d.y, d.x);
}

double PointToBoxDistance(Vec2 p, const BoundingBox& box) {
  const double dx = std::max({box.min.x - p.x, 0.0, p.x - box.max.x});
  const double dy = std::max({box.min.y - p.y, 0.0, p.y - box.max.y});
  return std::hypot(dx, dy);
}

namespace {

// Sign of the turn a->b->c: +1 counterclockwise, -1 clockwise, 0 collinear.
int Orientation(Vec2 a, Vec2 b, Vec2 c) {
  const double cross = (b - a).Cross(c - a);
  if (cross > 0.0) {
    return 1;
  }
  if (cross < 0.0) {
    return -1;
  }
  return 0;
}

}  // namespace

bool SegmentsIntersect(Vec2 a, Vec2 b, Vec2 c, Vec2 d) {
  const BoundingBox ab = SegmentBounds(a, b);
  const BoundingBox cd = SegmentBounds(c, d);
  if (!ab.Intersects(cd)) {
    return false;
  }
  const int o1 = Orientation(a, b, c);
  const int o2 = Orientation(a, b, d);
  const int o3 = Orientation(c, d, a);
  const int o4 = Orientation(c, d, b);
  if (o1 != o2 && o3 != o4) {
    return true;
  }
  // An endpoint collinear with the other segment touches it when it lies
  // within that segment's box.
  return (o1 == 0 && ab.Contains(c)) || (o2 == 0 && ab.Contains(d)) ||
         (o3 == 0 && cd.Contains(a)) || (o4 == 0 && cd.Contains(b));
}

double SegmentToSegmentDistance(Vec2 a, Vec2 b, Vec2 c, Vec2 d) {
  if (SegmentsIntersect(a, b, c, d)) {
    return 0.0;
  }
  // Disjoint convex sets: the minimum is attained at an endpoint of one
  // segment against the other.
  return std::min(
      std::min(PointToSegmentDistance(c, a, b), PointToSegmentDistance(d, a, b)),
      std::min(PointToSegmentDistance(a, c, d),
               PointToSegmentDistance(b, c, d)));
}

bool SegmentIntersectsBox(Vec2 a, Vec2 b, const BoundingBox& box) {
  if (!SegmentBounds(a, b).Intersects(box)) {
    return false;
  }
  if (box.Contains(a) || box.Contains(b)) {
    return true;
  }
  const Vec2 c00 = box.min;
  const Vec2 c10{box.max.x, box.min.y};
  const Vec2 c11 = box.max;
  const Vec2 c01{box.min.x, box.max.y};
  return SegmentsIntersect(a, b, c00, c10) || SegmentsIntersect(a, b, c10, c11) ||
         SegmentsIntersect(a, b, c11, c01) || SegmentsIntersect(a, b, c01, c00);
}

double SegmentToBoxDistance(Vec2 a, Vec2 b, const BoundingBox& box) {
  if (SegmentIntersectsBox(a, b, box)) {
    return 0.0;
  }
  const Vec2 c00 = box.min;
  const Vec2 c10{box.max.x, box.min.y};
  const Vec2 c11 = box.max;
  const Vec2 c01{box.min.x, box.max.y};
  return std::min(std::min(SegmentToSegmentDistance(a, b, c00, c10),
                           SegmentToSegmentDistance(a, b, c10, c11)),
                  std::min(SegmentToSegmentDistance(a, b, c11, c01),
                           SegmentToSegmentDistance(a, b, c01, c00)));
}

}  // namespace stcomp
