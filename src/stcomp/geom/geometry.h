// Planar geometry primitives. Coordinates are metres in a local projected
// frame (east, north); see gps/projection.h for getting there from WGS84.

#ifndef STCOMP_GEOM_GEOMETRY_H_
#define STCOMP_GEOM_GEOMETRY_H_

#include <algorithm>
#include <cmath>
#include <limits>

namespace stcomp {

// A 2-D point or displacement vector, in metres.
struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  constexpr Vec2() = default;
  constexpr Vec2(double x_in, double y_in) : x(x_in), y(y_in) {}

  constexpr Vec2 operator+(Vec2 o) const { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(Vec2 o) const { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double s) const { return {x * s, y * s}; }
  constexpr Vec2 operator/(double s) const { return {x / s, y / s}; }
  Vec2& operator+=(Vec2 o) {
    x += o.x;
    y += o.y;
    return *this;
  }
  Vec2& operator-=(Vec2 o) {
    x -= o.x;
    y -= o.y;
    return *this;
  }

  constexpr friend bool operator==(Vec2 a, Vec2 b) {
    return a.x == b.x && a.y == b.y;
  }

  constexpr double Dot(Vec2 o) const { return x * o.x + y * o.y; }
  // Z component of the 3-D cross product; twice the signed area of the
  // triangle (origin, *this, o).
  constexpr double Cross(Vec2 o) const { return x * o.y - y * o.x; }
  double Norm() const { return std::hypot(x, y); }
  constexpr double SquaredNorm() const { return x * x + y * y; }
};

constexpr Vec2 operator*(double s, Vec2 v) { return v * s; }

// Euclidean distance between two points.
inline double Distance(Vec2 a, Vec2 b) { return (a - b).Norm(); }
inline double SquaredDistance(Vec2 a, Vec2 b) { return (a - b).SquaredNorm(); }

// Distance from `p` to the infinite line through `a` and `b`.
// Precondition relaxed: if a == b, returns Distance(p, a).
double PointToLineDistance(Vec2 p, Vec2 a, Vec2 b);

// Distance from `p` to the closed segment [a, b].
double PointToSegmentDistance(Vec2 p, Vec2 a, Vec2 b);

// Parameter u in [0, 1] of the point on [a, b] closest to `p`
// (0 for a == b).
double ProjectOntoSegment(Vec2 p, Vec2 a, Vec2 b);

// Interior angle at `b` of the polyline a-b-c, in radians [0, pi].
// A straight continuation gives pi; a full reversal gives 0.
// If either arm is degenerate, returns pi (treated as straight).
double InteriorAngle(Vec2 a, Vec2 b, Vec2 c);

// Absolute change of heading when travelling a->b->c, in radians [0, pi]:
// 0 for straight continuation, pi for reversal. Complement of InteriorAngle.
double HeadingChange(Vec2 a, Vec2 b, Vec2 c);

// Heading of the displacement a->b in radians, measured counterclockwise
// from east (atan2 convention), in (-pi, pi]. Zero-length gives 0.
double Heading(Vec2 a, Vec2 b);

// Linear interpolation: a + u * (b - a).
inline Vec2 Lerp(Vec2 a, Vec2 b, double u) { return a + (b - a) * u; }

// Axis-aligned bounding box (closed on all sides).
struct BoundingBox {
  Vec2 min;
  Vec2 max;
  bool Contains(Vec2 p) const {
    return p.x >= min.x && p.x <= max.x && p.y >= min.y && p.y <= max.y;
  }
  bool Intersects(const BoundingBox& o) const {
    return min.x <= o.max.x && max.x >= o.min.x && min.y <= o.max.y &&
           max.y >= o.min.y;
  }
  friend bool operator==(const BoundingBox&, const BoundingBox&) = default;
};

// Bounding box of the closed segment [a, b] (the point a when a == b).
inline BoundingBox SegmentBounds(Vec2 a, Vec2 b) {
  return BoundingBox{{std::min(a.x, b.x), std::min(a.y, b.y)},
                     {std::max(a.x, b.x), std::max(a.y, b.y)}};
}

// True when `a` and `b` are provably farther apart than `r`: every
// distance the predicates below compute between a segment or point inside
// one box and a segment, point or box edge inside the other comes out
// greater than r. A few subtractions and comparisons decide it, so a
// caller can skip the exact test for such a pair without changing its
// answer.
//
// The largest axis gap g between the boxes never exceeds their exact
// distance; it must beat r by a rounding margin of (|r| + M) * 1e-12, M
// the largest coordinate magnitude in either box. With e = 2^-53: a
// computed distance is |p - Lerp(c, d, u)|, p an input point and u
// clamped to [0, 1]. Lerp's rounded point lies within 6eM of its
// segment's box, and the subtraction, the norm and g itself each lose at
// most 4eM, a unit in the last place of a value no larger than 2M. So a
// computed distance is at least g - 18eM, and 18e is 1/500 of 1e-12.
// The |r| term keeps the margin from vanishing when it is added to a
// large r; the absolute floor (the smallest normal double) covers
// subnormal coordinates, whose rounding is absolute rather than relative.
inline bool BoxesFartherThan(const BoundingBox& a, const BoundingBox& b,
                             double r) {
  const double gap = std::max(std::max(a.min.x - b.max.x, b.min.x - a.max.x),
                              std::max(a.min.y - b.max.y, b.min.y - a.max.y));
  const double magnitude = std::max(
      std::max(std::max(std::abs(a.min.x), std::abs(a.max.x)),
               std::max(std::abs(a.min.y), std::abs(a.max.y))),
      std::max(std::max(std::abs(b.min.x), std::abs(b.max.x)),
               std::max(std::abs(b.min.y), std::abs(b.max.y))));
  return gap > r + (std::abs(r) + magnitude) * 1e-12 +
                   std::numeric_limits<double>::min();
}

// Distance from `p` to `box` (0 when p is inside or on the boundary).
double PointToBoxDistance(Vec2 p, const BoundingBox& box);

// True when the closed segments [a, b] and [c, d] share at least one
// point (touching endpoints and collinear overlap count). Segments whose
// bounding boxes are disjoint never intersect: a shared point lies in
// both boxes, so that check is exact and runs first. It also keeps
// rounded orientation signs from reporting far-apart, nearly collinear
// segments as crossing.
bool SegmentsIntersect(Vec2 a, Vec2 b, Vec2 c, Vec2 d);

// Minimum distance between the closed segments [a, b] and [c, d]
// (0 when they intersect). Degenerate segments collapse to points.
double SegmentToSegmentDistance(Vec2 a, Vec2 b, Vec2 c, Vec2 d);

// True when the closed segment [a, b] has at least one point inside or on
// the boundary of `box`; false at once when the segment's bounding box
// misses `box`.
bool SegmentIntersectsBox(Vec2 a, Vec2 b, const BoundingBox& box);

// Minimum distance between the closed segment [a, b] and `box`
// (0 when the segment enters or touches the box).
double SegmentToBoxDistance(Vec2 a, Vec2 b, const BoundingBox& box);

}  // namespace stcomp

#endif  // STCOMP_GEOM_GEOMETRY_H_
