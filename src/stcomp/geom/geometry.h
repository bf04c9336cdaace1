// Planar geometry primitives. Coordinates are metres in a local projected
// frame (east, north); see gps/projection.h for getting there from WGS84.

#ifndef STCOMP_GEOM_GEOMETRY_H_
#define STCOMP_GEOM_GEOMETRY_H_

#include <cmath>

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

// Distance from `p` to `box` (0 when p is inside or on the boundary).
double PointToBoxDistance(Vec2 p, const BoundingBox& box);

// True when the closed segments [a, b] and [c, d] share at least one
// point (touching endpoints and collinear overlap count).
bool SegmentsIntersect(Vec2 a, Vec2 b, Vec2 c, Vec2 d);

// Minimum distance between the closed segments [a, b] and [c, d]
// (0 when they intersect). Degenerate segments collapse to points.
double SegmentToSegmentDistance(Vec2 a, Vec2 b, Vec2 c, Vec2 d);

// True when the closed segment [a, b] has at least one point inside or on
// the boundary of `box`.
bool SegmentIntersectsBox(Vec2 a, Vec2 b, const BoundingBox& box);

// Minimum distance between the closed segment [a, b] and `box`
// (0 when the segment enters or touches the box).
double SegmentToBoxDistance(Vec2 a, Vec2 b, const BoundingBox& box);

}  // namespace stcomp

#endif  // STCOMP_GEOM_GEOMETRY_H_
