// Per-point distance helpers (DESIGN.md §14): the synchronized Euclidean
// distance (SED), perpendicular, radial and synchronous-error arithmetic
// every compression algorithm, stream and error evaluator uses. A batch
// algorithm builds its segment once per window or range and calls a helper
// for each point of its TrajectoryView; the AoS entry points
// (SynchronizedDistance, PointToLineDistance, SegmentSpeed, SQUISH
// priorities) route through the same helpers.
//
// Bit-exactness: these helpers are the single source of truth for the
// arithmetic, so every path that measures a point produces the same
// doubles — stream == batch and the golden files depend on it. Two global
// rules keep every inlined copy on the same bits:
//  - norms are Norm2, sqrt(dx*dx + dy*dy), never std::hypot, whose result
//    can differ in the last bit (the domain is metres in a local frame,
//    so the squares cannot overflow),
//  - the build disables FP contraction (-ffp-contract=off in the root
//    CMakeLists), so a*b+c is never fused into an FMA in one inlining
//    context and left unfused in another.
//
// The helpers take plain doubles rather than TimedPoints so the layer sits
// at the bottom of the dependency order, below core/.

#ifndef STCOMP_GEOM_KERNELS_H_
#define STCOMP_GEOM_KERNELS_H_

#include <cmath>

namespace stcomp::kernels {

// Candidate approximation segment for the SED helpers: the anchor (a) and
// probe-end (b) samples. Precondition for the non-degenerate formula:
// at <= bt (the helpers branch on bt - at > 0, matching
// InterpolatePosition's degenerate rule "position = anchor").
struct SedSegment {
  double ax = 0.0;
  double ay = 0.0;
  double at = 0.0;
  double bx = 0.0;
  double by = 0.0;
  double bt = 0.0;
};

// Spatial-only segment for the perpendicular helper.
struct LineSegment {
  double ax = 0.0;
  double ay = 0.0;
  double bx = 0.0;
  double by = 0.0;
};

// The helper norm: correctly-rounded sqrt of a correctly-rounded sum of
// correctly-rounded squares.
inline double Norm2(double dx, double dy) {
  return std::sqrt(dx * dx + dy * dy);
}

// SED of the point (px, py, pt) against `seg`: distance to the position a
// time-ratio traveller on the segment occupies at pt (paper Eqs. 1-2).
inline double SedDistancePoint(double px, double py, double pt,
                               const SedSegment& seg) {
  const double dt = seg.bt - seg.at;
  double ix = seg.ax;
  double iy = seg.ay;
  if (dt > 0.0) {
    const double u = (pt - seg.at) / dt;
    ix = seg.ax + (seg.bx - seg.ax) * u;
    iy = seg.ay + (seg.by - seg.ay) * u;
  }
  return Norm2(px - ix, py - iy);
}

// Perpendicular distance from (px, py) to the infinite line through `seg`
// (distance to the segment start when the segment is degenerate).
inline double PerpDistancePoint(double px, double py, const LineSegment& seg) {
  const double abx = seg.bx - seg.ax;
  const double aby = seg.by - seg.ay;
  const double len = Norm2(abx, aby);
  if (len == 0.0) {
    return Norm2(px - seg.ax, py - seg.ay);
  }
  const double cross = abx * (py - seg.ay) - aby * (px - seg.ax);
  return std::abs(cross) / len;
}

// Euclidean distance from (px, py) to the anchor (ax, ay).
inline double RadialDistancePoint(double px, double py, double ax, double ay) {
  return Norm2(px - ax, py - ay);
}

// Synchronous-error delta at one original vertex (error module): the
// original cursor's position minus the kept-segment traveller's position,
// replicating SegmentCursor's exact arithmetic (xp is the previous
// original vertex; u = dt/dt is exactly 1.0 there, hence xp + (x - xp)).
// Precondition: seg.at < seg.bt.
inline void SyncDeltaPoint(double x, double y, double t, double xp, double yp,
                           const SedSegment& seg, double* dx, double* dy) {
  const double ox = xp + (x - xp);
  const double oy = yp + (y - yp);
  const double dt = seg.bt - seg.at;
  const double u = (t - seg.at) / dt;
  *dx = ox - (seg.ax + (seg.bx - seg.ax) * u);
  *dy = oy - (seg.ay + (seg.by - seg.ay) * u);
}

}  // namespace stcomp::kernels

#endif  // STCOMP_GEOM_KERNELS_H_
