// Batched distance kernels over SoA double arrays (DESIGN.md §14): the
// synchronized-Euclidean-distance (SED), perpendicular and radial inner
// loops of the compression algorithms, evaluated a whole window/range per
// call instead of point-at-a-time. One implementation: each batched loop
// applies a per-point helper below in index order.
//
// Bit-exactness: the per-point helpers are the single source of truth for
// the arithmetic. The batched loops call them, and the AoS consumers
// (SynchronizedDistance, PointToLineDistance, SegmentSpeed, SQUISH
// priorities) are implemented on top of them, so point-at-a-time paths
// (streams, SQUISH, sliding window) produce the same doubles as the
// batched ones — stream == batch and the golden files depend on it. Two
// global rules keep every path on the same bits:
//  - norms are Norm2, sqrt(dx*dx + dy*dy), never std::hypot, whose result
//    can differ in the last bit (the domain is metres in a local frame,
//    so the squares cannot overflow),
//  - the build disables FP contraction (-ffp-contract=off in the root
//    CMakeLists), so a*b+c is never fused into an FMA in one inlining
//    context and left unfused in another.
//
// This layer deliberately knows nothing about Trajectory/TrajectoryView:
// it reads raw x/y/t arrays (see core/trajectory_view_soa.h for the
// repack) so it can sit at the bottom of the dependency order.

#ifndef STCOMP_GEOM_KERNELS_H_
#define STCOMP_GEOM_KERNELS_H_

#include <cmath>
#include <cstddef>

namespace stcomp::kernels {

// Candidate approximation segment for the SED kernels: the anchor (a) and
// probe-end (b) samples. Precondition for the non-degenerate formula:
// at <= bt (the kernels branch on bt - at > 0, matching
// InterpolatePosition's degenerate rule "position = anchor").
struct SedSegment {
  double ax = 0.0;
  double ay = 0.0;
  double at = 0.0;
  double bx = 0.0;
  double by = 0.0;
  double bt = 0.0;
};

// Spatial-only segment for the perpendicular kernels.
struct LineSegment {
  double ax = 0.0;
  double ay = 0.0;
  double bx = 0.0;
  double by = 0.0;
};

// Argmax result: earliest index attaining the strict maximum, or
// {index = 0, value = -1.0} when no element compares greater than -1.0
// (all-NaN input), or {index = -1, value = -1.0} for n == 0. Mirrors the
// sequential "if (d > best)" scan the top-down algorithms used.
struct MaxResult {
  std::ptrdiff_t index = -1;
  double value = -1.0;
};

// The kernel norm: correctly-rounded sqrt of a correctly-rounded sum of
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

// The batched kernels. All `n` counts are in points. *FirstAbove returns
// the lowest index whose distance compares strictly greater than
// `threshold`, or -1; RadialFirstReaching uses >= instead (the
// radial-distance algorithm's keep rule). A NaN distance never fires
// either predicate and never becomes a maximum (see MaxResult).
std::ptrdiff_t SedFirstAbove(const double* x, const double* y,
                             const double* t, size_t n, const SedSegment& seg,
                             double threshold);
MaxResult SedMax(const double* x, const double* y, const double* t, size_t n,
                 const SedSegment& seg);

std::ptrdiff_t PerpFirstAbove(const double* x, const double* y, size_t n,
                              const LineSegment& seg, double threshold);
MaxResult PerpMax(const double* x, const double* y, size_t n,
                  const LineSegment& seg);

std::ptrdiff_t RadialFirstReaching(const double* x, const double* y, size_t n,
                                   double ax, double ay, double threshold);

std::ptrdiff_t ArrayFirstAbove(const double* v, size_t n, double threshold);
MaxResult ArrayMax(const double* v, size_t n);

// SyncDeltaPoint over n vertices; xp / yp point at each vertex's
// predecessor (typically x - 1 / y - 1), and dx / dy must have room for n
// doubles.
void SyncDeltas(const double* x, const double* y, const double* t,
                const double* xp, const double* yp, size_t n,
                const SedSegment& seg, double* dx, double* dy);

// Derived segment speeds (n - 1 entries) and their absolute jumps at
// interior points (n entries: out[0] = out[n-1] = 0). The SP-family
// criteria consume these O(n) precomputations instead of recomputing two
// norms per candidate.
void SegmentSpeeds(const double* x, const double* y, const double* t, size_t n,
                   double* out);
void SpeedJumps(const double* speeds, size_t n_points, double* out);

}  // namespace stcomp::kernels

#endif  // STCOMP_GEOM_KERNELS_H_
