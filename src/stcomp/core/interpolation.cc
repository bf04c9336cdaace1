#include "stcomp/core/interpolation.h"

#include "stcomp/common/check.h"
#include "stcomp/geom/kernels.h"

namespace stcomp {

Vec2 InterpolatePosition(const TimedPoint& start, const TimedPoint& end,
                         double t) {
  STCOMP_DCHECK(start.t <= t && t <= end.t);
  const double dt = end.t - start.t;
  if (dt <= 0.0) {
    return start.position;
  }
  const double u = (t - start.t) / dt;
  return Lerp(start.position, end.position, u);
}

Vec2 TimeRatioPosition(const TimedPoint& anchor, const TimedPoint& probe_end,
                       const TimedPoint& point) {
  // delta_e = t_e - t_s, delta_i = t_i - t_s (paper's notation).
  return InterpolatePosition(anchor, probe_end, point.t);
}

double SynchronizedDistance(const TimedPoint& anchor,
                            const TimedPoint& probe_end,
                            const TimedPoint& point) {
  // Routed through the per-point helper (same lerp, same degenerate rule,
  // sqrt-based norm) so this path stays bit-identical to the window/range
  // algorithms' SED scans.
  return kernels::SedDistancePoint(
      point.position.x, point.position.y, point.t,
      {anchor.position.x, anchor.position.y, anchor.t, probe_end.position.x,
       probe_end.position.y, probe_end.t});
}

}  // namespace stcomp
