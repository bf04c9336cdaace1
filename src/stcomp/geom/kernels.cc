// The batched kernels. Each loop is nothing but a per-point helper from
// kernels.h applied in index order, so a batched scan returns exactly what
// the point-at-a-time scan over the same helper would.

#include "stcomp/geom/kernels.h"

namespace stcomp::kernels {

std::ptrdiff_t SedFirstAbove(const double* x, const double* y,
                             const double* t, size_t n, const SedSegment& seg,
                             double threshold) {
  for (size_t i = 0; i < n; ++i) {
    if (SedDistancePoint(x[i], y[i], t[i], seg) > threshold) {
      return static_cast<std::ptrdiff_t>(i);
    }
  }
  return -1;
}

MaxResult SedMax(const double* x, const double* y, const double* t, size_t n,
                 const SedSegment& seg) {
  if (n == 0) {
    return {-1, -1.0};
  }
  MaxResult best{0, -1.0};
  for (size_t i = 0; i < n; ++i) {
    const double d = SedDistancePoint(x[i], y[i], t[i], seg);
    if (d > best.value) {
      best = {static_cast<std::ptrdiff_t>(i), d};
    }
  }
  return best;
}

std::ptrdiff_t PerpFirstAbove(const double* x, const double* y, size_t n,
                              const LineSegment& seg, double threshold) {
  for (size_t i = 0; i < n; ++i) {
    if (PerpDistancePoint(x[i], y[i], seg) > threshold) {
      return static_cast<std::ptrdiff_t>(i);
    }
  }
  return -1;
}

MaxResult PerpMax(const double* x, const double* y, size_t n,
                  const LineSegment& seg) {
  if (n == 0) {
    return {-1, -1.0};
  }
  MaxResult best{0, -1.0};
  for (size_t i = 0; i < n; ++i) {
    const double d = PerpDistancePoint(x[i], y[i], seg);
    if (d > best.value) {
      best = {static_cast<std::ptrdiff_t>(i), d};
    }
  }
  return best;
}

std::ptrdiff_t RadialFirstReaching(const double* x, const double* y, size_t n,
                                   double ax, double ay, double threshold) {
  for (size_t i = 0; i < n; ++i) {
    if (RadialDistancePoint(x[i], y[i], ax, ay) >= threshold) {
      return static_cast<std::ptrdiff_t>(i);
    }
  }
  return -1;
}

std::ptrdiff_t ArrayFirstAbove(const double* v, size_t n, double threshold) {
  for (size_t i = 0; i < n; ++i) {
    if (v[i] > threshold) {
      return static_cast<std::ptrdiff_t>(i);
    }
  }
  return -1;
}

MaxResult ArrayMax(const double* v, size_t n) {
  if (n == 0) {
    return {-1, -1.0};
  }
  MaxResult best{0, -1.0};
  for (size_t i = 0; i < n; ++i) {
    if (v[i] > best.value) {
      best = {static_cast<std::ptrdiff_t>(i), v[i]};
    }
  }
  return best;
}

void SyncDeltas(const double* x, const double* y, const double* t,
                const double* xp, const double* yp, size_t n,
                const SedSegment& seg, double* dx, double* dy) {
  for (size_t i = 0; i < n; ++i) {
    SyncDeltaPoint(x[i], y[i], t[i], xp[i], yp[i], seg, &dx[i], &dy[i]);
  }
}

void SegmentSpeeds(const double* x, const double* y, const double* t, size_t n,
                   double* out) {
  for (size_t i = 0; i + 1 < n; ++i) {
    const double dt = t[i + 1] - t[i];
    out[i] = Norm2(x[i + 1] - x[i], y[i + 1] - y[i]) / dt;
  }
}

void SpeedJumps(const double* speeds, size_t n_points, double* out) {
  if (n_points == 0) {
    return;
  }
  out[0] = 0.0;
  for (size_t i = 1; i + 1 < n_points; ++i) {
    out[i] = std::abs(speeds[i] - speeds[i - 1]);
  }
  if (n_points > 1) {
    out[n_points - 1] = 0.0;
  }
}

}  // namespace stcomp::kernels
