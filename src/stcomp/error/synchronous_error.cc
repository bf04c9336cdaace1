#include "stcomp/error/synchronous_error.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "stcomp/common/check.h"
#include "stcomp/core/interpolation.h"
#include "stcomp/error/integration.h"
#include "stcomp/geom/kernels.h"

namespace stcomp {

namespace {

// Walks a trajectory's segments in nondecreasing query-time order; O(n + q)
// for q monotone queries instead of O(q log n) binary searches.
class SegmentCursor {
 public:
  explicit SegmentCursor(TrajectoryView trajectory)
      : trajectory_(trajectory) {}

  // Position at `t`; `t` must be within the trajectory interval and
  // queries must be nondecreasing.
  Vec2 At(double t) {
    STCOMP_DCHECK(t >= trajectory_.front().t && t <= trajectory_.back().t);
    while (segment_ + 2 < trajectory_.size() &&
           trajectory_[segment_ + 1].t < t) {
      ++segment_;
    }
    return InterpolatePosition(trajectory_[segment_],
                               trajectory_[segment_ + 1], t);
  }

 private:
  const TrajectoryView trajectory_;
  size_t segment_ = 0;
};

// The same walk over the *implicit* approximation original.Subset(kept):
// segment s runs from original[kept[s]] to original[kept[s + 1]]. Since the
// subset's points are copies of the original's, this performs bit-for-bit
// the arithmetic SegmentCursor would on the materialised subset.
class KeptSegmentCursor {
 public:
  KeptSegmentCursor(TrajectoryView original, const algo::IndexList& kept)
      : original_(original), kept_(kept) {}

  Vec2 At(double t) {
    while (segment_ + 2 < kept_.size() && Point(segment_ + 1).t < t) {
      ++segment_;
    }
    return InterpolatePosition(Point(segment_), Point(segment_ + 1), t);
  }

 private:
  const TimedPoint& Point(size_t s) const {
    return original_[static_cast<size_t>(kept_[s])];
  }

  const TrajectoryView original_;
  const algo::IndexList& kept_;
  size_t segment_ = 0;
};

Status CheckComparable(TrajectoryView original, TrajectoryView approximation) {
  if (original.size() < 2 || approximation.size() < 2) {
    return InvalidArgumentError(
        "synchronous error needs >= 2 points in both trajectories");
  }
  if (original.front().t != approximation.front().t ||
      original.back().t != approximation.back().t) {
    return InvalidArgumentError(
        "trajectories must cover the same time interval");
  }
  return Status::Ok();
}

// An index list that is valid (endpoints kept, strictly increasing) makes
// the approximation's vertex times a subset of the original's with matching
// start/end — exactly the CheckComparable contract, with the union grid
// collapsing to the original's own timestamps.
Status CheckKept(TrajectoryView original, const algo::IndexList& kept) {
  if (!algo::IsValidIndexList(original, kept)) {
    return InvalidArgumentError("kept indices are not a valid index list");
  }
  if (original.size() < 2) {
    return InvalidArgumentError(
        "synchronous error needs >= 2 points in both trajectories");
  }
  return Status::Ok();
}

// Scratch for the (view, kept) error paths below. The error module has no
// Workspace parameter, so each thread keeps one grow-only pair of delta
// buffers: repeated evaluations stop allocating once warm.
struct DeltaScratch {
  std::vector<double> dx;
  std::vector<double> dy;
};

// Per-vertex synchronous deltas (original position minus approximation
// position at the original's own timestamps). Between two kept vertices
// the approximation is one fixed segment, built once per kept segment, and
// SyncDeltaPoint runs for each original vertex it covers. Replicates the
// SegmentCursor / KeptSegmentCursor arithmetic bit for bit (at an original
// vertex the cursor's lerp parameter is exactly dt/dt = 1, which
// SyncDeltaPoint folds into xp + (x - xp)); vertex 0 is the one u = 0
// evaluation, done here with the cursors' exact expressions.
// Precondition: CheckKept passed, so n >= 2 and timestamps are strictly
// increasing (every kept segment has at < bt).
void ComputeKeptDeltas(TrajectoryView original, const algo::IndexList& kept,
                       DeltaScratch& scratch) {
  const size_t n = original.size();
  scratch.dx.resize(n);
  scratch.dy.resize(n);
  double* dx = scratch.dx.data();
  double* dy = scratch.dy.data();
  const Vec2 p0 = original[0].position;
  const Vec2 p1 = original[1].position;
  const Vec2 k1 = original[static_cast<size_t>(kept[1])].position;
  dx[0] = (p0.x + (p1.x - p0.x) * 0.0) - (p0.x + (k1.x - p0.x) * 0.0);
  dy[0] = (p0.y + (p1.y - p0.y) * 0.0) - (p0.y + (k1.y - p0.y) * 0.0);
  for (size_t j = 0; j + 1 < kept.size(); ++j) {
    const size_t first = static_cast<size_t>(kept[j]);
    const size_t last = static_cast<size_t>(kept[j + 1]);
    const TimedPoint& a = original[first];
    const TimedPoint& b = original[last];
    const kernels::SedSegment seg{a.position.x, a.position.y, a.t,
                                  b.position.x, b.position.y, b.t};
    for (size_t i = first + 1; i <= last; ++i) {
      const TimedPoint& p = original[i];
      const Vec2 prev = original[i - 1].position;
      kernels::SyncDeltaPoint(p.position.x, p.position.y, p.t, prev.x,
                              prev.y, seg, &dx[i], &dy[i]);
    }
  }
}

// Union of the two trajectories' vertex timestamps (both sorted).
std::vector<double> UnionTimeGrid(TrajectoryView original,
                                  TrajectoryView approximation) {
  std::vector<double> grid;
  grid.reserve(original.size() + approximation.size());
  size_t i = 0;
  size_t j = 0;
  while (i < original.size() || j < approximation.size()) {
    double t;
    if (j >= approximation.size() ||
        (i < original.size() && original[i].t <= approximation[j].t)) {
      t = original[i].t;
      ++i;
      if (j < approximation.size() && approximation[j].t == t) {
        ++j;
      }
    } else {
      t = approximation[j].t;
      ++j;
    }
    if (grid.empty() || t > grid.back()) {
      grid.push_back(t);
    }
  }
  return grid;
}

}  // namespace

double AverageLinearAbs(double s0, double s1) {
  if ((s0 >= 0.0) == (s1 >= 0.0)) {
    // No sign change: |linear| is linear.
    return 0.5 * (std::abs(s0) + std::abs(s1));
  }
  // Crosses zero at u0 = s0 / (s0 - s1); two triangles.
  const double u0 = s0 / (s0 - s1);
  return 0.5 * (u0 * std::abs(s0) + (1.0 - u0) * std::abs(s1));
}

double AverageLinearNorm(Vec2 d0, Vec2 d1) {
  const Vec2 g = d1 - d0;
  const double a = g.SquaredNorm();
  const double c = d0.SquaredNorm();
  const double c_end = d1.SquaredNorm();
  const double scale = std::max({a, c, c_end});
  if (scale == 0.0) {
    return 0.0;
  }
  // Paper case c1 = 0: the approximation is a translated copy of the
  // original segment; the distance is constant. We use a relative cutoff:
  // below it the norm varies by < ~1e-6 relative and the endpoint average
  // is exact to that order (avoids catastrophic cancellation in the general
  // branch).
  if (a <= 1e-12 * scale) {
    return 0.5 * (std::sqrt(c) + std::sqrt(c_end));
  }
  const double b = 2.0 * d0.Dot(g);
  // Discriminant of the quadratic under the root; mathematically >= 0
  // (Cauchy-Schwarz), clamp rounding noise.
  const double disc = std::max(0.0, 4.0 * a * c - b * b);
  if (disc <= 1e-24 * (4.0 * a * c + b * b) || disc == 0.0) {
    // Paper case c2^2 - 4 c1 c3 = 0 (shared start point, shared end point,
    // or parallel chords): |d(u)| = sqrt(a) * |u - u0|.
    const double u0 = -b / (2.0 * a);
    double integral;  // of |u - u0| over [0, 1]
    if (u0 <= 0.0) {
      integral = 0.5 - u0;
    } else if (u0 >= 1.0) {
      integral = u0 - 0.5;
    } else {
      integral = 0.5 * (u0 * u0 + (1.0 - u0) * (1.0 - u0));
    }
    return std::sqrt(a) * integral;
  }
  // General case: F(u) = (2au+b)/(4a) * sqrt(q(u))
  //                      + disc/(8 a^{3/2}) * asinh((2au+b)/sqrt(disc)).
  const double sqrt_a = std::sqrt(a);
  const auto antiderivative = [&](double u, double q) {
    const double lin = 2.0 * a * u + b;
    return lin / (4.0 * a) * std::sqrt(q) +
           disc / (8.0 * a * sqrt_a) * std::asinh(lin / std::sqrt(disc));
  };
  return antiderivative(1.0, c_end) - antiderivative(0.0, c);
}

Result<double> SynchronousError(TrajectoryView original,
                                TrajectoryView approximation) {
  STCOMP_RETURN_IF_ERROR(CheckComparable(original, approximation));
  const std::vector<double> grid = UnionTimeGrid(original, approximation);
  SegmentCursor original_cursor(original);
  SegmentCursor approximation_cursor(approximation);
  // Evaluate both trajectories once per grid vertex; each interval then
  // contributes its closed-form average times its duration (paper Eq. 3's
  // time weighting).
  double weighted_sum = 0.0;
  Vec2 previous_delta = original_cursor.At(grid.front()) -
                        approximation_cursor.At(grid.front());
  for (size_t k = 1; k < grid.size(); ++k) {
    const Vec2 delta =
        original_cursor.At(grid[k]) - approximation_cursor.At(grid[k]);
    weighted_sum +=
        (grid[k] - grid[k - 1]) * AverageLinearNorm(previous_delta, delta);
    previous_delta = delta;
  }
  const double duration = grid.back() - grid.front();
  if (duration <= 0.0) {
    return 0.0;
  }
  return weighted_sum / duration;
}

Result<double> SynchronousError(TrajectoryView original,
                                const algo::IndexList& kept) {
  STCOMP_RETURN_IF_ERROR(CheckKept(original, kept));
  // The union grid is the original's own (strictly increasing) timestamps,
  // so the deltas come from one pass over the original; the closed-form
  // interval averaging depends only on the deltas, so this is bit-identical
  // to the cursor walk of the two-view overload.
  thread_local DeltaScratch scratch;
  ComputeKeptDeltas(original, kept, scratch);
  const size_t n = original.size();
  double weighted_sum = 0.0;
  Vec2 previous_delta{scratch.dx[0], scratch.dy[0]};
  for (size_t k = 1; k < n; ++k) {
    const Vec2 delta{scratch.dx[k], scratch.dy[k]};
    weighted_sum += (original[k].t - original[k - 1].t) *
                    AverageLinearNorm(previous_delta, delta);
    previous_delta = delta;
  }
  const double duration = original.back().t - original.front().t;
  if (duration <= 0.0) {
    return 0.0;
  }
  return weighted_sum / duration;
}

Result<double> SynchronousErrorNumeric(TrajectoryView original,
                                       TrajectoryView approximation,
                                       double tolerance) {
  STCOMP_RETURN_IF_ERROR(CheckComparable(original, approximation));
  const std::vector<double> grid = UnionTimeGrid(original, approximation);
  double weighted_sum = 0.0;
  for (size_t k = 1; k < grid.size(); ++k) {
    // Simpson revisits interior times in non-monotone order, so cursors
    // don't apply; use PositionAt (binary search) instead.
    const auto distance_at = [&](double t) {
      const Vec2 p = original.PositionAt(t).value();
      const Vec2 q = approximation.PositionAt(t).value();
      return Distance(p, q);
    };
    weighted_sum +=
        AdaptiveSimpson(distance_at, grid[k - 1], grid[k], tolerance);
  }
  const double duration = grid.back() - grid.front();
  if (duration <= 0.0) {
    return 0.0;
  }
  return weighted_sum / duration;
}

Result<double> MaxSynchronousError(TrajectoryView original,
                                   TrajectoryView approximation) {
  STCOMP_RETURN_IF_ERROR(CheckComparable(original, approximation));
  const std::vector<double> grid = UnionTimeGrid(original, approximation);
  SegmentCursor original_cursor(original);
  SegmentCursor approximation_cursor(approximation);
  double worst = 0.0;
  for (double t : grid) {
    // kernels::Norm2, not Distance (hypot), so this overload agrees bit for
    // bit with the (view, kept) overload below when the approximation is a
    // materialised subset.
    const Vec2 delta =
        original_cursor.At(t) - approximation_cursor.At(t);
    worst = std::max(worst, kernels::Norm2(delta.x, delta.y));
  }
  return worst;
}

Result<double> MaxSynchronousError(TrajectoryView original,
                                   const algo::IndexList& kept) {
  STCOMP_RETURN_IF_ERROR(CheckKept(original, kept));
  thread_local DeltaScratch scratch;
  ComputeKeptDeltas(original, kept, scratch);
  double worst = 0.0;
  for (size_t k = 0; k < original.size(); ++k) {
    // std::max keeps `worst` on NaN, matching the former cursor loop.
    worst = std::max(worst, kernels::Norm2(scratch.dx[k], scratch.dy[k]));
  }
  return worst;
}

}  // namespace stcomp
