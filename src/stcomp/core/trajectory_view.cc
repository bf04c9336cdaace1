#include "stcomp/core/trajectory_view.h"

#include <algorithm>

#include "stcomp/common/check.h"
#include "stcomp/common/strings.h"
#include "stcomp/core/interpolation.h"
#include "stcomp/geom/kernels.h"

namespace stcomp {

TrajectoryView TrajectoryView::subspan(size_t offset, size_t count) const {
  STCOMP_CHECK(offset <= size_ && count <= size_ - offset);
  return TrajectoryView(data_ + offset, count);
}

TrajectoryView TrajectoryView::Slice(size_t first, size_t last) const {
  STCOMP_CHECK(first <= last && last < size_);
  return TrajectoryView(data_ + first, last - first + 1);
}

double TrajectoryView::SegmentSpeed(size_t i) const {
  STCOMP_CHECK(i + 1 < size_);
  const double dt = data_[i + 1].t - data_[i].t;
  STCOMP_DCHECK(dt > 0.0);
  // Helper norm (sqrt, not hypot), the norm of every distance in
  // geom/kernels.h (DESIGN.md §14).
  return kernels::Norm2(data_[i + 1].position.x - data_[i].position.x,
                        data_[i + 1].position.y - data_[i].position.y) /
         dt;
}

Result<Vec2> TrajectoryView::PositionAt(double t) const {
  if (empty()) {
    return OutOfRangeError("PositionAt on empty trajectory");
  }
  if (t < front().t || t > back().t) {
    return OutOfRangeError(StrFormat(
        "time %f outside trajectory interval [%f, %f]", t, front().t,
        back().t));
  }
  // Find the first sample with timestamp >= t.
  const TimedPoint* it = std::lower_bound(
      begin(), end(), t,
      [](const TimedPoint& point, double value) { return point.t < value; });
  if (it->t == t) {
    return it->position;
  }
  const TimedPoint& after = *it;
  const TimedPoint& before = *(it - 1);
  return InterpolatePosition(before, after, t);
}

Trajectory Subset(TrajectoryView view, const std::vector<int>& kept_indices) {
  std::vector<TimedPoint> points;
  points.reserve(kept_indices.size());
  int previous = -1;
  for (int index : kept_indices) {
    STCOMP_CHECK(index > previous && static_cast<size_t>(index) < view.size());
    points.push_back(view[static_cast<size_t>(index)]);
    previous = index;
  }
  // The subset of a time-monotone range is time-monotone.
  return Trajectory::FromPoints(std::move(points)).value();
}

}  // namespace stcomp
