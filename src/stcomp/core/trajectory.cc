#include "stcomp/core/trajectory.h"

#include <algorithm>

#include "stcomp/common/check.h"
#include "stcomp/common/strings.h"
#include "stcomp/core/trajectory_view.h"

namespace stcomp {

Result<Trajectory> Trajectory::FromPoints(std::vector<TimedPoint> points) {
  for (size_t i = 1; i < points.size(); ++i) {
    if (points[i].t <= points[i - 1].t) {
      return InvalidArgumentError(StrFormat(
          "timestamps not strictly increasing at index %zu (%f <= %f)", i,
          points[i].t, points[i - 1].t));
    }
  }
  Trajectory trajectory;
  trajectory.points_ = std::move(points);
  return trajectory;
}

Trajectory Trajectory::FromUnordered(std::vector<TimedPoint> points) {
  std::stable_sort(points.begin(), points.end(),
                   [](const TimedPoint& a, const TimedPoint& b) {
                     return a.t < b.t;
                   });
  std::vector<TimedPoint> unique;
  unique.reserve(points.size());
  for (const TimedPoint& point : points) {
    if (unique.empty() || point.t > unique.back().t) {
      unique.push_back(point);
    }
  }
  Trajectory trajectory;
  trajectory.points_ = std::move(unique);
  return trajectory;
}

Status Trajectory::Append(const TimedPoint& point) {
  if (!points_.empty() && point.t <= points_.back().t) {
    return InvalidArgumentError(
        StrFormat("appended timestamp %f not after trajectory end %f", point.t,
                  points_.back().t));
  }
  points_.push_back(point);
  return Status::Ok();
}

double Trajectory::Duration() const {
  return TrajectoryView(*this).Duration();
}

double Trajectory::Length() const {
  double length = 0.0;
  for (size_t i = 1; i < points_.size(); ++i) {
    length += Distance(points_[i - 1].position, points_[i].position);
  }
  return length;
}

double Trajectory::Displacement() const {
  if (points_.size() < 2) {
    return 0.0;
  }
  return Distance(points_.front().position, points_.back().position);
}

double Trajectory::AverageSpeed() const {
  const double duration = Duration();
  if (duration <= 0.0) {
    return 0.0;
  }
  return Length() / duration;
}

Result<Vec2> Trajectory::PositionAt(double t) const {
  return TrajectoryView(*this).PositionAt(t);
}

Trajectory Trajectory::Slice(size_t first, size_t last) const {
  STCOMP_CHECK(first <= last && last < points_.size());
  Trajectory result;
  result.points_.assign(points_.begin() + static_cast<ptrdiff_t>(first),
                        points_.begin() + static_cast<ptrdiff_t>(last) + 1);
  result.name_ = name_;
  return result;
}

Trajectory Trajectory::Subset(const std::vector<int>& kept_indices) const {
  Trajectory result = stcomp::Subset(*this, kept_indices);
  result.name_ = name_;
  return result;
}

double Trajectory::SegmentSpeed(size_t i) const {
  return TrajectoryView(*this).SegmentSpeed(i);
}

std::vector<double> Trajectory::SegmentSpeeds() const {
  std::vector<double> speeds;
  if (points_.size() < 2) {
    return speeds;
  }
  speeds.reserve(points_.size() - 1);
  for (size_t i = 0; i + 1 < points_.size(); ++i) {
    speeds.push_back(SegmentSpeed(i));
  }
  return speeds;
}

}  // namespace stcomp
