#include "stcomp/stream/dead_reckoning_stream.h"

#include "stcomp/common/check.h"
#include "stcomp/common/strings.h"
#include "stcomp/store/varint.h"
#include "stcomp/stream/checkpoint.h"

namespace stcomp {

DeadReckoningStream::DeadReckoningStream(double epsilon_m)
    : epsilon_m_(epsilon_m) {
  STCOMP_CHECK(epsilon_m_ >= 0.0);
}

Status DeadReckoningStream::Push(const TimedPoint& point,
                                 std::vector<TimedPoint>* out) {
  STCOMP_CHECK(out != nullptr);
  STCOMP_CHECK(!finished_);
  STCOMP_RETURN_IF_ERROR(ValidateFiniteFix(point));
  if (last_committed_.has_value() && point.t <= pending_.value_or(
                                                    *last_committed_).t) {
    return InvalidArgumentError(
        StrFormat("stream timestamps must increase at t=%f", point.t));
  }
  if (!last_committed_.has_value()) {
    last_committed_ = point;
    out->push_back(point);
    return Status::Ok();
  }
  if (!velocity_mps_.has_value()) {
    // First fix after a commit calibrates the velocity estimate.
    const double dt = point.t - last_committed_->t;
    velocity_mps_ = (point.position - last_committed_->position) / dt;
    pending_ = point;
    return Status::Ok();
  }
  const double dt = point.t - last_committed_->t;
  const Vec2 predicted = last_committed_->position + *velocity_mps_ * dt;
  if (Distance(predicted, point.position) > epsilon_m_) {
    // Prediction broke: commit this fix and re-calibrate from it.
    last_committed_ = point;
    velocity_mps_.reset();
    pending_.reset();
    out->push_back(point);
  } else {
    pending_ = point;
  }
  return Status::Ok();
}

Status DeadReckoningStream::SaveState(std::string* out) const {
  STCOMP_CHECK(out != nullptr);
  PutDouble(epsilon_m_, out);
  PutBool(finished_, out);
  PutBool(last_committed_.has_value(), out);
  if (last_committed_.has_value()) {
    PutTimedPoint(*last_committed_, out);
  }
  PutBool(velocity_mps_.has_value(), out);
  if (velocity_mps_.has_value()) {
    PutDouble(velocity_mps_->x, out);
    PutDouble(velocity_mps_->y, out);
  }
  PutBool(pending_.has_value(), out);
  if (pending_.has_value()) {
    PutTimedPoint(*pending_, out);
  }
  return Status::Ok();
}

Status DeadReckoningStream::RestoreState(std::string_view state) {
  STCOMP_ASSIGN_OR_RETURN(const double epsilon, GetDouble(&state));
  if (epsilon != epsilon_m_) {
    return InvalidArgumentError(
        "checkpoint was taken by a differently configured compressor");
  }
  STCOMP_RETURN_IF_ERROR(GetUnfinished(&state));
  finished_ = false;
  STCOMP_ASSIGN_OR_RETURN(bool present, GetBool(&state));
  last_committed_.reset();
  if (present) {
    STCOMP_ASSIGN_OR_RETURN(last_committed_, GetTimedPoint(&state));
  }
  STCOMP_ASSIGN_OR_RETURN(present, GetBool(&state));
  velocity_mps_.reset();
  if (present) {
    Vec2 velocity;
    STCOMP_ASSIGN_OR_RETURN(velocity.x, GetDouble(&state));
    STCOMP_ASSIGN_OR_RETURN(velocity.y, GetDouble(&state));
    velocity_mps_ = velocity;
  }
  STCOMP_ASSIGN_OR_RETURN(present, GetBool(&state));
  pending_.reset();
  if (present) {
    STCOMP_ASSIGN_OR_RETURN(pending_, GetTimedPoint(&state));
  }
  if (!state.empty()) {
    return DataLossError("trailing bytes in compressor checkpoint");
  }
  return Status::Ok();
}

void DeadReckoningStream::Finish(std::vector<TimedPoint>* out) {
  STCOMP_CHECK(out != nullptr);
  finished_ = true;
  if (pending_.has_value()) {
    out->push_back(*pending_);  // Preserve the final fix.
    pending_.reset();
  }
}

}  // namespace stcomp
