#include "stcomp/stream/opening_window_stream.h"

#include <cmath>

#include "stcomp/algo/spatiotemporal.h"
#include "stcomp/common/check.h"
#include "stcomp/common/strings.h"
#include "stcomp/core/trajectory_view.h"
#include "stcomp/geom/kernels.h"
#include "stcomp/store/varint.h"
#include "stcomp/stream/checkpoint.h"

namespace stcomp {

OpeningWindowStream::OpeningWindowStream(double epsilon_m,
                                         algo::BreakPolicy policy,
                                         StreamCriterion criterion,
                                         double speed_threshold_mps)
    : epsilon_m_(epsilon_m),
      policy_(policy),
      criterion_(criterion),
      speed_threshold_mps_(speed_threshold_mps) {
  STCOMP_CHECK(epsilon_m_ >= 0.0);
  STCOMP_CHECK(speed_threshold_mps_ >= 0.0);
  switch (criterion) {
    case StreamCriterion::kPerpendicular:
      name_ = policy == algo::BreakPolicy::kNormal ? "nopw-stream"
                                                   : "bopw-stream";
      break;
    case StreamCriterion::kSynchronized:
      name_ = "opw-tr-stream";
      break;
    case StreamCriterion::kSpatiotemporal:
      name_ = "opw-sp-stream";
      break;
  }
}

void OpeningWindowStream::Settle(std::vector<TimedPoint>* out) {
  // Replays float positions exactly as the batch loop would: all float
  // positions before window_.size()-1 were validated by earlier pushes, so
  // only the newest float needs checking — unless a cut shrinks the window,
  // after which every float position of the replayed tail is re-examined.
  bool need_full_replay = false;
  while (true) {
    const size_t size = window_.size();
    if (size < 3) {
      return;
    }
    // Anchor is window index 0; the scans are the batch layer's own,
    // evaluated over a view of the buffer.
    const TrajectoryView window(window_.data(), size);
    const size_t first_float = need_full_replay ? 2 : size - 1;
    bool cut_made = false;
    for (size_t f = first_float; f < size && !cut_made; ++f) {
      // Violation scan for the window (anchor = 0, float = f).
      int violation = -1;
      if (criterion_ == StreamCriterion::kSpatiotemporal) {
        // Batch OPW-SP's scan: the segment is built once per float
        // position, and a speed jump is tested only where the SED does
        // not fire.
        const TimedPoint& a = window_[0];
        const TimedPoint& b = window_[f];
        const kernels::SedSegment seg{a.position.x, a.position.y, a.t,
                                      b.position.x, b.position.y, b.t};
        for (size_t i = 1; i < f; ++i) {
          const TimedPoint& p = window_[i];
          if (kernels::SedDistancePoint(p.position.x, p.position.y, p.t,
                                        seg) > epsilon_m_ ||
              algo::SpeedJump(window, static_cast<int>(i)) >
                  speed_threshold_mps_) {
            violation = static_cast<int>(i);
            break;
          }
        }
      } else {
        violation = algo::FirstWindowViolation(
            window, 0, static_cast<int>(f),
            criterion_ == StreamCriterion::kPerpendicular
                ? algo::WindowCriterion::kPerpendicular
                : algo::WindowCriterion::kSynchronized,
            epsilon_m_);
      }
      if (violation >= 0) {
        const size_t cut = policy_ == algo::BreakPolicy::kNormal
                               ? static_cast<size_t>(violation)
                               : f - 1;
        out->push_back(window_[cut]);
        window_.erase(window_.begin(),
                      window_.begin() + static_cast<ptrdiff_t>(cut));
        cut_made = true;
      }
    }
    if (!cut_made) {
      return;
    }
    need_full_replay = true;
  }
}

Status OpeningWindowStream::Push(const TimedPoint& point,
                                 std::vector<TimedPoint>* out) {
  STCOMP_CHECK(out != nullptr);
  STCOMP_CHECK(!finished_);
  STCOMP_RETURN_IF_ERROR(ValidateFiniteFix(point));
  if (any_pushed_ && point.t <= last_time_) {
    return InvalidArgumentError(
        StrFormat("stream timestamps must increase (%f after %f)", point.t,
                  last_time_));
  }
  last_time_ = point.t;
  if (!any_pushed_) {
    any_pushed_ = true;
    out->push_back(point);  // The first fix is always kept.
    window_.push_back(point);
    return Status::Ok();
  }
  window_.push_back(point);
  Settle(out);
  return Status::Ok();
}

Status OpeningWindowStream::SaveState(std::string* out) const {
  STCOMP_CHECK(out != nullptr);
  PutString(name_, out);
  PutDouble(epsilon_m_, out);
  PutDouble(speed_threshold_mps_, out);
  PutDouble(last_time_, out);
  PutBool(any_pushed_, out);
  PutBool(finished_, out);
  PutPointVector(window_, out);
  return Status::Ok();
}

Status OpeningWindowStream::RestoreState(std::string_view state) {
  STCOMP_ASSIGN_OR_RETURN(const std::string_view saved_name,
                          GetString(&state));
  STCOMP_ASSIGN_OR_RETURN(const double epsilon, GetDouble(&state));
  STCOMP_ASSIGN_OR_RETURN(const double speed, GetDouble(&state));
  if (saved_name != name_ || epsilon != epsilon_m_ ||
      speed != speed_threshold_mps_) {
    return InvalidArgumentError(
        "checkpoint was taken by a differently configured compressor (" +
        std::string(saved_name) + ")");
  }
  STCOMP_ASSIGN_OR_RETURN(last_time_, GetDouble(&state));
  STCOMP_ASSIGN_OR_RETURN(any_pushed_, GetBool(&state));
  STCOMP_RETURN_IF_ERROR(GetUnfinished(&state));
  finished_ = false;
  window_.clear();
  STCOMP_RETURN_IF_ERROR(GetPointVector(&state, &window_));
  if (!state.empty()) {
    return DataLossError("trailing bytes in compressor checkpoint");
  }
  return Status::Ok();
}

void OpeningWindowStream::Finish(std::vector<TimedPoint>* out) {
  STCOMP_CHECK(out != nullptr);
  finished_ = true;
  // Keep the final fix unless it is the anchor itself (already emitted).
  if (window_.size() >= 2) {
    out->push_back(window_.back());
  }
  window_.clear();
}

}  // namespace stcomp
