#include "stcomp/testing/faulty_source.h"

#include <limits>
#include <utility>

#include "stcomp/common/check.h"
#include "stcomp/common/strings.h"

namespace stcomp::testing {

FaultyFixSource::FaultyFixSource(std::vector<FleetFix> clean, FaultPlan* plan)
    : clean_(std::move(clean)), plan_(plan) {
  STCOMP_CHECK(plan_ != nullptr);
}

bool FaultyFixSource::Next(FaultyFeedEvent* event) {
  STCOMP_CHECK(event != nullptr);
  if (!pending_.empty()) {
    *event = std::move(pending_.front());
    pending_.pop_front();
    ++events_emitted_;
    return true;
  }
  if (index_ >= clean_.size()) {
    return false;
  }
  const size_t i = index_++;
  FleetFix fix = clean_[i];
  Rng* rng = plan_->rng();
  const FaultPlanOptions& options = plan_->options();
  // Fixed draw order per record so the fault sequence is a pure function
  // of (seed, feed length): io-error, duplicate, regression, jitter, NaN.
  if (rng->NextBool(options.io_error_probability)) {
    // Transient read failure: the fix itself is delivered on the next
    // pull, like a retried socket read.
    plan_->Record(StrFormat("io-error#%zu", i));
    event->kind = FaultyFeedEvent::Kind::kTransientError;
    event->error =
        UnavailableError(StrFormat("injected read failure before fix %zu", i));
  } else {
    event->kind = FaultyFeedEvent::Kind::kFix;
    event->error = Status::Ok();
  }
  if (rng->NextBool(options.duplicate_fix_probability)) {
    plan_->Record(StrFormat("dup-fix#%zu", i));
    FaultyFeedEvent duplicate;
    duplicate.kind = FaultyFeedEvent::Kind::kFix;
    duplicate.fix = fix;
    pending_.push_back(std::move(duplicate));
  }
  if (rng->NextBool(options.regress_time_probability)) {
    const double back = rng->NextUniform(0.5, 30.0);
    fix.fix.t -= back;
    plan_->Record(StrFormat("regress#%zu-%.3fs", i, back));
  }
  if (rng->NextBool(options.jitter_time_probability)) {
    const double jitter =
        rng->NextUniform(-options.jitter_max_s, options.jitter_max_s);
    fix.fix.t += jitter;
    plan_->Record(StrFormat("jitter#%zu%+.3fs", i, jitter));
  }
  if (rng->NextBool(options.nan_coordinate_probability)) {
    const bool x_axis = rng->NextBool(0.5);
    (x_axis ? fix.fix.position.x : fix.fix.position.y) =
        std::numeric_limits<double>::quiet_NaN();
    plan_->Record(StrFormat("nan#%zu.%c", i, x_axis ? 'x' : 'y'));
  }
  if (event->kind == FaultyFeedEvent::Kind::kTransientError) {
    // Deliver the (possibly corrupted) fix after the error event.
    FaultyFeedEvent retry;
    retry.kind = FaultyFeedEvent::Kind::kFix;
    retry.fix = std::move(fix);
    pending_.push_front(std::move(retry));
  } else {
    event->fix = std::move(fix);
  }
  ++events_emitted_;
  return true;
}

}  // namespace stcomp::testing
