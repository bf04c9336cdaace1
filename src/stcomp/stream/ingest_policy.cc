#include "stcomp/stream/ingest_policy.h"

#include <algorithm>
#include <cmath>

#include "stcomp/common/check.h"
#include "stcomp/common/strings.h"
#include "stcomp/obs/flight_recorder.h"
#include "stcomp/store/varint.h"
#include "stcomp/stream/checkpoint.h"

namespace stcomp {

std::string_view IngestModeToString(IngestMode mode) {
  switch (mode) {
    case IngestMode::kReject:
      return "reject";
    case IngestMode::kDropAndCount:
      return "drop-and-count";
    case IngestMode::kRepair:
      return "repair";
  }
  return "unknown";
}

IngestCounters IngestCounters::ForInstance(const std::string& instance) {
  auto& registry = obs::MetricsRegistry::Global();
  const obs::LabelSet labels{{"compressor", instance}};
  return IngestCounters{
      registry.GetCounter("stcomp_ingest_dropped_total", labels),
      registry.GetCounter("stcomp_ingest_repaired_total", labels),
      registry.GetCounter("stcomp_ingest_quarantined_total", labels)};
}

IngestGate::IngestGate(const IngestPolicy& policy,
                       const IngestCounters& counters, std::string tag)
    : policy_(policy), counters_(counters), tag_(std::move(tag)) {
  STCOMP_CHECK(counters_.dropped != nullptr);
  STCOMP_CHECK(counters_.repaired != nullptr);
  STCOMP_CHECK(counters_.quarantined != nullptr);
  STCOMP_CHECK(policy_.reorder_window_s >= 0.0);
  STCOMP_CHECK(policy_.quarantine_after >= 0);
}

Status IngestGate::RecordFault(obs::Counter* counter,
                               std::string_view detail) {
  counter->Increment();
  if (counter == counters_.repaired) {
    ++repaired_;
    STCOMP_FLIGHT_EVENT(kGateRepair, tag_,
                        static_cast<uint64_t>(consecutive_faults_ + 1), 0);
  } else {
    ++dropped_;
    STCOMP_FLIGHT_EVENT(kGateDrop, tag_,
                        static_cast<uint64_t>(consecutive_faults_ + 1), 0);
  }
  ++consecutive_faults_;
  if (policy_.quarantine_after > 0 && !quarantined_ &&
      consecutive_faults_ >= policy_.quarantine_after) {
    quarantined_ = true;
    STCOMP_FLIGHT_EVENT(kGateQuarantine, tag_,
                        static_cast<uint64_t>(consecutive_faults_), 0);
    // The quarantine transition is the stream layer's "something is badly
    // wrong with this feed" moment — preserve the evidence.
    STCOMP_IF_METRICS(obs::FlightRecorder::DumpGlobal(
        "ingest quarantine: " + (tag_.empty() ? "<untagged>" : tag_)));
  }
  if (policy_.mode == IngestMode::kReject) {
    return InvalidArgumentError(detail);
  }
  return Status::Ok();
}

Status IngestGate::Admit(const TimedPoint& fix,
                         std::vector<TimedPoint>* admitted) {
  STCOMP_CHECK(admitted != nullptr);
  if (quarantined_) {
    counters_.quarantined->Increment();
    if (policy_.mode == IngestMode::kReject) {
      STCOMP_FLIGHT_EVENT(kGateRejected, tag_, 0, 0);
      return FailedPreconditionError("object is quarantined");
    }
    return Status::Ok();
  }
  if (!std::isfinite(fix.t) || !std::isfinite(fix.position.x) ||
      !std::isfinite(fix.position.y)) {
    return RecordFault(counters_.dropped,
                       "fix has non-finite timestamp or coordinates");
  }
  if (policy_.mode != IngestMode::kRepair) {
    if (any_released_ && fix.t <= last_released_t_) {
      return RecordFault(
          counters_.dropped,
          StrFormat("fix at t=%.9g not after previous t=%.9g", fix.t,
                    last_released_t_));
    }
    consecutive_faults_ = 0;
    admitted->push_back(fix);
    last_released_t_ = fix.t;
    any_released_ = true;
    return Status::Ok();
  }
  // kRepair: dedup exact-duplicate timestamps, hold and re-sort late fixes
  // within the reorder window, drop what is beyond repair.
  // In kRepair mode RecordFault never returns an error (that is kReject's
  // contract), so its status is ignored below.
  if (any_released_ && fix.t <= last_released_t_) {
    if (fix.t == last_released_t_) {
      RecordFault(counters_.repaired, "duplicate timestamp (dedup)");
    } else {
      RecordFault(counters_.dropped, "fix older than the release watermark");
    }
    return Status::Ok();
  }
  const bool late = any_seen_ && fix.t < max_seen_t_;
  const auto at = std::lower_bound(
      held_.begin(), held_.end(), fix.t,
      [](const TimedPoint& held, double t) { return held.t < t; });
  if (at != held_.end() && at->t == fix.t) {
    RecordFault(counters_.repaired, "duplicate timestamp (dedup)");
  } else {
    held_.insert(at, fix);
    if (late) {
      RecordFault(counters_.repaired, "late fix re-sorted");
    } else {
      consecutive_faults_ = 0;
    }
  }
  any_seen_ = true;
  max_seen_t_ = std::max(max_seen_t_, fix.t);
  Release(admitted);
  return Status::Ok();
}

void IngestGate::Release(std::vector<TimedPoint>* admitted) {
  const double watermark = max_seen_t_ - policy_.reorder_window_s;
  size_t n = 0;
  while (n < held_.size() && held_[n].t <= watermark) {
    ++n;
  }
  if (n == 0) {
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    admitted->push_back(held_[i]);
  }
  last_released_t_ = held_[n - 1].t;
  any_released_ = true;
  held_.erase(held_.begin(), held_.begin() + static_cast<ptrdiff_t>(n));
}

Status IngestGate::SaveState(std::string* out) const {
  STCOMP_CHECK(out != nullptr);
  out->push_back(static_cast<char>(policy_.mode));
  PutDouble(policy_.reorder_window_s, out);
  PutSignedVarint(policy_.quarantine_after, out);
  PutPointVector(held_, out);
  PutDouble(last_released_t_, out);
  PutDouble(max_seen_t_, out);
  PutBool(any_released_, out);
  PutBool(any_seen_, out);
  PutSignedVarint(consecutive_faults_, out);
  PutBool(quarantined_, out);
  return Status::Ok();
}

Status IngestGate::RestoreState(std::string_view state) {
  if (state.empty()) {
    return DataLossError("ingest gate checkpoint truncated");
  }
  const auto mode = static_cast<IngestMode>(state.front());
  state.remove_prefix(1);
  STCOMP_ASSIGN_OR_RETURN(const double reorder_window, GetDouble(&state));
  STCOMP_ASSIGN_OR_RETURN(const int64_t quarantine_after,
                          GetSignedVarint(&state));
  if (mode != policy_.mode || reorder_window != policy_.reorder_window_s ||
      quarantine_after != policy_.quarantine_after) {
    return InvalidArgumentError(
        "checkpoint was taken under a different ingest policy");
  }
  held_.clear();
  STCOMP_RETURN_IF_ERROR(GetPointVector(&state, &held_));
  STCOMP_ASSIGN_OR_RETURN(last_released_t_, GetDouble(&state));
  STCOMP_ASSIGN_OR_RETURN(max_seen_t_, GetDouble(&state));
  STCOMP_ASSIGN_OR_RETURN(any_released_, GetBool(&state));
  STCOMP_ASSIGN_OR_RETURN(any_seen_, GetBool(&state));
  STCOMP_ASSIGN_OR_RETURN(const int64_t faults, GetSignedVarint(&state));
  consecutive_faults_ = static_cast<int>(faults);
  STCOMP_ASSIGN_OR_RETURN(quarantined_, GetBool(&state));
  if (!state.empty()) {
    return DataLossError("trailing bytes in ingest gate checkpoint");
  }
  return Status::Ok();
}

void IngestGate::Flush(std::vector<TimedPoint>* admitted) {
  STCOMP_CHECK(admitted != nullptr);
  for (const TimedPoint& fix : held_) {
    admitted->push_back(fix);
  }
  if (!held_.empty()) {
    last_released_t_ = held_.back().t;
    any_released_ = true;
    held_.clear();
  }
}

}  // namespace stcomp
