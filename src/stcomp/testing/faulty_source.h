// FaultyFixSource: replays a clean, interleaved multi-object fix feed with
// deterministic faults drawn from a FaultPlan — the dirty-data regime
// (duplicated records, timestamp regression/jitter, NaN coordinates,
// transient mid-stream I/O errors) that the stream layer's IngestPolicy
// (stream/ingest_policy.h) exists to absorb. Feeding the faulted events
// into a FleetCompressor is the standard ingest-hardening harness; see
// tests/fault_plan_test.cc and examples/ingest_faults_demo.cpp.

#ifndef STCOMP_TESTING_FAULTY_SOURCE_H_
#define STCOMP_TESTING_FAULTY_SOURCE_H_

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "stcomp/common/status.h"
#include "stcomp/core/trajectory.h"
#include "stcomp/testing/fault_plan.h"

namespace stcomp::testing {

// One record of an interleaved fleet feed.
struct FleetFix {
  std::string object_id;
  TimedPoint fix;
};

// One event out of the faulty feed: either a (possibly corrupted) fix or a
// transient (kUnavailable) read failure the consumer is expected to retry.
struct FaultyFeedEvent {
  enum class Kind { kFix, kTransientError };
  Kind kind = Kind::kFix;
  FleetFix fix;  // Valid when kind == kFix.
  Status error;  // Non-OK when kind == kTransientError.
};

class FaultyFixSource {
 public:
  // `plan` must outlive the source; its RNG drives every fault decision,
  // so interleaving other draws on the same plan changes the sequence.
  FaultyFixSource(std::vector<FleetFix> clean, FaultPlan* plan);

  // Produces the next event; false when the feed is exhausted.
  bool Next(FaultyFeedEvent* event);

  // Events emitted so far (fixes + I/O errors).
  size_t events_emitted() const { return events_emitted_; }

 private:
  std::vector<FleetFix> clean_;
  FaultPlan* plan_;
  size_t index_ = 0;
  size_t events_emitted_ = 0;
  std::deque<FaultyFeedEvent> pending_;
};

}  // namespace stcomp::testing

#endif  // STCOMP_TESTING_FAULTY_SOURCE_H_
