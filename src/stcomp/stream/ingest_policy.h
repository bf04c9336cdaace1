// Ingest hardening for the stream layer (DESIGN.md §12).
//
// The compression algorithms assume clean, strictly time-ordered, finite
// fixes; real feeds deliver out-of-order, duplicated and NaN-laden records.
// An IngestGate sits in front of a compressor and applies a per-object
// IngestPolicy to every raw fix *before* it reaches the algorithm: faults
// surface as Status (kReject), are counted and swallowed (kDropAndCount),
// or are repaired by dedup/bounded resort (kRepair) — never undefined
// behaviour downstream.
//
// Every gate decision is counted in the process-wide registry under the
// instance's {compressor=<instance>} labels:
//   stcomp_ingest_dropped_total      fixes discarded (unrepairable)
//   stcomp_ingest_repaired_total     fixes admitted after dedup/resort
//   stcomp_ingest_quarantined_total  fixes refused because the object
//                                    tripped the quarantine threshold

#ifndef STCOMP_STREAM_INGEST_POLICY_H_
#define STCOMP_STREAM_INGEST_POLICY_H_

#include <string>
#include <vector>

#include "stcomp/common/status.h"
#include "stcomp/core/trajectory.h"
#include "stcomp/obs/metrics.h"

namespace stcomp {

// What the gate does with a fix that violates the ingest contract
// (non-finite timestamp/coordinates, non-monotonic timestamp).
enum class IngestMode {
  // Surface kInvalidArgument to the caller; nothing faulty is admitted.
  // The strict, fail-loud default — matches the historical behaviour of
  // pushing out-of-order fixes straight into a compressor.
  kReject,
  // Swallow the faulty fix, count it dropped, keep the stream alive.
  kDropAndCount,
  // Fix what is fixable: exact-duplicate timestamps are dropped as
  // repairs, late fixes within `reorder_window_s` are held and re-sorted;
  // everything else (non-finite, too stale) is dropped.
  kRepair,
};

std::string_view IngestModeToString(IngestMode mode);

struct IngestPolicy {
  IngestMode mode = IngestMode::kReject;

  // kRepair only: admitted fixes are released once the newest observed
  // timestamp is at least this far past them, so a fix arriving up to
  // `reorder_window_s` late is merged back in order. 0 releases
  // immediately (repair degenerates to dedup).
  double reorder_window_s = 0.0;

  // After this many *consecutive* faulty fixes the object is quarantined:
  // all later fixes are counted quarantined and discarded (kReject mode
  // additionally surfaces kFailedPrecondition). 0 disables quarantine.
  int quarantine_after = 0;
};

// Registry-owned counters for one gate instance; pointers live for the
// process lifetime.
struct IngestCounters {
  obs::Counter* dropped = nullptr;
  obs::Counter* repaired = nullptr;
  obs::Counter* quarantined = nullptr;

  // The stcomp_ingest_* series labelled {compressor=instance}.
  static IngestCounters ForInstance(const std::string& instance);
};

// Per-object stateful validator. Admit() classifies one raw fix and
// appends every fix cleared for compression — in strictly increasing time
// order, each exactly once across the gate's lifetime — to `admitted`.
class IngestGate {
 public:
  // `tag` names the guarded stream in flight-recorder events (typically
  // the object id); empty leaves the events untagged.
  IngestGate(const IngestPolicy& policy, const IngestCounters& counters,
             std::string tag = "");

  // Returns non-OK only in kReject mode (kInvalidArgument for a faulty
  // fix, kFailedPrecondition once quarantined); the other modes always
  // return OK and account for the fault in the counters instead.
  // `admitted` is appended to, not cleared.
  Status Admit(const TimedPoint& fix, std::vector<TimedPoint>* admitted);

  // Releases any fixes still held in the reorder buffer (kRepair). Call
  // before finishing the downstream compressor.
  void Flush(std::vector<TimedPoint>* admitted);

  bool quarantined() const { return quarantined_; }
  // Fixes currently held for reordering (kRepair working memory).
  size_t held_points() const { return held_.size(); }

  // This gate's own fault tallies (the registry counters aggregate every
  // gate of an instance; /objectz needs them per object).
  uint64_t dropped() const { return dropped_; }
  uint64_t repaired() const { return repaired_; }

  // Checkpoint/restore (DESIGN.md §13): the reorder buffer, watermarks and
  // quarantine/fault counters, behind a policy config echo — a restarted
  // pipeline resumes with the same admission decisions. Counters are
  // process-wide registry series and are not part of the state.
  Status SaveState(std::string* out) const;
  Status RestoreState(std::string_view state);

 private:
  Status RecordFault(obs::Counter* counter, std::string_view detail);
  void Release(std::vector<TimedPoint>* admitted);

  const IngestPolicy policy_;
  const IngestCounters counters_;
  const std::string tag_;
  uint64_t dropped_ = 0;
  uint64_t repaired_ = 0;
  // Reorder buffer, sorted by strictly increasing t (kRepair only).
  std::vector<TimedPoint> held_;
  double last_released_t_ = 0.0;
  double max_seen_t_ = 0.0;
  bool any_released_ = false;
  bool any_seen_ = false;
  int consecutive_faults_ = 0;
  bool quarantined_ = false;
};

}  // namespace stcomp

#endif  // STCOMP_STREAM_INGEST_POLICY_H_
