// Multi-object online compression: routes an interleaved fix stream
// (object id, fix) to one OnlineCompressor per object and appends each
// object's committed points to a TrajectoryStore — the full server-side
// ingestion path the paper's introduction motivates (many devices, one
// database, compress on arrival).
//
// Observability: every instance registers its own metric series under
// {compressor=<instance>} labels — fixes in/out counters (the public
// fixes_in()/fixes_out() accessors are shims over them), active-object and
// buffered-point gauges, a sampled per-push latency histogram, and a trace
// span per object finish. See DESIGN.md §10.
//
// Ingest hardening (DESIGN.md §12): every fix passes a per-object
// IngestGate before it reaches the object's compressor, so dirty feeds
// (non-finite values, duplicates, out-of-order timestamps) surface as
// Status or are counted/repaired per the configured IngestPolicy —
// stcomp_ingest_{dropped,repaired,quarantined}_total under this instance's
// labels. The default policy (kReject) preserves the historical contract:
// faulty fixes fail with kInvalidArgument and nothing reaches the store.
//
// Sharding (DESIGN.md §16): a FleetCompressor is the per-shard engine of
// ShardedFleetCompressor (stream/sharded_fleet.h). The sink constructor
// lets committed points flow into any durability layer (a per-shard
// SegmentStore partition, a network forwarder); the TrajectoryStore
// constructor remains the single-shard in-memory case. Synchronization is
// the caller's — the sharded engine serializes all access per shard.

#ifndef STCOMP_STREAM_FLEET_COMPRESSOR_H_
#define STCOMP_STREAM_FLEET_COMPRESSOR_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "stcomp/obs/metrics.h"
#include "stcomp/store/trajectory_store.h"
#include "stcomp/stream/ingest_policy.h"
#include "stcomp/stream/online_compressor.h"

namespace stcomp {

class FleetCompressor {
 public:
  // Receives every committed point, in per-object time order. Must not
  // re-enter the FleetCompressor.
  using AppendSink =
      std::function<Status(const std::string& object_id,
                           const TimedPoint& point)>;

  // `factory` builds a fresh compressor for every new object id; `store`
  // receives committed points (must outlive the FleetCompressor);
  // `policy` is the ingest policy applied per object. `instance` names
  // this compressor's metric series; empty picks a unique "fleet-<n>" so
  // concurrent instances never share counters.
  FleetCompressor(
      std::function<std::unique_ptr<OnlineCompressor>()> factory,
      TrajectoryStore* store, const IngestPolicy& policy = {},
      std::string instance = "");

  // Generic-sink form: committed points go to `sink` instead of a
  // TrajectoryStore (the sharded engine passes its shard's SegmentStore
  // partition here). A failing sink is handled exactly like a failing
  // store append: accounting stays consistent, the error surfaces.
  FleetCompressor(
      std::function<std::unique_ptr<OnlineCompressor>()> factory,
      AppendSink sink, const IngestPolicy& policy, std::string instance = "");

  // Feeds one fix for `object_id`; commits flow into the store.
  // Under the default (kReject) policy: kInvalidArgument for out-of-order
  // or non-finite fixes of the same object; other policies absorb faults
  // and return OK (see ingest_policy.h). Takes a string_view and looks the
  // object up heterogeneously, so callers holding string_views push
  // without materializing a std::string per fix.
  Status Push(std::string_view object_id, const TimedPoint& fix);

  // Ends one object's stream (flushes its tail, removes its compressor).
  // kNotFound for unknown ids.
  Status FinishObject(std::string_view object_id);

  // Ends all remaining streams.
  Status FinishAll();

  size_t active_objects() const { return compressors_.size(); }

  // Total fixes pushed and committed across all objects so far: the live
  // compression dashboard the ingestion path exposes. Reads the registry
  // counters backing this instance's metric series; only successfully
  // appended points count as out, so fixes_out() <= fixes_in() holds even
  // when the store rejects an append mid-drain.
  size_t fixes_in() const { return fixes_in_->value(); }
  size_t fixes_out() const { return fixes_out_->value(); }
  // Points currently buffered across all objects (working memory).
  size_t buffered_points() const;

  // The label value under which this instance's metrics are registered.
  const std::string& instance() const { return instance_; }

  // Per-object live view for /objectz: fixes in/out, compression ratio,
  // working memory and ingest-policy state of every active stream.
  // Synchronization is the caller's (same contract as Push/FinishObject).
  struct ObjectInfo {
    std::string object_id;
    uint64_t fixes_in = 0;
    uint64_t fixes_out = 0;  // committed to the store
    size_t buffered_points = 0;
    uint64_t dropped = 0;
    uint64_t repaired = 0;
    bool quarantined = false;
  };
  std::vector<ObjectInfo> ObjectsSnapshot() const;
  // One active object's stats without building the full snapshot
  // (heterogeneous lookup; no allocation on the miss path). nullopt for
  // unknown ids.
  std::optional<ObjectInfo> ObjectStats(std::string_view object_id) const;
  // What the admin server's /objectz endpoint serves: RenderObjectzJson
  // over ObjectsSnapshot(), without a "shards" field.
  std::string RenderObjectsJson(size_t limit = 0) const;

  const IngestPolicy& policy() const { return policy_; }

  // Ingest-gate decisions across all objects so far (shims over this
  // instance's stcomp_ingest_* registry counters).
  size_t ingest_dropped() const { return ingest_counters_.dropped->value(); }
  size_t ingest_repaired() const { return ingest_counters_.repaired->value(); }
  size_t ingest_quarantined() const {
    return ingest_counters_.quarantined->value();
  }

  // Checkpoint/restore (DESIGN.md §13): one "STCK" image holding every
  // open object stream (its gate + compressor state plus its lifetime
  // fixes in/out counters, so /objectz ratios survive a restart). RestoreState
  // requires an empty fleet (no objects pushed yet), rebuilds each
  // object's compressor through the factory and loads its state — a
  // restarted ingestion process resumes exactly where the checkpoint was
  // taken. The store is durable separately (SegmentStore); it is not part
  // of this image. Fails with kUnimplemented if the factory's compressor
  // does not checkpoint, kInvalidArgument on a policy mismatch.
  Status SaveState(std::string* out) const;
  Status RestoreState(std::string_view image);

 private:
  struct ObjectState {
    std::unique_ptr<OnlineCompressor> compressor;
    IngestGate gate;
    uint64_t fixes_in = 0;
    uint64_t fixes_out = 0;
  };

  Status Drain(std::string_view object_id, ObjectState* state,
               std::vector<TimedPoint>* committed);
  static ObjectInfo MakeObjectInfo(const std::string& object_id,
                                   const ObjectState& state);

  std::function<std::unique_ptr<OnlineCompressor>()> factory_;
  AppendSink sink_;
  IngestPolicy policy_;
  std::string instance_;
  // Transparent comparator: Push/FinishObject/ObjectStats look up by
  // string_view without constructing a key string (the hot-path
  // allocation fix — a std::string is built only when a new object is
  // first seen).
  std::map<std::string, ObjectState, std::less<>> compressors_;
  // Registry-owned; valid for the process lifetime.
  obs::Counter* fixes_in_;
  obs::Counter* fixes_out_;
  obs::Gauge* active_objects_gauge_;
  obs::Gauge* buffered_points_gauge_;
  obs::Histogram* push_seconds_;
  IngestCounters ingest_counters_;
  // Reused gate-output scratch (Push/FinishObject are not re-entrant).
  std::vector<TimedPoint> admitted_;
};

// The /objectz document over `objects`, which must be sorted by id:
// {"instance":..., "policy":...[, "shards":N], "objects_total":N,
//  "truncated":..., "objects":[{...,"ratio":...}, ...]}. "shards" appears
// when `shards` holds a value (the sharded engine's aggregate). `limit`
// bounds the rendered entries (0 = unlimited); when objects are cut,
// "truncated" is true and "objects_total" still reports the full count.
std::string RenderObjectzJson(
    std::string_view instance, IngestMode mode, std::optional<size_t> shards,
    const std::vector<FleetCompressor::ObjectInfo>& objects, size_t limit);

}  // namespace stcomp

#endif  // STCOMP_STREAM_FLEET_COMPRESSOR_H_
