// Shard-per-core fleet engine (DESIGN.md §16): the scale-out layer over
// FleetCompressor that the ROADMAP's "millions of concurrent objects"
// north star needs.
//
// Topology: object ids partition across N shards by FNV-1a 64 of the id
// (store/partitioned_store.h, the same mapping the durable layout uses).
// Each shard owns
//
//   - a bounded MPSC ingest queue (mutex + condvar; producers block only
//     when the queue is FULL — backpressure, counted and flight-recorded),
//   - one worker thread that drains the queue in batches (batch handoff:
//     the worker swaps up to max_batch items out under the lock and
//     compresses them outside it, so a hot object's compression cost
//     never stalls other producers' enqueues),
//   - its own FleetCompressor (gate + compressor per object, metric
//     instance "<instance>-sNNN"), and
//   - its own sink: an internal TrajectoryStore partition by default, or
//     one PartitionedSegmentStore partition in durable mode (each batch
//     group-commits after processing).
//
// Because every object maps to exactly one shard and one worker drains
// that shard's queue in FIFO order, per-object processing order equals
// per-object push order — the sharded engine's per-object output is
// bit-identical to a single FleetCompressor fed the same per-object
// sequences (the differential property test).
//
// Error model: Push() enqueues and returns quickly; a fix that the
// shard's gate/compressor/sink later rejects surfaces as that shard's
// sticky first error, returned by Flush()/FinishAll() and visible in
// StatsSnapshot(). Callers that need synchronous verdicts (tests, tools)
// call Flush() at interesting points. FinishObject() is synchronous: it
// waits for the object's shard to drain, then finishes inline so the
// real Status (including kNotFound) comes back.
//
// Checkpointing: SaveState() drains every queue and wraps one per-shard
// FleetCompressor image in an "STSM" manifest echoing shard count + hash
// scheme; RestoreState() refuses a mismatching layout with a clear error
// (resharding requires explicit migration — see DESIGN.md §16).

#ifndef STCOMP_STREAM_SHARDED_FLEET_H_
#define STCOMP_STREAM_SHARDED_FLEET_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "stcomp/obs/metrics.h"
#include "stcomp/store/partitioned_store.h"
#include "stcomp/store/trajectory_store.h"
#include "stcomp/stream/fleet_compressor.h"
#include "stcomp/stream/ingest_policy.h"
#include "stcomp/stream/online_compressor.h"

namespace stcomp {

struct ShardedFleetOptions {
  // 0 = hardware cores. In durable mode the partitioned store's layout
  // wins; a nonzero value here must match it.
  size_t num_shards = 0;
  // Fixes a shard queue holds before producers block (backpressure).
  size_t queue_capacity = 4096;
  // Max items the worker swaps out of the queue per handoff.
  size_t max_batch = 256;
  // Ingest policy applied per object inside every shard.
  IngestPolicy policy;
  // Metric-instance prefix; empty picks a unique "shfleet-<n>". Shard i's
  // FleetCompressor registers under "<instance>-s<i:03>".
  std::string instance;
};

class ShardedFleetCompressor {
 public:
  // In-memory mode: each shard commits into its own internal
  // TrajectoryStore partition; Get() reads across them.
  ShardedFleetCompressor(
      std::function<std::unique_ptr<OnlineCompressor>()> factory,
      ShardedFleetOptions options);

  // Durable mode: shard i commits into store->shard(i) and group-commits
  // after every processed batch. `store` must be Open()ed, must outlive
  // this engine, and must not be mutated by anyone else while the engine
  // runs. Shard count is adopted from the store.
  ShardedFleetCompressor(
      std::function<std::unique_ptr<OnlineCompressor>()> factory,
      PartitionedSegmentStore* store, ShardedFleetOptions options);

  // Drains queues, stops workers. Buffered per-object tails that were
  // never FinishObject'd/FinishAll'd are dropped, same as FleetCompressor
  // destruction.
  ~ShardedFleetCompressor();

  ShardedFleetCompressor(const ShardedFleetCompressor&) = delete;
  ShardedFleetCompressor& operator=(const ShardedFleetCompressor&) = delete;

  // Thread-safe. Enqueues onto the object's shard; blocks only while that
  // shard's queue is full. Per-object ordering is the caller's: all fixes
  // of one object must come from one producer (or be externally ordered).
  Status Push(std::string_view object_id, const TimedPoint& fix);

  // Thread-safe. Waits for the object's shard to drain, then finishes the
  // stream synchronously. kNotFound for unknown ids.
  Status FinishObject(std::string_view object_id);

  // Waits until every queue is empty and every worker is idle, then
  // returns the first sticky shard error (Ok if none).
  Status Flush();

  // Flush + FinishAll on every shard (tail flush; durable mode commits).
  Status FinishAll();

  size_t num_shards() const { return shards_.size(); }
  const std::string& instance() const { return instance_; }

  // Aggregates across shards (each shard's engine counters summed).
  size_t fixes_in() const;
  size_t fixes_out() const;
  size_t active_objects() const;

  // Thread-safe single-object read: the object's committed trajectory so
  // far (in-memory partition or durable partition). Serialized against
  // the shard's worker, so the snapshot is batch-consistent; call Flush()
  // first for an everything-pushed-so-far view.
  Result<Trajectory> Get(std::string_view object_id) const;

  // Thread-safe per-object stats (nullopt for unknown/finished ids).
  std::optional<FleetCompressor::ObjectInfo> ObjectStats(
      std::string_view object_id) const;

  // Live per-shard health for /statsz-style surfaces and tools.
  struct ShardStats {
    size_t shard = 0;
    size_t queue_depth = 0;
    uint64_t enqueued = 0;
    uint64_t batches = 0;
    uint64_t backpressure_waits = 0;
    size_t active_objects = 0;
    uint64_t fixes_in = 0;
    uint64_t fixes_out = 0;
    Status error;  // Sticky first async error.
  };
  std::vector<ShardStats> StatsSnapshot() const;

  // Cross-shard /objectz aggregation: RenderObjectzJson over the objects
  // of every shard, merged in id order, with "shards":N. `limit` bounds
  // rendered entries (0 = unlimited); "objects_total" always reports the
  // full fleet. Thread-safe.
  std::string RenderObjectsJson(size_t limit = 0) const;

  // Checkpoint/restore (see header comment). Both drain first; restore
  // additionally requires an empty engine and a matching shard layout.
  Status SaveState(std::string* out);
  Status RestoreState(std::string_view image);

 private:
  struct Shard;

  void InitShards(std::function<std::unique_ptr<OnlineCompressor>()> factory);
  Shard& ShardFor(std::string_view object_id);
  const Shard& ShardFor(std::string_view object_id) const;
  void WorkerLoop(Shard* shard);
  void WaitDrained(Shard* shard) const;
  void RecordShardError(Shard* shard, const Status& status);

  std::string instance_;
  ShardedFleetOptions options_;
  PartitionedSegmentStore* durable_ = nullptr;  // Null in in-memory mode.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace stcomp

#endif  // STCOMP_STREAM_SHARDED_FLEET_H_
