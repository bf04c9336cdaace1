// Multi-partition durable store (DESIGN.md §16): N independent
// SegmentStore partitions under one root directory, one per fleet shard.
//
// Directory layout:
//
//   <dir>/shard-000/{seg-*.stseg, wal.stwal}
//   <dir>/shard-001/...
//   ...
//
// Each partition owns its own WAL and segment chain, so shards commit,
// checkpoint and recover independently — a torn write in one shard's WAL
// costs that shard at most its last uncommitted batch and never touches
// the others (the property the sharded crash-matrix test asserts).
// Open() recovers the partitions concurrently, always with one recovery
// thread per partition; object ids route to partitions by FNV-1a 64 of
// the id, the same mapping ShardedFleetCompressor uses.
//
// Resharding requires an explicit migration: the shard an object's
// history lives in is a pure function of (id, shard count), so reopening
// an existing layout with a different count would route new fixes away
// from old data. Open() counts the shard-NNN directories on disk and
// refuses a mismatching request with kFailedPrecondition instead of
// silently splitting objects across partitions.

#ifndef STCOMP_STORE_PARTITIONED_STORE_H_
#define STCOMP_STORE_PARTITIONED_STORE_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "stcomp/common/result.h"
#include "stcomp/store/segment_store.h"

namespace stcomp {

// FNV-1a 64-bit: tiny, dependency-free, and stable across platforms —
// the id→shard mapping is durable state (encoded in the on-disk layout
// and the STSM checkpoint manifest), so it must never change silently.
uint64_t Fnv1a64(std::string_view bytes);

// The partition `object_id` routes to under `num_shards` partitions.
size_t ShardOfObject(std::string_view object_id, size_t num_shards);

class PartitionedSegmentStore {
 public:
  struct Options {
    // 0 = adopt the on-disk layout if one exists, else hardware cores.
    // Nonzero must match an existing layout exactly (see header comment).
    size_t num_shards = 0;
    // Applied to every partition (codec, commit cadence, write hook).
    SegmentStore::Options shard_options;
    // When set, overrides shard_options.write_hook per partition — the
    // crash matrix uses this to fault exactly one shard's durable writes
    // while the others run clean.
    std::function<WriteFaultHook(size_t shard)> per_shard_hook;
  };

  PartitionedSegmentStore();
  explicit PartitionedSegmentStore(Options options);

  // Creates `dir` if missing, resolves the shard count (see Options),
  // then opens/recovers every partition. kFailedPrecondition when the
  // requested count mismatches the on-disk layout.
  Status Open(const std::string& dir);

  size_t num_shards() const { return shards_.size(); }
  size_t ShardOf(std::string_view object_id) const {
    return ShardOfObject(object_id, shards_.size());
  }

  // Direct partition access (the sharded fleet engine binds shard i's
  // sink to shard(i)). Synchronization is per-partition and the
  // caller's: two threads may use different partitions concurrently, but
  // not the same one.
  SegmentStore& shard(size_t index);
  const SegmentStore& shard(size_t index) const;

  // Routed single-object mutations/queries, for callers that don't manage
  // partitions themselves. Same durability contract as SegmentStore: a
  // mutation is durable only after that partition's next Commit().
  Status Append(const std::string& object_id, const TimedPoint& point);
  Status Insert(const std::string& object_id, const Trajectory& trajectory);
  Status Remove(const std::string& object_id);
  Result<Trajectory> Get(const std::string& object_id) const;

  // Cross-shard query fan-out (query.h): runs `request` against every
  // partition's index and merges the answers — object ids are disjoint
  // across shards, so set queries concatenate and re-sort by id, and
  // kNearest keeps the global top k by (distance, id). Stats and the
  // error bound aggregate across partitions. Answers are identical to
  // running the same query on an unsharded store with the same contents.
  Result<QueryAnswer> Query(const QueryRequest& request) const;

  // Whole-store orchestration: applies the operation to every partition,
  // returning the first error (remaining partitions are still attempted,
  // so one dead shard doesn't leave others uncommitted).
  Status Commit();
  Status Checkpoint();

  // Any partition dead (sticky write failure) ⇒ the store is dead.
  bool dead() const;

  // Sum of object counts across partitions.
  size_t object_count() const;

  const std::string& directory() const { return dir_; }

  // Per-partition recovery outcomes, concatenated ("shard-000: ...").
  std::string DescribeRecovery() const;
  bool recovery_clean() const;

  // Read-only integrity scan of every partition; file names come back
  // prefixed "shard-NNN/". kNotFound if `dir` holds no partitions.
  static Result<FsckReport> Fsck(const std::string& dir);

 private:
  Options options_;
  std::string dir_;
  std::vector<std::unique_ptr<SegmentStore>> shards_;
  bool open_ = false;
};

}  // namespace stcomp

#endif  // STCOMP_STORE_PARTITIONED_STORE_H_
