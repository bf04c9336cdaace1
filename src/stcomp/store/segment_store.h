// Crash-safe durable trajectory store (DESIGN.md §13): an in-memory
// TrajectoryStore fronted by a write-ahead log and checkpointed into
// atomically-committed segment snapshots.
//
// Directory layout:
//
//   <dir>/seg-<n>.stseg   checkpoint snapshot n (SaveToFile byte image,
//                         written via temp + fsync + rename)
//   <dir>/wal.stwal       append-only log of mutations since the newest
//                         snapshot (wal.h framing, group commit)
//   <dir>/index.stidx     the spatio-temporal index of the newest snapshot
//                         (st_index.h), for Fsck and the benchmark
//
// Mutations apply to memory immediately and stage a WAL record; Commit()
// makes the batch durable. Checkpoint() snapshots memory into the next
// segment, writes the index sidecar, truncates the log and prunes older
// segments. Open() recovers: the newest readable segment is loaded
// (salvaging intact frames from a corrupted one), then every committed
// WAL batch is replayed on top. The index is built from the recovered
// store on first use; recovery never reads the sidecar.
// Recovery is salvage-first — a torn tail or a flipped bit costs the
// affected frame, never the store — and is observable:
//
//   stcomp_wal_replayed_total    committed records replayed at Open
//   stcomp_wal_salvaged_total    corrupted frames skipped (wal + segment)
//   stcomp_wal_torn_tail_total   recoveries that found a torn tail
//   stcomp_wal_recovery_seconds  recovery latency histogram

#ifndef STCOMP_STORE_SEGMENT_STORE_H_
#define STCOMP_STORE_SEGMENT_STORE_H_

#include <string>
#include <vector>

#include "stcomp/common/result.h"
#include "stcomp/store/query.h"
#include "stcomp/store/st_index.h"
#include "stcomp/store/trajectory_store.h"
#include "stcomp/store/wal.h"

namespace stcomp {

// What Open() found and did. Describe() renders the human-readable
// summary the CLI's --recover prints.
struct RecoveryReport {
  std::string segment_loaded;  // File name, empty if starting fresh.
  size_t segment_frames_loaded = 0;
  size_t segment_frames_salvaged = 0;
  bool segment_torn_tail = false;
  size_t wal_records_replayed = 0;
  size_t wal_frames_salvaged = 0;
  size_t wal_records_dropped_uncommitted = 0;
  bool wal_torn_tail = false;
  size_t replay_records_skipped = 0;  // Replayed records the store refused.
  double recovery_seconds = 0.0;
  std::vector<std::string> log;

  bool clean() const {
    return segment_frames_salvaged == 0 && !segment_torn_tail &&
           wal_frames_salvaged == 0 && !wal_torn_tail &&
           wal_records_dropped_uncommitted == 0 &&
           replay_records_skipped == 0;
  }
  std::string Describe() const;
};

// Read-only integrity scan of a store directory (--fsck).
struct FsckFileReport {
  std::string file;
  size_t bytes = 0;
  size_t frames_good = 0;
  size_t frames_salvaged = 0;
  bool torn_tail = false;
};

struct FsckReport {
  std::vector<FsckFileReport> files;
  bool clean() const {
    for (const FsckFileReport& file : files) {
      if (file.frames_salvaged > 0 || file.torn_tail) {
        return false;
      }
    }
    return true;
  }
  std::string Describe() const;
};

class SegmentStore {
 public:
  struct Options {
    Codec codec = Codec::kDelta;
    // Crash-injection seam (testing::CrashPlan): consulted at every
    // durable write boundary of the WAL *and* of checkpoint snapshots.
    WriteFaultHook write_hook;
  };

  SegmentStore();
  explicit SegmentStore(Options options);

  // Creates `dir` if missing, recovers (newest segment + committed WAL
  // batches, salvaging), and opens the log for appending. Call exactly
  // once; the recovery outcome is left in last_recovery().
  Status Open(const std::string& dir);

  // Mutations: validate against the in-memory store first, then stage the
  // WAL record. A record is durable only after the next Commit() —
  // recovery loses at most the last uncommitted batch. After an injected
  // or real write failure the store is dead (kUnavailable): reopen a
  // fresh instance on the directory to recover.
  Status Append(const std::string& object_id, const TimedPoint& point);
  Status Insert(const std::string& object_id, const Trajectory& trajectory);
  Status Remove(const std::string& object_id);

  // Seals the current batch (write + fsync).
  Status Commit();

  // Commits, snapshots memory into the next segment (atomic rename),
  // truncates the WAL and prunes older segments. On success the log is
  // empty and recovery needs only the new segment.
  Status Checkpoint();

  // Query substrate (the in-memory view; always reflects every applied
  // mutation, committed or not).
  const TrajectoryStore& store() const { return store_; }

  // The spatio-temporal index over the current contents, bound to
  // store(); rebuilt on first use after any mutation. The reference stays
  // valid until the next mutation.
  const SpatioTemporalIndex& Index() const;

  // Index-accelerated query over the current contents (query.h).
  Result<QueryAnswer> Query(const QueryRequest& request) const;

  const RecoveryReport& last_recovery() const { return recovery_; }
  const std::string& directory() const { return dir_; }
  size_t staged_records() const { return wal_.staged_records(); }
  bool dead() const { return wal_.dead(); }

  // Read-only integrity scan of every segment + wal file in `dir`.
  static Result<FsckReport> Fsck(const std::string& dir);

 private:
  Status Recover();
  std::string SegmentPath(uint64_t sequence) const;
  std::string IndexPath() const;

  Options options_;
  std::string dir_;
  TrajectoryStore store_;
  WalWriter wal_;
  uint64_t next_segment_ = 0;
  size_t boundary_ = 0;  // Global durable-write boundary counter.
  RecoveryReport recovery_;
  bool open_ = false;
  // Rebuilt by Index() whenever it is not bound to store_: a mutation
  // changes the store's stamp, and a default index is bound to nothing.
  mutable SpatioTemporalIndex index_;
};

}  // namespace stcomp

#endif  // STCOMP_STORE_SEGMENT_STORE_H_
