// An in-memory moving-object trajectory store — the database-side substrate
// the paper's introduction motivates (storage of <t, x, y> streams for
// fleets of objects). Trajectories are held delta-encoded; queries decode
// on demand. Supports per-object append (the live-tracking path), time-
// interval slicing with interpolated boundary positions, bounding-box
// search and storage accounting.

#ifndef STCOMP_STORE_TRAJECTORY_STORE_H_
#define STCOMP_STORE_TRAJECTORY_STORE_H_

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "stcomp/common/result.h"
#include "stcomp/core/trajectory.h"
#include "stcomp/geom/geometry.h"
#include "stcomp/store/block_summary.h"
#include "stcomp/store/codec.h"
#include "stcomp/store/serialization.h"

namespace stcomp {

class TrajectoryStore {
 public:
  explicit TrajectoryStore(Codec codec = Codec::kDelta) : codec_(codec) {}

  Codec codec() const { return codec_; }

  // Inserts a whole trajectory under `object_id`; kAlreadyExists if the id
  // is taken.
  Status Insert(const std::string& object_id, const Trajectory& trajectory);

  // Appends one fix to an object, creating it if missing. The fix must be
  // after the object's last timestamp.
  Status Append(const std::string& object_id, const TimedPoint& point);

  Result<Trajectory> Get(const std::string& object_id) const;
  Status Remove(const std::string& object_id);
  std::vector<std::string> ObjectIds() const;
  size_t object_count() const { return entries_.size(); }

  // Object position at time t (kOutOfRange outside its interval).
  Result<Vec2> PositionAt(const std::string& object_id, double t) const;

  // The object's movement during [t0, t1] clipped to its interval, with
  // interpolated boundary points; kNotFound for unknown ids, kOutOfRange
  // for empty overlap. Precondition (checked): t0 <= t1.
  Result<Trajectory> TimeSlice(const std::string& object_id, double t0,
                               double t1) const;

  // Ids of objects that enter `box` at any sample point.
  std::vector<std::string> ObjectsInBox(const BoundingBox& box) const;

  // Block-level access for the query layer (DESIGN.md §17). Payloads are
  // stored as independently-decodable blocks of at most
  // kDefaultBlockPoints coded points with per-block summaries; queries
  // consult summaries first and decode only candidate blocks.

  // The object's block summaries, ordered by first_point; kNotFound for
  // unknown ids. The pointer stays valid until the next mutation.
  Result<const std::vector<BlockSummary>*> BlockSummariesOf(
      std::string_view object_id) const;

  // Replaces `*points` with one block's coded points (storage values)
  // followed by its junction point — the next block's first point, where
  // the block's last segment ends — when a next block exists. A query
  // passes the same buffer for every block, so decoding allocates only
  // until the buffer has grown to a block. kNotFound for unknown ids,
  // kOutOfRange for a block index past the object's block count.
  Status DecodeBlockWithJunction(std::string_view object_id,
                                 size_t block_index,
                                 std::vector<TimedPoint>* points) const;

  // Visits every object's id, point count, summary table and encoded
  // payload in id order (the index builder's scan).
  void VisitBlocks(
      const std::function<void(const std::string& id, size_t num_points,
                               const std::vector<BlockSummary>& blocks,
                               std::string_view payload)>& fn) const;

  // Total encoded payload bytes across objects (the store's memory story).
  size_t StorageBytes() const;

  // Persists every object as a concatenation of CRC-framed trajectory
  // records (serialization.h); Load replaces the store's contents with the
  // file's. Object ids are the stored trajectory names. SaveToFile commits
  // atomically (temp file + fsync + rename, durable_file.h): a crash or a
  // failed write never destroys the previous good file.
  Status SaveToFile(const std::string& path) const;
  Status LoadFromFile(const std::string& path);

  // The SaveToFile byte image, without touching the filesystem (the
  // segment store snapshots through this).
  Result<std::string> SerializeToString() const;

  // Replaces the store's contents with the frames parsed from an in-memory
  // image in the SaveToFile byte format (kDataLoss on any corruption; the
  // store is left untouched on error). LoadFromFile delegates here; the
  // fuzz harness drives this entry point directly.
  Status LoadFromBuffer(std::string_view data);

  // Lenient counterpart for recovery (DESIGN.md §13): loads every intact
  // frame of a possibly corrupted image, skipping bad frames and a torn
  // tail instead of failing the whole load. Later duplicates of an object
  // id are dropped (a resync artefact). Always replaces the contents;
  // `stats` (may be null) reports what was skipped.
  Status SalvageFromBuffer(std::string_view data, FrameScanStats* stats);

 private:
  struct Entry {
    std::string encoded;  // Concatenated independently-coded block payloads.
    std::vector<BlockSummary> blocks;  // Parallel summary table.
    size_t num_points = 0;
    std::string name;
    // Decode cache for the append path (kept in sync with `encoded`).
    Trajectory decoded;
  };

  Status EncodeInto(const Trajectory& trajectory, Entry* entry) const;
  const Entry* FindEntry(std::string_view object_id) const;

  Codec codec_;
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace stcomp

#endif  // STCOMP_STORE_TRAJECTORY_STORE_H_
