// An in-memory moving-object trajectory store — the database-side substrate
// the paper's introduction motivates (storage of <t, x, y> streams for
// fleets of objects). Trajectories are held delta-encoded as the durable
// form, next to a resident array of the same points as storage values
// (what decoding the payload yields) that queries read without decoding.
// Supports per-object append (the live-tracking path), time-interval
// slicing with interpolated boundary positions, bounding-box search and
// storage accounting.

#ifndef STCOMP_STORE_TRAJECTORY_STORE_H_
#define STCOMP_STORE_TRAJECTORY_STORE_H_

#include <cstdint>
#include <limits>
#include <span>
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
  // One stored object: the store's directory holds one entry per object,
  // and the query engine reads each object's record from it (DESIGN.md
  // §17). Every mutation keeps all of its fields in step. The fields a
  // query walk reads for every object come first, so they share a cache
  // line.
  struct Entry {
    // The extents of the whole table, the union of its block summaries:
    // every block's time span lies in [t_min, t_max] and its box in
    // `bounds`, so an object whose extents miss a query has no block that
    // meets it. An object without blocks keeps t_min > t_max and an
    // inverted box, which meet nothing.
    double t_min = std::numeric_limits<double>::infinity();
    double t_max = -std::numeric_limits<double>::infinity();
    BoundingBox bounds = {{t_min, t_min}, {t_max, t_max}};  // Inverted.
    std::vector<BlockSummary> blocks;  // The summary table.
    // The points as storage values, named like the stored trajectory:
    // exactly what decoding `encoded` yields. Insert and Append map their
    // input through StorageValue(); a frame decoded in the store's codec
    // already holds storage values and is moved in.
    Trajectory decoded;
    std::string id;
    std::string encoded;  // Concatenated independently-coded block payloads.
  };

  explicit TrajectoryStore(Codec codec = Codec::kDelta);

  Codec codec() const { return codec_; }

  // Inserts a whole trajectory under `object_id`; kAlreadyExists if the id
  // is taken, kInvalidArgument if two fixes share a stored time (kDelta
  // keeps time to 1 ms), kOutOfRange if the codec refuses a value.
  Status Insert(const std::string& object_id, const Trajectory& trajectory);

  // Appends one fix to an object, creating it if missing. The fix's stored
  // time must be after the object's last stored time (kInvalidArgument
  // otherwise); a fix the codec refuses is kOutOfRange. A refused fix
  // leaves the object unchanged.
  Status Append(const std::string& object_id, const TimedPoint& point);

  // Decodes the object's payload.
  Result<Trajectory> Get(const std::string& object_id) const;
  Status Remove(const std::string& object_id);
  std::vector<std::string> ObjectIds() const;
  size_t object_count() const { return entries_.size(); }

  // The directory in ascending id order: rank 0 holds the smallest id.
  // A store loaded from an image holds its entries in id order already,
  // so a walk over ranks 0 .. object_count() - 1 reads them one after the
  // other. The reference stays valid until the next mutation.
  const Entry& EntryAt(size_t rank) const { return entries_[order_[rank]]; }

  // Object position at time t (kOutOfRange outside its interval). This and
  // TimeSlice / ObjectsInBox read the storage values, so they answer the
  // same before and after a save and reload.
  Result<Vec2> PositionAt(const std::string& object_id, double t) const;

  // The object's movement during [t0, t1] clipped to its interval, with
  // interpolated boundary points, named after the object; kNotFound for
  // unknown ids, kOutOfRange for empty overlap. Precondition (checked):
  // t0 <= t1.
  Result<Trajectory> TimeSlice(const std::string& object_id, double t0,
                               double t1) const;

  // Ids of objects that enter `box` at any sample point.
  std::vector<std::string> ObjectsInBox(const BoundingBox& box) const;

  // Block-level access for the query layer (DESIGN.md §17). Payloads are
  // stored as independently-decodable blocks of at most
  // kDefaultBlockPoints coded points with per-block summaries; queries
  // consult summaries first and then read only candidate blocks' points.

  // The object's block summaries, ordered by first_point; kNotFound for
  // unknown ids. The pointer stays valid until the next mutation.
  Result<const std::vector<BlockSummary>*> BlockSummariesOf(
      std::string_view object_id) const;

  // The object's points as storage values, bitwise equal to Get()'s
  // decode of the payload. Block b holds points [first_point, first_point
  // + count) and its junction, the point after them. kNotFound for
  // unknown ids. The span stays valid until the next mutation.
  Result<std::span<const TimedPoint>> StoragePoints(
      std::string_view object_id) const;

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
  // Encodes `trajectory` into the entry's payload, summary table and
  // extents.
  Status EncodeInto(const Trajectory& trajectory, Entry* entry) const;
  // The whole load step for one decoded frame. A frame in the store's
  // codec, cut into blocks the way the store cuts them, keeps its block
  // payloads: they are the bytes its points were decoded from. Any other
  // frame is re-encoded. Either way the points are moved in (or mapped,
  // for a kRaw frame in a kDelta store) and the summary extents are
  // computed from them, never taken from the frame's table.
  Status EntryFromFrame(Trajectory frame, FrameLayout layout,
                        Entry* entry) const;
  // The first rank whose id is not less than `object_id`.
  size_t LowerBound(std::string_view object_id) const;
  // Whether `rank` (a LowerBound result) holds `object_id`.
  bool HoldsAt(size_t rank, std::string_view object_id) const {
    return rank < order_.size() && entries_[order_[rank]].id == object_id;
  }
  const Entry* FindEntry(std::string_view object_id) const;
  // Appends `entry`, whose id is new, to the directory at `rank`, its
  // id's LowerBound.
  void AddEntry(size_t rank, Entry entry);

  Codec codec_;
  // The directory: entries in arrival order (Remove moves the last one
  // into the hole), and their positions ascending by id.
  std::vector<Entry> entries_;
  std::vector<uint32_t> order_;
};

}  // namespace stcomp

#endif  // STCOMP_STORE_TRAJECTORY_STORE_H_
