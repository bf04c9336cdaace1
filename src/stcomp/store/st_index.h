// Spatio-temporal index over a blocked trajectory store (DESIGN.md §17).
// Each object's entry is the query engine's one per-object record: the
// object's full block-summary table, the extents of that whole table, and
// a span over the object's resident storage values in the store. Range
// and corridor queries reject an object by its extents, bisect its table
// on time, test the surviving blocks' boxes and read only those blocks'
// points; k-nearest pruning and time-window queries run off the same
// entries.
//
// An index from BuildFromStore is *bound* to the store it was built from:
// it records the store's address and stamp (trajectory_store.h), and
// BoundTo() holds until that store changes. The spans are valid exactly
// as long, so RunQuery refuses an index that is not bound to its store.
// An index from LoadFromBuffer is never bound.
//
// On-disk format (index.stidx, written by the segment store at
// checkpoint for Fsck and the end-to-end benchmark; recovery never reads
// it):
//
//   magic "STIX" | version u8=1 | cell size double | object count varint
//   | per object: id len varint | id bytes | point count varint
//     | payload crc32 (4 bytes LE) | block count varint | summary table
//     (block_summary.h)
//   | crc32 (4 bytes, LE, over everything before it)
//
// The cell size is a relic of the grid the index once kept: it is always
// written as 250 and only checked to be finite and positive on load, so
// v1 images stay byte-identical. The spans and extents are derived and
// never serialised.

#ifndef STCOMP_STORE_ST_INDEX_H_
#define STCOMP_STORE_ST_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stcomp/common/result.h"
#include "stcomp/geom/geometry.h"
#include "stcomp/store/block_summary.h"
#include "stcomp/store/trajectory_store.h"

namespace stcomp {

// The blocks of one object's summary table whose time spans overlap
// [t0, t1], as a [begin, end) index range. Timestamps strictly increase
// and a block's t_max is its junction point's time, so t_min and t_max
// are both nondecreasing along a table and those blocks form one run:
// from the first block ending at or after t0 to the last starting at or
// before t1. Two bisections find it.
std::pair<size_t, size_t> BlocksOverlappingTime(
    const std::vector<BlockSummary>& blocks, double t0, double t1);

class SpatioTemporalIndex {
 public:
  struct ObjectEntry {
    std::string id;
    uint64_t num_points = 0;
    uint32_t payload_crc = 0;  // Crc32 of the encoded payload.
    // Ordered by first_point; t_min and t_max are both nondecreasing
    // (LoadFromBuffer rejects a table where either decreases).
    std::vector<BlockSummary> blocks;
    // The rest is set by BuildFromStore only and never serialised. The
    // object's resident storage values (TrajectoryStore::StoragePoints),
    // valid while the index is bound:
    std::span<const TimedPoint> points;
    // and the extents of the whole table: every block's time span lies in
    // [t_min, t_max] and its box in `bounds`, so an object whose extents
    // miss a query has no block that meets it. An object without blocks
    // gets t_min > t_max and an inverted box, which meet nothing.
    double t_min = 0.0;
    double t_max = 0.0;
    BoundingBox bounds;
  };

  // Snapshots `store` into a fresh index bound to it.
  static SpatioTemporalIndex BuildFromStore(const TrajectoryStore& store);

  const std::vector<ObjectEntry>& objects() const { return objects_; }

  // True when this index was built from `store` and the store has not
  // changed since: the entries' spans point into it and describe it.
  bool BoundTo(const TrajectoryStore& store) const {
    return store_ == &store && stamp_ == store.stamp();
  }

  // The STIX byte image (header comment). Deterministic for a given
  // logical content.
  std::string SerializeToString() const;

  // Parses and validates a STIX image; kDataLoss on any corruption (bad
  // magic/version/CRC, invalid or out-of-time-order summaries, duplicate
  // or unordered ids, non-positive cell size). The result carries no
  // points and is bound to no store.
  static Result<SpatioTemporalIndex> LoadFromBuffer(std::string_view data);

 private:
  std::vector<ObjectEntry> objects_;  // Ascending by id (store map order).
  // The store BuildFromStore read and its stamp at that time; null for a
  // loaded index.
  const TrajectoryStore* store_ = nullptr;
  uint64_t stamp_ = 0;
};

}  // namespace stcomp

#endif  // STCOMP_STORE_ST_INDEX_H_
