// Persistent spatio-temporal index over a blocked trajectory store
// (DESIGN.md §17). The index carries each object's full block-summary
// table; range/corridor queries find candidate blocks by bisecting each
// table on time and testing the bounding boxes of the blocks in the
// window, then read only those blocks' points. kNN pruning and
// time-window queries run off the same tables.
//
// On-disk format (index.stidx, written by the segment store at
// checkpoint):
//
//   magic "STIX" | version u8=1 | cell size double | object count varint
//   | per object: id len varint | id bytes | point count varint
//     | payload crc32 (4 bytes LE) | block count varint | summary table
//     (block_summary.h)
//   | crc32 (4 bytes, LE, over everything before it)
//
// The cell size is a relic of the grid the index once kept: it is always
// written as 250 and only checked to be finite and positive on load, so
// v1 images stay byte-identical. Matches() compares object ids, point
// counts, payload CRCs and summary tables against a live store, so a stale
// index (even one with identical counts) is detected and rebuilt instead
// of silently serving wrong candidates.

#ifndef STCOMP_STORE_ST_INDEX_H_
#define STCOMP_STORE_ST_INDEX_H_

#include <cstdint>
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
  };

  // A candidate: objects()[object].blocks[block].
  struct Posting {
    uint32_t object = 0;
    uint32_t block = 0;
    friend bool operator==(const Posting&, const Posting&) = default;
  };

  // Snapshots `store` into a fresh index.
  static SpatioTemporalIndex BuildFromStore(const TrajectoryStore& store);

  const std::vector<ObjectEntry>& objects() const { return objects_; }

  // The blocks whose summaries overlap both [t0, t1] and `box`, ordered
  // by (object, block) and free of duplicates — exactly what a test of
  // every summary would return. Per object, only the blocks of
  // BlocksOverlappingTime are tested against the box.
  std::vector<Posting> CandidateBlocks(const BoundingBox& box, double t0,
                                       double t1) const;

  // The STIX byte image (header comment). Deterministic for a given
  // logical content.
  std::string SerializeToString() const;

  // Parses and validates a STIX image; kDataLoss on any corruption (bad
  // magic/version/CRC, invalid or out-of-time-order summaries, duplicate
  // or unordered ids, non-positive cell size).
  static Result<SpatioTemporalIndex> LoadFromBuffer(std::string_view data);

  // True when this index exactly describes `store`'s current contents:
  // same object ids in order, same point counts, same payload CRCs, same
  // summary tables.
  bool Matches(const TrajectoryStore& store) const;

 private:
  std::vector<ObjectEntry> objects_;  // Ascending by id (store map order).
};

}  // namespace stcomp

#endif  // STCOMP_STORE_ST_INDEX_H_
