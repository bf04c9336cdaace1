// The STIX image of a blocked trajectory store (DESIGN.md §17): per
// object, its id, point count, payload CRC and full block-summary table.
// The segment store writes it to index.stidx at every checkpoint, for
// Fsck and the end-to-end benchmark; recovery never reads it, and queries
// read the store's own directory (trajectory_store.h), not this.
//
// On-disk format:
//
//   magic "STIX" | version u8=1 | cell size double | object count varint
//   | per object: id len varint | id bytes | point count varint
//     | payload crc32 (4 bytes LE) | block count varint | summary table
//     (block_summary.h)
//   | crc32 (4 bytes, LE, over everything before it)
//
// The cell size is a relic of the grid the index once kept: it is always
// written as 250 and only checked to be finite and positive on load, so
// v1 images stay byte-identical.

#ifndef STCOMP_STORE_ST_INDEX_H_
#define STCOMP_STORE_ST_INDEX_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stcomp/common/result.h"
#include "stcomp/store/block_summary.h"
#include "stcomp/store/trajectory_store.h"

namespace stcomp {

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

  // The index of `store`'s current contents, ascending by id.
  static SpatioTemporalIndex BuildFromStore(const TrajectoryStore& store);

  const std::vector<ObjectEntry>& objects() const { return objects_; }

  // The STIX byte image (header comment). Deterministic for a given
  // logical content.
  std::string SerializeToString() const;

  // Parses and validates a STIX image; kDataLoss on any corruption (bad
  // magic/version/CRC, invalid or out-of-time-order summaries, duplicate
  // or unordered ids, non-positive cell size).
  static Result<SpatioTemporalIndex> LoadFromBuffer(std::string_view data);

 private:
  std::vector<ObjectEntry> objects_;  // Ascending by id.
};

}  // namespace stcomp

#endif  // STCOMP_STORE_ST_INDEX_H_
