// Per-block summaries over the blocked codec stream (DESIGN.md §17).
//
// A trajectory's encoded payload is split into blocks of at most
// kDefaultBlockPoints coded points; the delta chain restarts at every
// block boundary so a block decodes independently of its predecessors.
// Each block carries a summary — point count, payload byte length, time
// span and bounding box — computed over *storage values* (the values the
// decoder reconstructs, i.e. the quantisation round-trip for kDelta), so
// a decoded point can never escape its block's declared extents.
//
// A block's extents cover its own coded points PLUS the junction point
// (the first point of the next block): every inter-point segment of the
// polyline then lies entirely within exactly one block's summary, which
// is what lets range/corridor/kNN queries skip blocks soundly without
// decoding them (store/query.h).

#ifndef STCOMP_STORE_BLOCK_SUMMARY_H_
#define STCOMP_STORE_BLOCK_SUMMARY_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "stcomp/common/result.h"
#include "stcomp/core/trajectory.h"
#include "stcomp/geom/geometry.h"
#include "stcomp/store/codec.h"

namespace stcomp {

// Coded points per block. Small enough that a selective query scans a
// few dozen points per candidate block; large enough that the summary
// table stays a tiny fraction of the payload.
inline constexpr size_t kDefaultBlockPoints = 64;

struct BlockSummary {
  uint32_t count = 0;        // Coded points in this block (>= 1).
  uint32_t byte_length = 0;  // Encoded payload bytes of this block.
  // Extents over the block's points plus the junction point (see header
  // comment), in storage values.
  double t_min = 0.0;
  double t_max = 0.0;
  BoundingBox bounds;
  // Derived prefix sums (recomputed on parse, never serialised).
  uint64_t first_point = 0;
  uint64_t byte_offset = 0;

  bool OverlapsTime(double t0, double t1) const {
    return t_min <= t1 && t_max >= t0;
  }
  friend bool operator==(const BlockSummary&, const BlockSummary&) = default;
};

// A summary whose extents are exactly the given storage-value point.
BlockSummary MakeBlockSummary(const TimedPoint& storage_point);

// Extends `summary`'s extents to cover a storage-value point.
void ExtendBlockSummary(BlockSummary* summary, const TimedPoint& storage_point);

// Sets `block`'s extents to cover its points, points[first_point,
// first_point + count), plus its junction points[first_point + count] when
// there is one, each mapped through StorageValue(., codec). EncodeBlocked
// summarises every block through this; a caller whose points already are
// storage values passes Codec::kRaw, whose mapping is the identity.
void SetBlockExtents(std::span<const TimedPoint> points, Codec codec,
                     BlockSummary* block);

// Encodes `count` points into blocks of at most `block_points`, appending
// the concatenated per-block payloads to `out` and returning the summary
// table (offsets filled relative to `out`'s length on entry). The bulk
// counterpart of the store's incremental per-point append — both produce
// identical bytes and summaries for the same point sequence.
Result<std::vector<BlockSummary>> EncodeBlocked(const TimedPoint* points,
                                                size_t count, Codec codec,
                                                size_t block_points,
                                                std::string* out);

// Serialises just the summary table: per block, count and byte_length as
// varints then the six extent doubles (fixed LE). Offsets are derived, so
// they are not written.
void AppendSummaryTable(const std::vector<BlockSummary>& blocks,
                        std::string* out);

// Parses a `block_count`-entry summary table from the front of `*input`,
// advancing it. Validates counts, byte lengths, finite ordered extents
// and that the point counts sum to `expected_points`; recomputes offsets.
// Any violation is kDataLoss.
Result<std::vector<BlockSummary>> ParseSummaryTable(std::string_view* input,
                                                    uint64_t block_count,
                                                    uint64_t expected_points);

}  // namespace stcomp

#endif  // STCOMP_STORE_BLOCK_SUMMARY_H_
