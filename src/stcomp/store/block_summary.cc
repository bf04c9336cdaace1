#include "stcomp/store/block_summary.h"

#include <algorithm>
#include <cmath>

#include "stcomp/store/varint.h"

namespace stcomp {

BlockSummary MakeBlockSummary(const TimedPoint& storage_point) {
  BlockSummary summary;
  summary.t_min = storage_point.t;
  summary.t_max = storage_point.t;
  summary.bounds.min = storage_point.position;
  summary.bounds.max = storage_point.position;
  return summary;
}

void ExtendBlockSummary(BlockSummary* summary,
                        const TimedPoint& storage_point) {
  summary->t_min = std::min(summary->t_min, storage_point.t);
  summary->t_max = std::max(summary->t_max, storage_point.t);
  summary->bounds.min.x = std::min(summary->bounds.min.x,
                                   storage_point.position.x);
  summary->bounds.min.y = std::min(summary->bounds.min.y,
                                   storage_point.position.y);
  summary->bounds.max.x = std::max(summary->bounds.max.x,
                                   storage_point.position.x);
  summary->bounds.max.y = std::max(summary->bounds.max.y,
                                   storage_point.position.y);
}

void SetBlockExtents(std::span<const TimedPoint> points, Codec codec,
                     BlockSummary* block) {
  const auto storage = [codec](const TimedPoint& point) {
    return codec == Codec::kRaw ? point : StorageValue(point, codec);
  };
  const TimedPoint head = storage(points[block->first_point]);
  block->t_min = block->t_max = head.t;
  block->bounds.min = block->bounds.max = head.position;
  // Junction: the next block's first point ends this block's last
  // segment, so it belongs to this block's extents too.
  const size_t end =
      std::min<size_t>(block->first_point + block->count + 1, points.size());
  for (size_t i = block->first_point + 1; i < end; ++i) {
    ExtendBlockSummary(block, storage(points[i]));
  }
}

Result<std::vector<BlockSummary>> EncodeBlocked(const TimedPoint* points,
                                                size_t count, Codec codec,
                                                size_t block_points,
                                                std::string* out) {
  if (block_points == 0) {
    return InvalidArgumentError("block size must be positive");
  }
  std::vector<BlockSummary> blocks;
  const size_t base_offset = out->size();
  for (size_t first = 0; first < count; first += block_points) {
    const size_t n = std::min(block_points, count - first);
    BlockSummary summary;
    summary.first_point = first;
    summary.byte_offset = out->size() - base_offset;
    const size_t before = out->size();
    STCOMP_RETURN_IF_ERROR(EncodePointSpan(points + first, n, codec, out));
    summary.count = static_cast<uint32_t>(n);
    summary.byte_length = static_cast<uint32_t>(out->size() - before);
    SetBlockExtents({points, count}, codec, &summary);
    blocks.push_back(summary);
  }
  return blocks;
}

void AppendSummaryTable(const std::vector<BlockSummary>& blocks,
                        std::string* out) {
  for (const BlockSummary& block : blocks) {
    PutVarint(block.count, out);
    PutVarint(block.byte_length, out);
    PutDouble(block.t_min, out);
    PutDouble(block.t_max, out);
    PutDouble(block.bounds.min.x, out);
    PutDouble(block.bounds.min.y, out);
    PutDouble(block.bounds.max.x, out);
    PutDouble(block.bounds.max.y, out);
  }
}

Result<std::vector<BlockSummary>> ParseSummaryTable(std::string_view* input,
                                                    uint64_t block_count,
                                                    uint64_t expected_points) {
  // Every table entry needs at least 50 bytes (two varints + six doubles);
  // a count beyond the remaining bytes is corruption. Checking before
  // reserve() keeps a flipped bit from demanding an absurd allocation.
  if (block_count > input->size()) {
    return DataLossError("block count exceeds frame payload");
  }
  std::vector<BlockSummary> blocks;
  blocks.reserve(block_count);
  uint64_t points_seen = 0;
  uint64_t bytes_seen = 0;
  for (uint64_t i = 0; i < block_count; ++i) {
    BlockSummary block;
    STCOMP_ASSIGN_OR_RETURN(const uint64_t count, GetVarint(input));
    STCOMP_ASSIGN_OR_RETURN(const uint64_t byte_length, GetVarint(input));
    if (count == 0 || count > UINT32_MAX || byte_length == 0 ||
        byte_length > UINT32_MAX) {
      return DataLossError("block summary with out-of-range sizes");
    }
    block.count = static_cast<uint32_t>(count);
    block.byte_length = static_cast<uint32_t>(byte_length);
    STCOMP_ASSIGN_OR_RETURN(block.t_min, GetDouble(input));
    STCOMP_ASSIGN_OR_RETURN(block.t_max, GetDouble(input));
    STCOMP_ASSIGN_OR_RETURN(block.bounds.min.x, GetDouble(input));
    STCOMP_ASSIGN_OR_RETURN(block.bounds.min.y, GetDouble(input));
    STCOMP_ASSIGN_OR_RETURN(block.bounds.max.x, GetDouble(input));
    STCOMP_ASSIGN_OR_RETURN(block.bounds.max.y, GetDouble(input));
    if (!std::isfinite(block.t_min) || !std::isfinite(block.t_max) ||
        !std::isfinite(block.bounds.min.x) ||
        !std::isfinite(block.bounds.min.y) ||
        !std::isfinite(block.bounds.max.x) ||
        !std::isfinite(block.bounds.max.y) || block.t_min > block.t_max ||
        block.bounds.min.x > block.bounds.max.x ||
        block.bounds.min.y > block.bounds.max.y) {
      return DataLossError("block summary with invalid extents");
    }
    block.first_point = points_seen;
    block.byte_offset = bytes_seen;
    points_seen += count;
    bytes_seen += byte_length;
    blocks.push_back(block);
  }
  if (points_seen != expected_points) {
    return DataLossError("block summary point counts disagree with frame");
  }
  return blocks;
}

}  // namespace stcomp
