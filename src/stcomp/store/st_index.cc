#include "stcomp/store/st_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stcomp/store/serialization.h"
#include "stcomp/store/varint.h"

namespace stcomp {

namespace {

constexpr char kIndexMagic[4] = {'S', 'T', 'I', 'X'};
constexpr uint8_t kIndexVersion = 1;
// The v1 header's cell size: written as-is, checked on load, else unused.
constexpr double kCellSizeM = 250.0;

void PutCrc(uint32_t crc, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
}

}  // namespace

std::pair<size_t, size_t> BlocksOverlappingTime(
    const std::vector<BlockSummary>& blocks, double t0, double t1) {
  const auto begin = std::partition_point(
      blocks.begin(), blocks.end(),
      [t0](const BlockSummary& block) { return block.t_max < t0; });
  const auto end = std::partition_point(
      begin, blocks.end(),
      [t1](const BlockSummary& block) { return block.t_min <= t1; });
  return {static_cast<size_t>(begin - blocks.begin()),
          static_cast<size_t>(end - blocks.begin())};
}

SpatioTemporalIndex SpatioTemporalIndex::BuildFromStore(
    const TrajectoryStore& store) {
  SpatioTemporalIndex index;
  index.store_ = &store;
  index.stamp_ = store.stamp();
  store.VisitBlocks([&index](const std::string& id,
                             std::span<const TimedPoint> points,
                             const std::vector<BlockSummary>& blocks,
                             std::string_view payload) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    ObjectEntry entry{.id = id,
                      .num_points = points.size(),
                      .payload_crc = Crc32(payload),
                      .blocks = blocks,
                      .points = points,
                      .t_min = kInf,
                      .t_max = -kInf,
                      .bounds = {{kInf, kInf}, {-kInf, -kInf}}};
    for (const BlockSummary& block : blocks) {
      entry.t_min = std::min(entry.t_min, block.t_min);
      entry.t_max = std::max(entry.t_max, block.t_max);
      entry.bounds.min = {std::min(entry.bounds.min.x, block.bounds.min.x),
                          std::min(entry.bounds.min.y, block.bounds.min.y)};
      entry.bounds.max = {std::max(entry.bounds.max.x, block.bounds.max.x),
                          std::max(entry.bounds.max.y, block.bounds.max.y)};
    }
    index.objects_.push_back(std::move(entry));
  });
  return index;
}

std::string SpatioTemporalIndex::SerializeToString() const {
  std::string out(kIndexMagic, sizeof(kIndexMagic));
  out.push_back(static_cast<char>(kIndexVersion));
  PutDouble(kCellSizeM, &out);
  PutVarint(objects_.size(), &out);
  for (const ObjectEntry& entry : objects_) {
    PutVarint(entry.id.size(), &out);
    out += entry.id;
    PutVarint(entry.num_points, &out);
    PutCrc(entry.payload_crc, &out);
    PutVarint(entry.blocks.size(), &out);
    AppendSummaryTable(entry.blocks, &out);
  }
  PutCrc(Crc32(out), &out);
  return out;
}

Result<SpatioTemporalIndex> SpatioTemporalIndex::LoadFromBuffer(
    std::string_view data) {
  if (data.size() < sizeof(kIndexMagic) + 1 + 8 + 4) {
    return DataLossError("index image truncated");
  }
  if (data.substr(0, 4) != std::string_view(kIndexMagic, 4)) {
    return DataLossError("bad magic; not an index image");
  }
  // Whole-image CRC first: everything after this parses trusted bytes.
  uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |= static_cast<uint32_t>(
                      static_cast<uint8_t>(data[data.size() - 4 + i]))
                  << (8 * i);
  }
  if (Crc32(data.substr(0, data.size() - 4)) != stored_crc) {
    return DataLossError("index image CRC mismatch");
  }
  std::string_view cursor = data.substr(4, data.size() - 8);
  const uint8_t version = static_cast<uint8_t>(cursor[0]);
  cursor.remove_prefix(1);
  if (version != kIndexVersion) {
    return DataLossError("unsupported index version");
  }
  STCOMP_ASSIGN_OR_RETURN(const double cell_size, GetDouble(&cursor));
  if (!std::isfinite(cell_size) || cell_size <= 0.0) {
    return DataLossError("index with non-positive cell size");
  }
  SpatioTemporalIndex index;
  STCOMP_ASSIGN_OR_RETURN(const uint64_t object_count, GetVarint(&cursor));
  if (object_count > cursor.size()) {
    return DataLossError("index object count exceeds image");
  }
  index.objects_.reserve(object_count);
  for (uint64_t i = 0; i < object_count; ++i) {
    ObjectEntry entry;
    STCOMP_ASSIGN_OR_RETURN(const uint64_t id_size, GetVarint(&cursor));
    if (cursor.size() < id_size) {
      return DataLossError("index truncated in object id");
    }
    entry.id.assign(cursor.substr(0, id_size));
    cursor.remove_prefix(id_size);
    if (entry.id.empty()) {
      return DataLossError("index object without an id");
    }
    if (!index.objects_.empty() && index.objects_.back().id >= entry.id) {
      return DataLossError("index object ids out of order");
    }
    STCOMP_ASSIGN_OR_RETURN(entry.num_points, GetVarint(&cursor));
    if (cursor.size() < 4) {
      return DataLossError("index truncated in payload CRC");
    }
    entry.payload_crc = 0;
    for (int b = 0; b < 4; ++b) {
      entry.payload_crc |=
          static_cast<uint32_t>(static_cast<uint8_t>(cursor[b])) << (8 * b);
    }
    cursor.remove_prefix(4);
    STCOMP_ASSIGN_OR_RETURN(const uint64_t block_count, GetVarint(&cursor));
    STCOMP_ASSIGN_OR_RETURN(
        entry.blocks, ParseSummaryTable(&cursor, block_count,
                                        entry.num_points));
    // Queries bisect tables on time; a table no store could have produced
    // must not load.
    for (size_t b = 1; b < entry.blocks.size(); ++b) {
      if (entry.blocks[b].t_min < entry.blocks[b - 1].t_min ||
          entry.blocks[b].t_max < entry.blocks[b - 1].t_max) {
        return DataLossError("index summaries out of time order");
      }
    }
    index.objects_.push_back(std::move(entry));
  }
  if (!cursor.empty()) {
    return DataLossError("index image has trailing bytes");
  }
  return index;
}

}  // namespace stcomp
