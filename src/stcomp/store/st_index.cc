#include "stcomp/store/st_index.h"

#include <cmath>

#include "stcomp/store/serialization.h"
#include "stcomp/store/varint.h"

namespace stcomp {

namespace {

constexpr char kIndexMagic[4] = {'S', 'T', 'I', 'X'};
constexpr uint8_t kIndexVersion = 1;
// The v1 header's cell size: written as-is, checked on load, else unused.
constexpr double kCellSizeM = 250.0;

}  // namespace

SpatioTemporalIndex SpatioTemporalIndex::BuildFromStore(
    const TrajectoryStore& store) {
  SpatioTemporalIndex index;
  index.objects_.reserve(store.object_count());
  for (size_t rank = 0; rank < store.object_count(); ++rank) {
    const TrajectoryStore::Entry& entry = store.EntryAt(rank);
    index.objects_.push_back(ObjectEntry{.id = entry.id,
                                         .num_points = entry.decoded.size(),
                                         .payload_crc = Crc32(entry.encoded),
                                         .blocks = entry.blocks});
  }
  return index;
}

std::string SpatioTemporalIndex::SerializeToString() const {
  std::string out(kIndexMagic, sizeof(kIndexMagic));
  out.push_back(static_cast<char>(kIndexVersion));
  PutDouble(kCellSizeM, &out);
  PutVarint(objects_.size(), &out);
  for (const ObjectEntry& entry : objects_) {
    PutString(entry.id, &out);
    PutVarint(entry.num_points, &out);
    PutFixed32(entry.payload_crc, &out);
    PutVarint(entry.blocks.size(), &out);
    AppendSummaryTable(entry.blocks, &out);
  }
  AppendCrc32Trailer(&out);
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
  std::string_view rest = data.substr(sizeof(kIndexMagic));
  STCOMP_ASSIGN_OR_RETURN(
      std::string_view cursor,
      ReadCrc32Trailer(data, &rest,
                       rest.size() - kCrc32TrailerBytes, "index image"));
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
    STCOMP_ASSIGN_OR_RETURN(const std::string_view id, GetString(&cursor));
    entry.id.assign(id);
    if (entry.id.empty()) {
      return DataLossError("index object without an id");
    }
    if (!index.objects_.empty() && index.objects_.back().id >= entry.id) {
      return DataLossError("index object ids out of order");
    }
    STCOMP_ASSIGN_OR_RETURN(entry.num_points, GetVarint(&cursor));
    STCOMP_ASSIGN_OR_RETURN(entry.payload_crc, GetFixed32(&cursor));
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
