#include "stcomp/store/trajectory_store.h"

#include <algorithm>

#include "stcomp/common/check.h"
#include "stcomp/core/interpolation.h"
#include "stcomp/obs/metrics.h"
#include "stcomp/obs/timer.h"
#include "stcomp/obs/trace.h"
#include "stcomp/store/durable_file.h"
#include "stcomp/store/serialization.h"

namespace stcomp {

namespace {

// Process-wide store-layer series (appends across all store instances are
// one ingestion stream); append timing is 1/16 sampled — the live-tracking
// path calls Append once per committed fix.
struct StoreMetrics {
  obs::Counter* appends;
  obs::Counter* inserts;
  obs::Histogram* append_seconds;
};

const StoreMetrics& Metrics() {
  static const StoreMetrics* const kMetrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    return new StoreMetrics{
        registry.GetCounter("stcomp_store_append_total"),
        registry.GetCounter("stcomp_store_insert_total"),
        registry.GetHistogram("stcomp_store_append_seconds", {},
                              obs::LatencyBucketsSeconds())};
  }();
  return *kMetrics;
}

}  // namespace

Status TrajectoryStore::EncodeInto(const Trajectory& trajectory,
                                   Entry* entry) const {
  entry->encoded.clear();
  STCOMP_ASSIGN_OR_RETURN(
      entry->blocks,
      EncodeBlocked(trajectory.points().data(), trajectory.size(), codec_,
                    kDefaultBlockPoints, &entry->encoded));
  entry->num_points = trajectory.size();
  entry->name = trajectory.name();
  entry->decoded = trajectory;
  return Status::Ok();
}

const TrajectoryStore::Entry* TrajectoryStore::FindEntry(
    std::string_view object_id) const {
  const auto it = entries_.find(object_id);
  return it == entries_.end() ? nullptr : &it->second;
}

Status TrajectoryStore::Insert(const std::string& object_id,
                               const Trajectory& trajectory) {
  if (entries_.contains(object_id)) {
    return AlreadyExistsError("object '" + object_id + "' already stored");
  }
  Entry entry;
  STCOMP_RETURN_IF_ERROR(EncodeInto(trajectory, &entry));
  entries_.emplace(object_id, std::move(entry));
  Metrics().inserts->Increment();
  return Status::Ok();
}

Status TrajectoryStore::Append(const std::string& object_id,
                               const TimedPoint& point) {
  STCOMP_SCOPED_TIMER_SAMPLED(Metrics().append_seconds);
  Metrics().appends->Increment();
  auto it = entries_.find(object_id);
  if (it == entries_.end()) {
    Trajectory fresh;
    STCOMP_RETURN_IF_ERROR(fresh.Append(point));
    fresh.set_name(object_id);
    Entry entry;
    STCOMP_RETURN_IF_ERROR(EncodeInto(fresh, &entry));
    entries_.emplace(object_id, std::move(entry));
    return Status::Ok();
  }
  Entry& entry = it->second;
  STCOMP_RETURN_IF_ERROR(entry.decoded.Append(point));
  // Appends are incremental: only the new point's bytes are encoded, so
  // live tracking is O(1) per fix. When the tail block is full, a new
  // block starts with a fresh chain — byte- and summary-identical to a
  // bulk EncodeInto of the whole point sequence.
  const Trajectory& decoded = entry.decoded;
  const size_t n = decoded.size();
  const TimedPoint storage = StorageValue(point, codec_);
  const size_t before = entry.encoded.size();
  if (entry.blocks.empty() || entry.blocks.back().count >= kDefaultBlockPoints) {
    if (!entry.blocks.empty()) {
      // The new point is the previous block's junction: its last segment
      // ends here.
      ExtendBlockSummary(&entry.blocks.back(), storage);
    }
    BlockSummary block = MakeBlockSummary(storage);
    block.first_point = n - 1;
    block.byte_offset = before;
    STCOMP_RETURN_IF_ERROR(
        EncodeNextPoint(nullptr, point, codec_, &entry.encoded));
    block.count = 1;
    block.byte_length = static_cast<uint32_t>(entry.encoded.size() - before);
    entry.blocks.push_back(block);
  } else {
    STCOMP_RETURN_IF_ERROR(
        EncodeNextPoint(&decoded[n - 2], point, codec_, &entry.encoded));
    BlockSummary& block = entry.blocks.back();
    ++block.count;
    block.byte_length += static_cast<uint32_t>(entry.encoded.size() - before);
    ExtendBlockSummary(&block, storage);
  }
  entry.num_points = n;
  return Status::Ok();
}

Result<Trajectory> TrajectoryStore::Get(const std::string& object_id) const {
  const Entry* entry = FindEntry(object_id);
  if (entry == nullptr) {
    return NotFoundError("object '" + object_id + "' not in store");
  }
  std::vector<TimedPoint> points;
  points.reserve(entry->num_points);
  std::string_view cursor = entry->encoded;
  // Each block is its own chain; decode block by block.
  for (const BlockSummary& block : entry->blocks) {
    STCOMP_ASSIGN_OR_RETURN(std::vector<TimedPoint> decoded,
                            DecodePoints(&cursor, codec_, block.count));
    points.insert(points.end(), decoded.begin(), decoded.end());
  }
  STCOMP_ASSIGN_OR_RETURN(Trajectory trajectory,
                          Trajectory::FromPoints(std::move(points)));
  trajectory.set_name(entry->name.empty() ? object_id : entry->name);
  return trajectory;
}

Result<const std::vector<BlockSummary>*> TrajectoryStore::BlockSummariesOf(
    std::string_view object_id) const {
  const Entry* entry = FindEntry(object_id);
  if (entry == nullptr) {
    return NotFoundError("object '" + std::string(object_id) +
                         "' not in store");
  }
  return &entry->blocks;
}

Status TrajectoryStore::DecodeBlockWithJunction(
    std::string_view object_id, size_t block_index,
    std::vector<TimedPoint>* points) const {
  const Entry* entry = FindEntry(object_id);
  if (entry == nullptr) {
    return NotFoundError("object '" + std::string(object_id) +
                         "' not in store");
  }
  if (block_index >= entry->blocks.size()) {
    return OutOfRangeError("block index past the object's block count");
  }
  const std::string_view encoded = entry->encoded;
  const BlockSummary& block = entry->blocks[block_index];
  points->clear();
  points->reserve(block.count + 1);
  std::string_view slice =
      encoded.substr(block.byte_offset, block.byte_length);
  STCOMP_RETURN_IF_ERROR(DecodePointsInto(&slice, codec_, block.count, points));
  if (block_index + 1 < entry->blocks.size()) {
    const BlockSummary& next = entry->blocks[block_index + 1];
    slice = encoded.substr(next.byte_offset, next.byte_length);
    STCOMP_RETURN_IF_ERROR(DecodePointsInto(&slice, codec_, 1, points));
  }
  return Status::Ok();
}

void TrajectoryStore::VisitBlocks(
    const std::function<void(const std::string& id, size_t num_points,
                             const std::vector<BlockSummary>& blocks,
                             std::string_view payload)>& fn) const {
  for (const auto& [id, entry] : entries_) {
    fn(id, entry.num_points, entry.blocks, entry.encoded);
  }
}

Status TrajectoryStore::Remove(const std::string& object_id) {
  if (entries_.erase(object_id) == 0) {
    return NotFoundError("object '" + object_id + "' not in store");
  }
  return Status::Ok();
}

std::vector<std::string> TrajectoryStore::ObjectIds() const {
  std::vector<std::string> ids;
  ids.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) {
    ids.push_back(id);
  }
  return ids;
}

Result<Vec2> TrajectoryStore::PositionAt(const std::string& object_id,
                                         double t) const {
  const auto it = entries_.find(object_id);
  if (it == entries_.end()) {
    return NotFoundError("object '" + object_id + "' not in store");
  }
  return it->second.decoded.PositionAt(t);
}

Result<Trajectory> TrajectoryStore::TimeSlice(const std::string& object_id,
                                              double t0, double t1) const {
  STCOMP_CHECK(t0 <= t1);
  const auto it = entries_.find(object_id);
  if (it == entries_.end()) {
    return NotFoundError("object '" + object_id + "' not in store");
  }
  const Trajectory& decoded = it->second.decoded;
  if (decoded.empty() || t1 < decoded.front().t || t0 > decoded.back().t) {
    return OutOfRangeError("time slice does not overlap the trajectory");
  }
  const double lo = std::max(t0, decoded.front().t);
  const double hi = std::min(t1, decoded.back().t);
  Trajectory slice;
  slice.set_name(decoded.name());
  if (lo == hi) {
    STCOMP_ASSIGN_OR_RETURN(const Vec2 at, decoded.PositionAt(lo));
    STCOMP_CHECK_OK(slice.Append(TimedPoint(lo, at)));
    return slice;
  }
  STCOMP_ASSIGN_OR_RETURN(const Vec2 start, decoded.PositionAt(lo));
  STCOMP_CHECK_OK(slice.Append(TimedPoint(lo, start)));
  for (const TimedPoint& point : decoded.points()) {
    if (point.t > lo && point.t < hi) {
      STCOMP_CHECK_OK(slice.Append(point));
    }
  }
  STCOMP_ASSIGN_OR_RETURN(const Vec2 end, decoded.PositionAt(hi));
  STCOMP_CHECK_OK(slice.Append(TimedPoint(hi, end)));
  return slice;
}

std::vector<std::string> TrajectoryStore::ObjectsInBox(
    const BoundingBox& box) const {
  std::vector<std::string> hits;
  for (const auto& [id, entry] : entries_) {
    for (const TimedPoint& point : entry.decoded.points()) {
      if (box.Contains(point.position)) {
        hits.push_back(id);
        break;
      }
    }
  }
  return hits;
}

Result<std::string> TrajectoryStore::SerializeToString() const {
  std::string image;
  for (const auto& [id, entry] : entries_) {
    // v2 blocked frames, straight from the stored payload — no re-encode.
    STCOMP_ASSIGN_OR_RETURN(
        const std::string frame,
        SerializeBlockedFrame(id, codec_, entry.blocks, entry.encoded));
    image += frame;
  }
  return image;
}

Status TrajectoryStore::SaveToFile(const std::string& path) const {
  STCOMP_TRACE_SPAN("store.save_to_file", path);
  STCOMP_ASSIGN_OR_RETURN(const std::string image, SerializeToString());
  return AtomicWriteFile(path, image);
}

Status TrajectoryStore::LoadFromFile(const std::string& path) {
  STCOMP_TRACE_SPAN("store.load_from_file", path);
  STCOMP_ASSIGN_OR_RETURN(const std::string content, ReadFileToString(path));
  return LoadFromBuffer(content);
}

Status TrajectoryStore::LoadFromBuffer(std::string_view data) {
  std::string_view cursor = data;
  std::map<std::string, Entry, std::less<>> loaded;
  while (!cursor.empty()) {
    STCOMP_ASSIGN_OR_RETURN(const Trajectory trajectory,
                            DeserializeTrajectory(&cursor));
    if (trajectory.name().empty()) {
      return DataLossError("stored trajectory frame without an object id");
    }
    Entry entry;
    STCOMP_RETURN_IF_ERROR(EncodeInto(trajectory, &entry));
    if (!loaded.emplace(trajectory.name(), std::move(entry)).second) {
      return DataLossError("duplicate object id '" + trajectory.name() +
                           "' in store file");
    }
  }
  entries_ = std::move(loaded);
  return Status::Ok();
}

Status TrajectoryStore::SalvageFromBuffer(std::string_view data,
                                          FrameScanStats* stats) {
  FrameScanStats local;
  if (stats == nullptr) {
    stats = &local;
  }
  std::map<std::string, Entry, std::less<>> loaded;
  for (Trajectory& trajectory : ScanTrajectoryFrames(data, stats)) {
    if (trajectory.name().empty()) {
      stats->log.push_back("dropped frame without an object id");
      continue;
    }
    Entry entry;
    STCOMP_RETURN_IF_ERROR(EncodeInto(trajectory, &entry));
    if (!loaded.emplace(trajectory.name(), std::move(entry)).second) {
      stats->log.push_back("dropped duplicate object id '" +
                           trajectory.name() + "'");
    }
  }
  entries_ = std::move(loaded);
  return Status::Ok();
}

size_t TrajectoryStore::StorageBytes() const {
  size_t total = 0;
  for (const auto& [id, entry] : entries_) {
    total += entry.encoded.size();
  }
  return total;
}

}  // namespace stcomp
