#include "stcomp/store/trajectory_store.h"

#include <algorithm>

#include "stcomp/common/check.h"
#include "stcomp/common/strings.h"
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

// `trajectory` mapped to storage values under the same name;
// kInvalidArgument when two fixes collapse onto one stored time.
Result<Trajectory> ToStorageValues(const Trajectory& trajectory, Codec codec) {
  std::vector<TimedPoint> points;
  points.reserve(trajectory.size());
  for (const TimedPoint& point : trajectory.points()) {
    points.push_back(StorageValue(point, codec));
  }
  STCOMP_ASSIGN_OR_RETURN(Trajectory mapped,
                          Trajectory::FromPoints(std::move(points)));
  mapped.set_name(trajectory.name());
  return mapped;
}

// Whether `blocks` cut `num_points` points the way the store does: every
// block but the last holds kDefaultBlockPoints points, the last the rest.
// A v1 frame has no blocks, so it qualifies only when empty.
bool IsStoreBlocked(const std::vector<BlockSummary>& blocks,
                    size_t num_points) {
  size_t first = 0;
  for (const BlockSummary& block : blocks) {
    if (first >= num_points ||
        block.count != std::min(kDefaultBlockPoints, num_points - first)) {
      return false;
    }
    first += block.count;
  }
  return first == num_points;
}

}  // namespace

Status TrajectoryStore::EncodeInto(const Trajectory& trajectory,
                                   Entry* entry) const {
  entry->encoded.clear();
  STCOMP_ASSIGN_OR_RETURN(
      entry->blocks,
      EncodeBlocked(trajectory.points().data(), trajectory.size(), codec_,
                    kDefaultBlockPoints, &entry->encoded));
  return Status::Ok();
}

Status TrajectoryStore::EntryFromFrame(Trajectory frame, FrameLayout layout,
                                       Entry* entry) const {
  if (layout.codec == codec_ && IsStoreBlocked(layout.blocks, frame.size())) {
    // Extents over the decoded points as they are (kRaw maps nothing):
    // they are this store's storage values, what Get() decodes.
    entry->encoded.assign(layout.payload);
    entry->blocks = std::move(layout.blocks);
    for (BlockSummary& block : entry->blocks) {
      SetBlockExtents(frame.points(), Codec::kRaw, &block);
    }
    entry->decoded = std::move(frame);
    return Status::Ok();
  }
  STCOMP_RETURN_IF_ERROR(EncodeInto(frame, entry));
  if (layout.codec == Codec::kRaw && codec_ == Codec::kDelta) {
    STCOMP_ASSIGN_OR_RETURN(entry->decoded, ToStorageValues(frame, codec_));
  } else {
    entry->decoded = std::move(frame);
  }
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
  STCOMP_ASSIGN_OR_RETURN(entry.decoded, ToStorageValues(trajectory, codec_));
  entries_.emplace(object_id, std::move(entry));
  Metrics().inserts->Increment();
  return Status::Ok();
}

Status TrajectoryStore::Append(const std::string& object_id,
                               const TimedPoint& point) {
  STCOMP_SCOPED_TIMER_SAMPLED(Metrics().append_seconds);
  Metrics().appends->Increment();
  const auto it = entries_.find(object_id);
  Entry fresh;
  Entry& entry = it == entries_.end() ? fresh : it->second;
  Trajectory& decoded = entry.decoded;
  const TimedPoint storage = StorageValue(point, codec_);
  if (!decoded.empty() && storage.t <= decoded.back().t) {
    return InvalidArgumentError(StrFormat(
        "appended timestamp %.6f stores as %.6f, not after the object's "
        "last stored time %.6f",
        point.t, storage.t, decoded.back().t));
  }
  // Appends are incremental: only the new point's bytes are encoded, so
  // live tracking is O(1) per fix. When the tail block is full, a new
  // block starts with a fresh chain — byte- and summary-identical to a
  // bulk EncodeInto of the whole point sequence. Encoding comes first, so
  // a point the codec refuses leaves the entry untouched.
  const bool new_block = entry.blocks.empty() ||
                         entry.blocks.back().count >= kDefaultBlockPoints;
  const size_t before = entry.encoded.size();
  STCOMP_RETURN_IF_ERROR(EncodeNextPoint(new_block ? nullptr : &decoded.back(),
                                         point, codec_, &entry.encoded));
  const auto bytes = static_cast<uint32_t>(entry.encoded.size() - before);
  if (new_block) {
    if (!entry.blocks.empty()) {
      // The new point is the previous block's junction: its last segment
      // ends here.
      ExtendBlockSummary(&entry.blocks.back(), storage);
    }
    BlockSummary block = MakeBlockSummary(storage);
    block.first_point = decoded.size();
    block.byte_offset = before;
    block.count = 1;
    block.byte_length = bytes;
    entry.blocks.push_back(block);
  } else {
    BlockSummary& block = entry.blocks.back();
    ++block.count;
    block.byte_length += bytes;
    ExtendBlockSummary(&block, storage);
  }
  STCOMP_CHECK_OK(decoded.Append(storage));
  if (it == entries_.end()) {
    decoded.set_name(object_id);
    entries_.emplace(object_id, std::move(fresh));
  }
  return Status::Ok();
}

Result<Trajectory> TrajectoryStore::Get(const std::string& object_id) const {
  const Entry* entry = FindEntry(object_id);
  if (entry == nullptr) {
    return NotFoundError("object '" + object_id + "' not in store");
  }
  std::vector<TimedPoint> points;
  points.reserve(entry->decoded.size());
  std::string_view cursor = entry->encoded;
  // Each block is its own chain; decode block by block.
  for (const BlockSummary& block : entry->blocks) {
    STCOMP_RETURN_IF_ERROR(
        DecodePointsInto(&cursor, codec_, block.count, &points));
  }
  STCOMP_ASSIGN_OR_RETURN(Trajectory trajectory,
                          Trajectory::FromPoints(std::move(points)));
  const std::string& name = entry->decoded.name();
  trajectory.set_name(name.empty() ? object_id : name);
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

Result<std::span<const TimedPoint>> TrajectoryStore::StoragePoints(
    std::string_view object_id) const {
  const Entry* entry = FindEntry(object_id);
  if (entry == nullptr) {
    return NotFoundError("object '" + std::string(object_id) +
                         "' not in store");
  }
  return std::span<const TimedPoint>(entry->decoded.points());
}

void TrajectoryStore::VisitBlocks(
    const std::function<void(const std::string& id, size_t num_points,
                             const std::vector<BlockSummary>& blocks,
                             std::string_view payload)>& fn) const {
  for (const auto& [id, entry] : entries_) {
    fn(id, entry.decoded.size(), entry.blocks, entry.encoded);
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
  slice.set_name(object_id);
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
    FrameLayout layout;
    STCOMP_ASSIGN_OR_RETURN(Trajectory trajectory,
                            DeserializeTrajectory(&cursor, &layout));
    std::string id = trajectory.name();
    if (id.empty()) {
      return DataLossError("stored trajectory frame without an object id");
    }
    Entry entry;
    STCOMP_RETURN_IF_ERROR(
        EntryFromFrame(std::move(trajectory), std::move(layout), &entry));
    if (!loaded.emplace(id, std::move(entry)).second) {
      return DataLossError("duplicate object id '" + id + "' in store file");
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
  std::vector<FrameLayout> layouts;
  std::vector<Trajectory> frames = ScanTrajectoryFrames(data, stats, &layouts);
  for (size_t i = 0; i < frames.size(); ++i) {
    std::string id = frames[i].name();
    if (id.empty()) {
      stats->log.push_back("dropped frame without an object id");
      continue;
    }
    Entry entry;
    STCOMP_RETURN_IF_ERROR(
        EntryFromFrame(std::move(frames[i]), std::move(layouts[i]), &entry));
    if (!loaded.emplace(id, std::move(entry)).second) {
      stats->log.push_back("dropped duplicate object id '" + id + "'");
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
