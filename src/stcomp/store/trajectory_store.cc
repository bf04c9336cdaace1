#include "stcomp/store/trajectory_store.h"

#include <algorithm>
#include <utility>

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

// `trajectory`'s points mapped to storage values, unnamed;
// kInvalidArgument when two fixes collapse onto one stored time.
Result<Trajectory> ToStorageValues(const Trajectory& trajectory, Codec codec) {
  std::vector<TimedPoint> points;
  points.reserve(trajectory.size());
  for (const TimedPoint& point : trajectory.points()) {
    points.push_back(StorageValue(point, codec));
  }
  return Trajectory::FromPoints(std::move(points));
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

// Widens the entry's extents to cover [t_min, t_max] x `box`.
void ExtendExtents(double t_min, double t_max, const BoundingBox& box,
                   TrajectoryStore::Entry* entry) {
  entry->t_min = std::min(entry->t_min, t_min);
  entry->t_max = std::max(entry->t_max, t_max);
  entry->bounds.min = {std::min(entry->bounds.min.x, box.min.x),
                       std::min(entry->bounds.min.y, box.min.y)};
  entry->bounds.max = {std::max(entry->bounds.max.x, box.max.x),
                       std::max(entry->bounds.max.y, box.max.y)};
}

// Sets the entry's extents to the union of its block summaries.
void SetExtents(TrajectoryStore::Entry* entry) {
  const TrajectoryStore::Entry empty;
  entry->t_min = empty.t_min;
  entry->t_max = empty.t_max;
  entry->bounds = empty.bounds;
  for (const BlockSummary& block : entry->blocks) {
    ExtendExtents(block.t_min, block.t_max, block.bounds, entry);
  }
}

}  // namespace

TrajectoryStore::TrajectoryStore(Codec codec) : codec_(codec) {}

Status TrajectoryStore::EncodeInto(const Trajectory& trajectory,
                                   Entry* entry) const {
  entry->encoded.clear();
  STCOMP_ASSIGN_OR_RETURN(
      entry->blocks,
      EncodeBlocked(trajectory.points().data(), trajectory.size(), codec_,
                    kDefaultBlockPoints, &entry->encoded));
  SetExtents(entry);
  return Status::Ok();
}

Status TrajectoryStore::EntryFromFrame(Trajectory frame, FrameLayout layout,
                                       Entry* entry) const {
  frame.set_name({});  // The frame's name is the entry's id.
  if (layout.codec == codec_ && IsStoreBlocked(layout.blocks, frame.size())) {
    // Extents over the decoded points as they are (kRaw maps nothing):
    // they are this store's storage values, what Get() decodes.
    entry->encoded.assign(layout.payload);
    entry->blocks = std::move(layout.blocks);
    for (BlockSummary& block : entry->blocks) {
      SetBlockExtents(frame.points(), Codec::kRaw, &block);
    }
    entry->decoded = std::move(frame);
    SetExtents(entry);
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

size_t TrajectoryStore::LowerBound(std::string_view object_id) const {
  return static_cast<size_t>(
      std::partition_point(order_.begin(), order_.end(),
                           [this, object_id](uint32_t position) {
                             return entries_[position].id < object_id;
                           }) -
      order_.begin());
}

const TrajectoryStore::Entry* TrajectoryStore::FindEntry(
    std::string_view object_id) const {
  const size_t rank = LowerBound(object_id);
  return HoldsAt(rank, object_id) ? &entries_[order_[rank]] : nullptr;
}

void TrajectoryStore::AddEntry(size_t rank, Entry entry) {
  STCOMP_CHECK(entries_.size() < std::numeric_limits<uint32_t>::max());
  order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(rank),
                static_cast<uint32_t>(entries_.size()));
  entries_.push_back(std::move(entry));
}

Status TrajectoryStore::Insert(const std::string& object_id,
                               const Trajectory& trajectory) {
  const size_t rank = LowerBound(object_id);
  if (HoldsAt(rank, object_id)) {
    return AlreadyExistsError("object '" + object_id + "' already stored");
  }
  Entry entry;
  entry.id = object_id;
  STCOMP_RETURN_IF_ERROR(EncodeInto(trajectory, &entry));
  STCOMP_ASSIGN_OR_RETURN(entry.decoded, ToStorageValues(trajectory, codec_));
  AddEntry(rank, std::move(entry));
  Metrics().inserts->Increment();
  return Status::Ok();
}

Status TrajectoryStore::Append(const std::string& object_id,
                               const TimedPoint& point) {
  STCOMP_SCOPED_TIMER_SAMPLED(Metrics().append_seconds);
  Metrics().appends->Increment();
  const size_t rank = LowerBound(object_id);
  const bool known = HoldsAt(rank, object_id);
  Entry fresh;
  Entry& entry = known ? entries_[order_[rank]] : fresh;
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
  // Every summary the point joined grew by the point alone.
  ExtendExtents(storage.t, storage.t, {storage.position, storage.position},
                &entry);
  if (!known) {
    fresh.id = object_id;
    AddEntry(rank, std::move(fresh));
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
  trajectory.set_name(entry->id);
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

Status TrajectoryStore::Remove(const std::string& object_id) {
  const size_t rank = LowerBound(object_id);
  if (!HoldsAt(rank, object_id)) {
    return NotFoundError("object '" + object_id + "' not in store");
  }
  const uint32_t hole = order_[rank];
  order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(rank));
  const auto last = static_cast<uint32_t>(entries_.size() - 1);
  if (hole != last) {
    // The last entry moves into the hole, and its rank follows it.
    order_[LowerBound(entries_[last].id)] = hole;
    entries_[hole] = std::move(entries_[last]);
  }
  entries_.pop_back();
  return Status::Ok();
}

std::vector<std::string> TrajectoryStore::ObjectIds() const {
  std::vector<std::string> ids;
  ids.reserve(order_.size());
  for (const uint32_t position : order_) {
    ids.push_back(entries_[position].id);
  }
  return ids;
}

Result<Vec2> TrajectoryStore::PositionAt(const std::string& object_id,
                                         double t) const {
  const Entry* entry = FindEntry(object_id);
  if (entry == nullptr) {
    return NotFoundError("object '" + object_id + "' not in store");
  }
  return entry->decoded.PositionAt(t);
}

Result<Trajectory> TrajectoryStore::TimeSlice(const std::string& object_id,
                                              double t0, double t1) const {
  STCOMP_CHECK(t0 <= t1);
  const Entry* entry = FindEntry(object_id);
  if (entry == nullptr) {
    return NotFoundError("object '" + object_id + "' not in store");
  }
  const Trajectory& decoded = entry->decoded;
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
  for (const uint32_t position : order_) {
    const Entry& entry = entries_[position];
    for (const TimedPoint& point : entry.decoded.points()) {
      if (box.Contains(point.position)) {
        hits.push_back(entry.id);
        break;
      }
    }
  }
  return hits;
}

Result<std::string> TrajectoryStore::SerializeToString() const {
  std::string image;
  for (const uint32_t position : order_) {
    const Entry& entry = entries_[position];
    // v2 blocked frames, straight from the stored payload — no re-encode.
    STCOMP_ASSIGN_OR_RETURN(
        const std::string frame,
        SerializeBlockedFrame(entry.id, codec_, entry.blocks, entry.encoded));
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
  TrajectoryStore loaded(codec_);
  while (!cursor.empty()) {
    FrameLayout layout;
    STCOMP_ASSIGN_OR_RETURN(Trajectory trajectory,
                            DeserializeTrajectory(&cursor, &layout));
    Entry entry;
    entry.id = trajectory.name();
    if (entry.id.empty()) {
      return DataLossError("stored trajectory frame without an object id");
    }
    STCOMP_RETURN_IF_ERROR(
        EntryFromFrame(std::move(trajectory), std::move(layout), &entry));
    const size_t rank = loaded.LowerBound(entry.id);
    if (loaded.HoldsAt(rank, entry.id)) {
      return DataLossError("duplicate object id '" + entry.id +
                           "' in store file");
    }
    loaded.AddEntry(rank, std::move(entry));
  }
  *this = std::move(loaded);
  return Status::Ok();
}

Status TrajectoryStore::SalvageFromBuffer(std::string_view data,
                                          FrameScanStats* stats) {
  FrameScanStats local;
  if (stats == nullptr) {
    stats = &local;
  }
  TrajectoryStore loaded(codec_);
  std::vector<FrameLayout> layouts;
  std::vector<Trajectory> frames = ScanTrajectoryFrames(data, stats, &layouts);
  for (size_t i = 0; i < frames.size(); ++i) {
    Entry entry;
    entry.id = frames[i].name();
    if (entry.id.empty()) {
      stats->log.push_back("dropped frame without an object id");
      continue;
    }
    STCOMP_RETURN_IF_ERROR(
        EntryFromFrame(std::move(frames[i]), std::move(layouts[i]), &entry));
    const size_t rank = loaded.LowerBound(entry.id);
    if (loaded.HoldsAt(rank, entry.id)) {
      stats->log.push_back("dropped duplicate object id '" + entry.id + "'");
      continue;
    }
    loaded.AddEntry(rank, std::move(entry));
  }
  *this = std::move(loaded);
  return Status::Ok();
}

size_t TrajectoryStore::StorageBytes() const {
  size_t total = 0;
  for (const Entry& entry : entries_) {
    total += entry.encoded.size();
  }
  return total;
}

}  // namespace stcomp
