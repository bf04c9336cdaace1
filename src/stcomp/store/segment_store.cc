#include "stcomp/store/segment_store.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <utility>

#include "stcomp/common/check.h"
#include "stcomp/common/strings.h"
#include "stcomp/obs/flight_recorder.h"
#include "stcomp/obs/metrics.h"
#include "stcomp/obs/timer.h"
#include "stcomp/obs/trace.h"
#include "stcomp/store/durable_file.h"
#include "stcomp/store/serialization.h"

namespace stcomp {

namespace {

constexpr std::string_view kWalFileName = "wal.stwal";
constexpr std::string_view kIndexFileName = "index.stidx";
constexpr std::string_view kSegmentPrefix = "seg-";
constexpr std::string_view kSegmentSuffix = ".stseg";

// Process-wide recovery and checkpoint series: recoveries and
// checkpoints across all store directories are one operational signal
// each (DESIGN.md §13).
struct WalMetrics {
  obs::Counter* replayed;
  obs::Counter* salvaged;
  obs::Counter* torn_tail;
  obs::Histogram* recovery_seconds;
  obs::Histogram* checkpoint_seconds;
};

const WalMetrics& Metrics() {
  static const WalMetrics* const kMetrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    return new WalMetrics{
        registry.GetCounter("stcomp_wal_replayed_total"),
        registry.GetCounter("stcomp_wal_salvaged_total"),
        registry.GetCounter("stcomp_wal_torn_tail_total"),
        registry.GetHistogram("stcomp_wal_recovery_seconds", {},
                              obs::LatencyBucketsSeconds()),
        registry.GetHistogram("stcomp_checkpoint_seconds", {},
                              obs::LatencyBucketsSeconds())};
  }();
  return *kMetrics;
}

// seg-<8-digit sequence>.stseg; nullopt for anything else.
std::optional<uint64_t> ParseSegmentSequence(const std::string& name) {
  if (name.size() <= kSegmentPrefix.size() + kSegmentSuffix.size() ||
      name.compare(0, kSegmentPrefix.size(), kSegmentPrefix) != 0 ||
      name.compare(name.size() - kSegmentSuffix.size(),
                   kSegmentSuffix.size(), kSegmentSuffix) != 0) {
    return std::nullopt;
  }
  const std::string digits = name.substr(
      kSegmentPrefix.size(),
      name.size() - kSegmentPrefix.size() - kSegmentSuffix.size());
  if (digits.empty()) {
    return std::nullopt;
  }
  uint64_t sequence = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') {
      return std::nullopt;
    }
    sequence = sequence * 10 + static_cast<uint64_t>(c - '0');
  }
  return sequence;
}

// Segment files in `dir`, newest sequence first.
std::vector<std::pair<uint64_t, std::string>> ListSegments(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> segments;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (const auto sequence = ParseSegmentSequence(name)) {
      segments.emplace_back(*sequence, name);
    }
  }
  std::sort(segments.begin(), segments.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return segments;
}

}  // namespace

std::string RecoveryReport::Describe() const {
  std::string out = StrFormat(
      "recovery in %.3fs: segment %s (%zu frames, %zu salvaged%s), wal %zu "
      "records replayed, %zu frames salvaged, %zu uncommitted dropped%s, "
      "%zu replay conflicts",
      recovery_seconds,
      segment_loaded.empty() ? "<none>" : segment_loaded.c_str(),
      segment_frames_loaded, segment_frames_salvaged,
      segment_torn_tail ? ", torn tail" : "", wal_records_replayed,
      wal_frames_salvaged, wal_records_dropped_uncommitted,
      wal_torn_tail ? ", torn tail" : "", replay_records_skipped);
  for (const std::string& line : log) {
    out += "\n  " + line;
  }
  return out;
}

std::string FsckReport::Describe() const {
  std::string out =
      clean() ? std::string("fsck: clean") : std::string("fsck: CORRUPT");
  for (const FsckFileReport& file : files) {
    out += StrFormat("\n  %-24s %8zu bytes, %zu frames ok, %zu salvaged%s",
                     file.file.c_str(), file.bytes, file.frames_good,
                     file.frames_salvaged,
                     file.torn_tail ? ", torn tail" : "");
  }
  return out;
}

SegmentStore::SegmentStore() : SegmentStore(Options()) {}

SegmentStore::SegmentStore(Options options)
    : options_(std::move(options)), store_(options_.codec) {}

std::string SegmentStore::SegmentPath(uint64_t sequence) const {
  return dir_ + "/" + std::string(kSegmentPrefix) +
         StrFormat("%08llu", static_cast<unsigned long long>(sequence)) +
         std::string(kSegmentSuffix);
}

std::string SegmentStore::IndexPath() const {
  return dir_ + "/" + std::string(kIndexFileName);
}

const SpatioTemporalIndex& SegmentStore::Index() {
  index_ = SpatioTemporalIndex::BuildFromStore(store_);
  return index_;
}

Status SegmentStore::Open(const std::string& dir) {
  STCOMP_CHECK(!open_);
  STCOMP_TRACE_SPAN("segment_store.open", dir);
  dir_ = dir;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return IoError("cannot create store directory " + dir_ + ": " +
                   ec.message());
  }
  STCOMP_RETURN_IF_ERROR(Recover());
  STCOMP_RETURN_IF_ERROR(wal_.Open(dir_ + "/" + std::string(kWalFileName)));
  wal_.set_write_hook(options_.write_hook, &boundary_);
  open_ = true;
  return Status::Ok();
}

Status SegmentStore::Recover() {
  STCOMP_TRACE_SPAN("segment_store.recover", dir_);
  const auto started = std::chrono::steady_clock::now();
  recovery_ = RecoveryReport();

  // 1. Newest readable segment wins; a fully unreadable file falls back
  //    to the next older snapshot (and is logged).
  for (const auto& [sequence, name] : ListSegments(dir_)) {
    next_segment_ = std::max(next_segment_, sequence + 1);
    if (!recovery_.segment_loaded.empty()) {
      continue;  // Older snapshot; superseded.
    }
    const Result<std::string> image = ReadFileToString(dir_ + "/" + name);
    if (!image.ok()) {
      recovery_.log.push_back("unreadable segment " + name + ": " +
                              image.status().ToString());
      continue;
    }
    FrameScanStats stats;
    STCOMP_RETURN_IF_ERROR(store_.SalvageFromBuffer(*image, &stats));
    recovery_.segment_loaded = name;
    recovery_.segment_frames_loaded = stats.frames_good;
    recovery_.segment_frames_salvaged = stats.frames_salvaged_past;
    recovery_.segment_torn_tail = stats.torn_tail;
    for (std::string& line : stats.log) {
      recovery_.log.push_back(name + ": " + std::move(line));
    }
  }

  // 2. Replay every committed WAL batch on top. Conflicts (records the
  //    store refuses, e.g. re-replay after a crash between checkpoint and
  //    truncate) are skipped and logged: replay is idempotent.
  const std::string wal_path = dir_ + "/" + std::string(kWalFileName);
  if (std::filesystem::exists(wal_path)) {
    STCOMP_ASSIGN_OR_RETURN(const std::string image,
                            ReadFileToString(wal_path));
    WalScanStats stats;
    const std::vector<WalRecord> records = ScanWal(image, &stats);
    recovery_.wal_records_replayed = stats.records_replayed;
    recovery_.wal_frames_salvaged = stats.frames_salvaged_past;
    recovery_.wal_records_dropped_uncommitted =
        stats.records_dropped_uncommitted;
    recovery_.wal_torn_tail = stats.torn_tail;
    for (std::string& line : stats.log) {
      recovery_.log.push_back("wal: " + std::move(line));
    }
    for (const WalRecord& record : records) {
      Status applied = Status::Ok();
      switch (record.type) {
        case WalRecordType::kAppend:
          applied = store_.Append(record.object_id, record.point);
          break;
        case WalRecordType::kInsert: {
          std::string_view cursor = record.payload;
          Result<Trajectory> trajectory = DeserializeTrajectory(&cursor);
          if (!trajectory.ok()) {
            applied = trajectory.status();
          } else {
            applied = store_.Insert(record.object_id, *trajectory);
          }
          break;
        }
        case WalRecordType::kRemove:
          applied = store_.Remove(record.object_id);
          break;
        case WalRecordType::kCommit:
          break;  // ScanWal never returns markers.
      }
      if (!applied.ok()) {
        ++recovery_.replay_records_skipped;
        recovery_.log.push_back("replay skipped (" + record.object_id +
                                "): " + applied.ToString());
      }
    }
  }

  recovery_.recovery_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  Metrics().replayed->Increment(recovery_.wal_records_replayed);
  Metrics().salvaged->Increment(recovery_.segment_frames_salvaged +
                                recovery_.wal_frames_salvaged);
  if (recovery_.segment_torn_tail || recovery_.wal_torn_tail) {
    Metrics().torn_tail->Increment();
  }
  STCOMP_IF_METRICS(
      Metrics().recovery_seconds->Observe(recovery_.recovery_seconds));
  STCOMP_FLIGHT_EVENT(kRecovery, dir_, recovery_.wal_records_replayed,
                      recovery_.segment_frames_salvaged +
                          recovery_.wal_frames_salvaged);
  return Status::Ok();
}

Status SegmentStore::Append(const std::string& object_id,
                            const TimedPoint& point) {
  STCOMP_CHECK(open_);
  // Head-sampled when it is itself the root; inherits the decision when a
  // pipeline push span is already open on this thread.
  STCOMP_TRACE_SPAN_SAMPLED("segment_store.append", object_id);
  // Memory first: the store's own validation (monotonic time, finite
  // values) decides what is worth logging.
  STCOMP_RETURN_IF_ERROR(store_.Append(object_id, point));
  STCOMP_FLIGHT_EVENT(kStoreAppend, object_id, boundary_, 0);
  return wal_.Append(WalRecord::Append(object_id, point));
}

Status SegmentStore::Insert(const std::string& object_id,
                            const Trajectory& trajectory) {
  STCOMP_CHECK(open_);
  STCOMP_ASSIGN_OR_RETURN(std::string frame,
                          SerializeTrajectory(trajectory, options_.codec));
  STCOMP_RETURN_IF_ERROR(store_.Insert(object_id, trajectory));
  return wal_.Append(WalRecord::Insert(object_id, std::move(frame)));
}

Status SegmentStore::Remove(const std::string& object_id) {
  STCOMP_CHECK(open_);
  STCOMP_RETURN_IF_ERROR(store_.Remove(object_id));
  return wal_.Append(WalRecord::Remove(object_id));
}

Status SegmentStore::Commit() {
  STCOMP_CHECK(open_);
  return wal_.Commit();
}

Status SegmentStore::Checkpoint() {
  STCOMP_CHECK(open_);
  STCOMP_TRACE_SPAN("segment_store.checkpoint", dir_);
  STCOMP_SCOPED_TIMER(Metrics().checkpoint_seconds);
  // Seal staged records first so the snapshot is a superset of everything
  // ever acknowledged as committed.
  STCOMP_RETURN_IF_ERROR(wal_.Commit());
  STCOMP_ASSIGN_OR_RETURN(const std::string image,
                          store_.SerializeToString());
  const uint64_t sequence = next_segment_;
  STCOMP_RETURN_IF_ERROR(AtomicWriteFile(SegmentPath(sequence), image,
                                         options_.write_hook, &boundary_));
  ++next_segment_;
  // Persist the index next to the snapshot it describes, for Fsck and
  // the benchmark. Recovery never reads it, so a crash at either durable
  // boundary, which leaves the old index (or none), costs nothing.
  STCOMP_RETURN_IF_ERROR(AtomicWriteFile(
      IndexPath(),
      SpatioTemporalIndex::BuildFromStore(store_).SerializeToString(),
      options_.write_hook, &boundary_));
  // The snapshot now owns the log's contents. A crash before the truncate
  // re-replays the log over the snapshot at the next Open — idempotent,
  // surfaced as replay conflicts.
  STCOMP_RETURN_IF_ERROR(wal_.Truncate());
  // Prune superseded snapshots; a failure here is cosmetic.
  for (const auto& [old_sequence, name] : ListSegments(dir_)) {
    if (old_sequence < sequence) {
      std::error_code ec;
      std::filesystem::remove(dir_ + "/" + name, ec);
    }
  }
  STCOMP_FLIGHT_EVENT(kCheckpoint, dir_, sequence, 0);
  return Status::Ok();
}

Result<FsckReport> SegmentStore::Fsck(const std::string& dir) {
  if (!std::filesystem::is_directory(dir)) {
    return NotFoundError("no store directory at " + dir);
  }
  FsckReport report;
  std::vector<std::pair<uint64_t, std::string>> segments = ListSegments(dir);
  std::sort(segments.begin(), segments.end());
  const std::string wal_path = dir + "/" + std::string(kWalFileName);
  const std::string index_path = dir + "/" + std::string(kIndexFileName);
  if (segments.empty() && !std::filesystem::exists(wal_path) &&
      !std::filesystem::exists(index_path)) {
    // Nothing to scan is no store, not a clean one: a partitioned root
    // holds its files one level down (PartitionedSegmentStore::Fsck).
    return NotFoundError("no segment, wal or index file in " + dir);
  }
  for (const auto& [sequence, name] : segments) {
    STCOMP_ASSIGN_OR_RETURN(const std::string image,
                            ReadFileToString(dir + "/" + name));
    FrameScanStats stats;
    ScanTrajectoryFrames(image, &stats);
    report.files.push_back(FsckFileReport{name, image.size(),
                                          stats.frames_good,
                                          stats.frames_salvaged_past,
                                          stats.torn_tail});
  }
  if (std::filesystem::exists(wal_path)) {
    STCOMP_ASSIGN_OR_RETURN(const std::string image,
                            ReadFileToString(wal_path));
    WalScanStats stats;
    ScanWal(image, &stats);
    report.files.push_back(FsckFileReport{
        std::string(kWalFileName), image.size(),
        stats.records_replayed + stats.records_dropped_uncommitted,
        stats.frames_salvaged_past, stats.torn_tail});
  }
  if (std::filesystem::exists(index_path)) {
    STCOMP_ASSIGN_OR_RETURN(const std::string image,
                            ReadFileToString(index_path));
    // The index is one CRC-framed document: it either validates whole
    // (frames_good = indexed objects) or is corrupt (flagged; recovery
    // never reads it and the next checkpoint rewrites it, so this is
    // never data loss).
    const Result<SpatioTemporalIndex> index =
        SpatioTemporalIndex::LoadFromBuffer(image);
    report.files.push_back(FsckFileReport{
        std::string(kIndexFileName), image.size(),
        index.ok() ? index->objects().size() : 0, index.ok() ? 0u : 1u,
        false});
  }
  if (!report.clean()) {
    size_t flagged = 0;
    for (const FsckFileReport& file : report.files) {
      if (file.frames_salvaged > 0 || file.torn_tail) {
        ++flagged;
      }
    }
    STCOMP_FLIGHT_EVENT(kFsckCorrupt, dir, flagged, report.files.size());
    STCOMP_IF_METRICS(
        obs::FlightRecorder::DumpGlobal("fsck found corruption in " + dir));
  }
  return report;
}

}  // namespace stcomp
