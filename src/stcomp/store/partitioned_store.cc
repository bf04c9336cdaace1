#include "stcomp/store/partitioned_store.h"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <optional>
#include <thread>
#include <utility>

#include "stcomp/common/check.h"
#include "stcomp/common/strings.h"
#include "stcomp/obs/trace.h"

namespace stcomp {

namespace {

constexpr std::string_view kShardDirPrefix = "shard-";

std::string ShardDirName(size_t index) {
  return StrFormat("shard-%03zu", index);
}

// shard-<digits> → index; nullopt for anything else.
std::optional<size_t> ParseShardIndex(const std::string& name) {
  if (name.size() <= kShardDirPrefix.size() ||
      name.compare(0, kShardDirPrefix.size(), kShardDirPrefix) != 0) {
    return std::nullopt;
  }
  size_t index = 0;
  for (size_t i = kShardDirPrefix.size(); i < name.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') {
      return std::nullopt;
    }
    index = index * 10 + static_cast<size_t>(c - '0');
  }
  return index;
}

// Existing shard directories under `dir`, as a validated 0..N-1 count.
// kDataLoss if the numbering has holes or duplicates — a partial layout
// means a mangled store, not a smaller fleet.
Result<size_t> CountShardDirs(const std::string& dir) {
  std::vector<size_t> indices;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_directory()) {
      continue;
    }
    const std::string name = entry.path().filename().string();
    if (const auto index = ParseShardIndex(name)) {
      indices.push_back(*index);
    }
  }
  std::sort(indices.begin(), indices.end());
  for (size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] != i) {
      return DataLossError(StrFormat(
          "store at %s has a broken partition layout: expected shard-%03zu, "
          "found shard-%03zu",
          dir.c_str(), i, indices[i]));
    }
  }
  return indices.size();
}

size_t DefaultShardCount() {
  const unsigned cores = std::thread::hardware_concurrency();
  return cores > 0 ? static_cast<size_t>(cores) : 1;
}

}  // namespace

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 14695981039346656037ull;  // FNV offset basis.
  for (const char c : bytes) {
    hash ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    hash *= 1099511628211ull;  // FNV prime.
  }
  return hash;
}

size_t ShardOfObject(std::string_view object_id, size_t num_shards) {
  STCOMP_CHECK(num_shards > 0);
  return static_cast<size_t>(Fnv1a64(object_id) %
                             static_cast<uint64_t>(num_shards));
}

PartitionedSegmentStore::PartitionedSegmentStore()
    : PartitionedSegmentStore(Options()) {}

PartitionedSegmentStore::PartitionedSegmentStore(Options options)
    : options_(std::move(options)) {}

Status PartitionedSegmentStore::Open(const std::string& dir) {
  STCOMP_CHECK(!open_);
  STCOMP_TRACE_SPAN("partitioned_store.open", dir);
  dir_ = dir;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return IoError("cannot create store directory " + dir_ + ": " +
                   ec.message());
  }
  STCOMP_ASSIGN_OR_RETURN(const size_t on_disk, CountShardDirs(dir_));
  size_t count = options_.num_shards;
  if (count == 0) {
    count = on_disk > 0 ? on_disk : DefaultShardCount();
  } else if (on_disk > 0 && count != on_disk) {
    return FailedPreconditionError(StrFormat(
        "store at %s is laid out with %zu shards but %zu were requested; "
        "resharding requires an explicit migration (reopen with %zu shards "
        "and rewrite into a new layout)",
        dir_.c_str(), on_disk, count, on_disk));
  }
  shards_.clear();
  shards_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    SegmentStore::Options shard_options = options_.shard_options;
    if (options_.per_shard_hook) {
      shard_options.write_hook = options_.per_shard_hook(i);
    }
    shards_.push_back(std::make_unique<SegmentStore>(shard_options));
  }
  // One recovery thread per partition: recovery cost is dominated by
  // reading + replaying that partition's files, which is independent work
  // (separate directories, separate metric atomics).
  std::vector<Status> results(count, Status::Ok());
  std::vector<std::thread> workers;
  workers.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    workers.emplace_back([this, &results, i] {
      results[i] = shards_[i]->Open(dir_ + "/" + ShardDirName(i));
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  for (size_t i = 0; i < count; ++i) {
    if (!results[i].ok()) {
      return results[i];
    }
  }
  open_ = true;
  return Status::Ok();
}

SegmentStore& PartitionedSegmentStore::shard(size_t index) {
  STCOMP_CHECK(index < shards_.size());
  return *shards_[index];
}

const SegmentStore& PartitionedSegmentStore::shard(size_t index) const {
  STCOMP_CHECK(index < shards_.size());
  return *shards_[index];
}

Status PartitionedSegmentStore::Append(const std::string& object_id,
                                       const TimedPoint& point) {
  return shard(ShardOf(object_id)).Append(object_id, point);
}

Status PartitionedSegmentStore::Insert(const std::string& object_id,
                                       const Trajectory& trajectory) {
  return shard(ShardOf(object_id)).Insert(object_id, trajectory);
}

Status PartitionedSegmentStore::Remove(const std::string& object_id) {
  return shard(ShardOf(object_id)).Remove(object_id);
}

Result<Trajectory> PartitionedSegmentStore::Get(
    const std::string& object_id) const {
  return shard(ShardOf(object_id)).store().Get(object_id);
}

Result<QueryAnswer> PartitionedSegmentStore::Query(
    const QueryRequest& request) const {
  STCOMP_CHECK(open_);
  const auto by_id = [](const QueryHit& a, const QueryHit& b) {
    return a.id < b.id;
  };
  QueryAnswer merged;
  for (const auto& shard : shards_) {
    STCOMP_ASSIGN_OR_RETURN(QueryAnswer answer, shard->Query(request));
    merged.error_bound_m = std::max(merged.error_bound_m,
                                    answer.error_bound_m);
    merged.stats.objects_considered += answer.stats.objects_considered;
    merged.stats.blocks_total += answer.stats.blocks_total;
    merged.stats.blocks_considered += answer.stats.blocks_considered;
    merged.stats.blocks_decoded += answer.stats.blocks_decoded;
    const size_t run = merged.hits.size();
    merged.hits.insert(merged.hits.end(),
                       std::make_move_iterator(answer.hits.begin()),
                       std::make_move_iterator(answer.hits.end()));
    if (request.type != QueryType::kNearest) {
      // Set-query hits come back in id order and shards own disjoint ids,
      // so merging the runs keeps the union sorted by id.
      std::inplace_merge(merged.hits.begin(), merged.hits.begin() + run,
                         merged.hits.end(), by_id);
    }
  }
  if (request.type == QueryType::kNearest) {
    // Each shard returned its own top k; the global top k is within their
    // union. Ties break to the lower id, as in the single-store engine.
    std::sort(merged.hits.begin(), merged.hits.end(),
              [](const QueryHit& a, const QueryHit& b) {
                if (a.distance_m != b.distance_m) {
                  return a.distance_m < b.distance_m;
                }
                return a.id < b.id;
              });
    if (merged.hits.size() > request.k) {
      merged.hits.resize(request.k);
    }
  }
  return merged;
}

Status PartitionedSegmentStore::Commit() {
  Status first = Status::Ok();
  for (const auto& shard : shards_) {
    const Status status = shard->Commit();
    if (!status.ok() && first.ok()) {
      first = status;
    }
  }
  return first;
}

Status PartitionedSegmentStore::Checkpoint() {
  Status first = Status::Ok();
  for (const auto& shard : shards_) {
    const Status status = shard->Checkpoint();
    if (!status.ok() && first.ok()) {
      first = status;
    }
  }
  return first;
}

bool PartitionedSegmentStore::dead() const {
  for (const auto& shard : shards_) {
    if (shard->dead()) {
      return true;
    }
  }
  return false;
}

size_t PartitionedSegmentStore::object_count() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->store().object_count();
  }
  return total;
}

std::string PartitionedSegmentStore::DescribeRecovery() const {
  std::string out =
      StrFormat("partitioned store: %zu shards", shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    out += "\n";
    out += ShardDirName(i);
    out += ": ";
    out += shards_[i]->last_recovery().Describe();
  }
  return out;
}

bool PartitionedSegmentStore::recovery_clean() const {
  for (const auto& shard : shards_) {
    if (!shard->last_recovery().clean()) {
      return false;
    }
  }
  return true;
}

Result<FsckReport> PartitionedSegmentStore::Fsck(const std::string& dir) {
  if (!std::filesystem::is_directory(dir)) {
    return NotFoundError("no store directory at " + dir);
  }
  STCOMP_ASSIGN_OR_RETURN(const size_t count, CountShardDirs(dir));
  if (count == 0) {
    return NotFoundError("no shard-NNN partitions under " + dir);
  }
  FsckReport merged;
  for (size_t i = 0; i < count; ++i) {
    const std::string shard_dir = ShardDirName(i);
    STCOMP_ASSIGN_OR_RETURN(const FsckReport report,
                            SegmentStore::Fsck(dir + "/" + shard_dir));
    for (FsckFileReport file : report.files) {
      file.file = shard_dir + "/" + file.file;
      merged.files.push_back(std::move(file));
    }
  }
  return merged;
}

}  // namespace stcomp
