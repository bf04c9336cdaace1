#include "stcomp/stream/sharded_fleet.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "stcomp/common/check.h"
#include "stcomp/common/strings.h"
#include "stcomp/obs/flight_recorder.h"
#include "stcomp/obs/trace.h"
#include "stcomp/stream/checkpoint.h"

namespace stcomp {

namespace {

std::string ResolveShardedInstance(std::string instance) {
  if (!instance.empty()) {
    return instance;
  }
  static std::atomic<uint64_t> sequence{0};
  return "shfleet-" + std::to_string(sequence.fetch_add(1));
}

size_t DefaultShardCount() {
  const unsigned cores = std::thread::hardware_concurrency();
  return cores > 0 ? static_cast<size_t>(cores) : 1;
}

}  // namespace

struct ShardedFleetCompressor::Shard {
  size_t index = 0;
  std::string label;  // "<instance>-sNNN" — metric instance + flight tag.

  struct QueueItem {
    std::string object_id;
    TimedPoint fix;
  };

  // Queue state, guarded by mu. Producers block on cv_space only while
  // the queue is full; the worker blocks on cv_nonempty only while it is
  // empty; Flush-style callers block on cv_drained until empty && !busy.
  mutable std::mutex mu;
  std::condition_variable cv_nonempty;
  std::condition_variable cv_space;
  mutable std::condition_variable cv_drained;
  std::deque<QueueItem> queue;
  bool stop = false;
  bool busy = false;  // Worker is processing a swapped-out batch.
  uint64_t enqueued = 0;
  uint64_t batches = 0;
  uint64_t backpressure_waits = 0;

  // Engine state, guarded by engine_mu. The worker holds it while
  // compressing a batch; FinishObject/stats/checkpoint calls serialize
  // against the worker through it. Never held together with mu.
  mutable std::mutex engine_mu;
  std::unique_ptr<TrajectoryStore> own_store;  // In-memory mode only.
  std::unique_ptr<FleetCompressor> fleet;
  Status first_error;

  // Registry-owned, labeled {shard=<label>}.
  obs::Gauge* depth_gauge = nullptr;
  obs::Counter* enqueued_counter = nullptr;
  obs::Counter* batches_counter = nullptr;
  obs::Counter* backpressure_counter = nullptr;
  obs::Counter* errors_counter = nullptr;

  std::thread worker;
};

ShardedFleetCompressor::ShardedFleetCompressor(
    std::function<std::unique_ptr<OnlineCompressor>()> factory,
    ShardedFleetOptions options)
    : instance_(ResolveShardedInstance(options.instance)),
      options_(std::move(options)) {
  InitShards(std::move(factory));
}

ShardedFleetCompressor::ShardedFleetCompressor(
    std::function<std::unique_ptr<OnlineCompressor>()> factory,
    PartitionedSegmentStore* store, ShardedFleetOptions options)
    : instance_(ResolveShardedInstance(options.instance)),
      options_(std::move(options)),
      durable_(store) {
  STCOMP_CHECK(durable_ != nullptr);
  InitShards(std::move(factory));
}

void ShardedFleetCompressor::InitShards(
    std::function<std::unique_ptr<OnlineCompressor>()> factory) {
  STCOMP_CHECK(factory != nullptr);
  STCOMP_CHECK(options_.queue_capacity > 0);
  STCOMP_CHECK(options_.max_batch > 0);
  size_t count = options_.num_shards;
  if (durable_ != nullptr) {
    // The durable layout owns the id→shard mapping; a disagreeing option
    // is a caller bug, not a runtime condition.
    STCOMP_CHECK(count == 0 || count == durable_->num_shards());
    count = durable_->num_shards();
  } else if (count == 0) {
    count = DefaultShardCount();
  }
  auto& registry = obs::MetricsRegistry::Global();
  shards_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->label = StrFormat("%s-s%03zu", instance_.c_str(), i);
    const obs::LabelSet labels{{"shard", shard->label}};
    shard->depth_gauge = registry.GetGauge("stcomp_shard_queue_depth", labels);
    shard->enqueued_counter =
        registry.GetCounter("stcomp_shard_enqueued_total", labels);
    shard->batches_counter =
        registry.GetCounter("stcomp_shard_batches_total", labels);
    shard->backpressure_counter =
        registry.GetCounter("stcomp_shard_backpressure_total", labels);
    shard->errors_counter =
        registry.GetCounter("stcomp_shard_errors_total", labels);
    FleetCompressor::AppendSink sink;
    if (durable_ != nullptr) {
      SegmentStore* partition = &durable_->shard(i);
      sink = [partition](const std::string& object_id,
                         const TimedPoint& point) {
        return partition->Append(object_id, point);
      };
    } else {
      shard->own_store = std::make_unique<TrajectoryStore>();
      TrajectoryStore* partition = shard->own_store.get();
      sink = [partition](const std::string& object_id,
                         const TimedPoint& point) {
        return partition->Append(object_id, point);
      };
    }
    shard->fleet = std::make_unique<FleetCompressor>(
        factory, std::move(sink), options_.policy, shard->label);
    shards_.push_back(std::move(shard));
  }
  // Workers start only after every shard is fully constructed (a worker
  // never touches a sibling shard, but the loop captures `this`).
  for (auto& shard : shards_) {
    shard->worker =
        std::thread(&ShardedFleetCompressor::WorkerLoop, this, shard.get());
  }
}

ShardedFleetCompressor::~ShardedFleetCompressor() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->stop = true;
    shard->cv_nonempty.notify_all();
    shard->cv_space.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) {
      shard->worker.join();
    }
  }
}

ShardedFleetCompressor::Shard& ShardedFleetCompressor::ShardFor(
    std::string_view object_id) {
  return *shards_[ShardOfObject(object_id, shards_.size())];
}

const ShardedFleetCompressor::Shard& ShardedFleetCompressor::ShardFor(
    std::string_view object_id) const {
  return *shards_[ShardOfObject(object_id, shards_.size())];
}

void ShardedFleetCompressor::RecordShardError(Shard* shard,
                                              const Status& status) {
  // Caller holds shard->engine_mu.
  STCOMP_IF_METRICS(shard->errors_counter->Increment());
  if (shard->first_error.ok()) {
    shard->first_error = status;
    STCOMP_FLIGHT_EVENT(kShardError, shard->label,
                        static_cast<uint64_t>(status.code()), shard->index);
  }
}

void ShardedFleetCompressor::WorkerLoop(Shard* shard) {
  std::vector<Shard::QueueItem> batch;
  batch.reserve(options_.max_batch);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(shard->mu);
      shard->cv_nonempty.wait(
          lock, [shard] { return shard->stop || !shard->queue.empty(); });
      if (shard->queue.empty()) {
        // stop && empty: drained everything that was ever enqueued.
        return;
      }
      // Batch handoff: swap up to max_batch items out under the lock and
      // compress them outside it — producers only ever wait on a FULL
      // queue, never on compression work.
      const size_t take =
          std::min(options_.max_batch, shard->queue.size());
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(shard->queue.front()));
        shard->queue.pop_front();
      }
      shard->busy = true;
      ++shard->batches;
      STCOMP_IF_METRICS(shard->batches_counter->Increment());
      STCOMP_IF_METRICS(shard->depth_gauge->Set(
          static_cast<double>(shard->queue.size())));
      shard->cv_space.notify_all();
    }
    {
      std::lock_guard<std::mutex> lock(shard->engine_mu);
      for (const Shard::QueueItem& item : batch) {
        const Status status = shard->fleet->Push(item.object_id, item.fix);
        if (!status.ok()) {
          // Sticky first error; later fixes still process (per-object
          // failures must not wedge the whole shard).
          RecordShardError(shard, status);
        }
      }
      if (durable_ != nullptr) {
        // Group commit: one durability point per handoff batch.
        const Status status = durable_->shard(shard->index).Commit();
        if (!status.ok()) {
          RecordShardError(shard, status);
        }
      }
    }
    batch.clear();
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->busy = false;
      if (shard->queue.empty()) {
        shard->cv_drained.notify_all();
      }
    }
  }
}

Status ShardedFleetCompressor::Push(std::string_view object_id,
                                    const TimedPoint& fix) {
  Shard& shard = ShardFor(object_id);
  std::unique_lock<std::mutex> lock(shard.mu);
  if (shard.queue.size() >= options_.queue_capacity) {
    ++shard.backpressure_waits;
    STCOMP_IF_METRICS(shard.backpressure_counter->Increment());
    STCOMP_FLIGHT_EVENT(kShardBackpressure, shard.label, shard.queue.size(),
                        shard.backpressure_waits);
    shard.cv_space.wait(lock, [&] {
      return shard.queue.size() < options_.queue_capacity || shard.stop;
    });
  }
  if (shard.stop) {
    return FailedPreconditionError("sharded fleet is shutting down");
  }
  shard.queue.push_back(Shard::QueueItem{std::string(object_id), fix});
  ++shard.enqueued;
  STCOMP_IF_METRICS(shard.enqueued_counter->Increment());
  STCOMP_IF_METRICS(
      shard.depth_gauge->Set(static_cast<double>(shard.queue.size())));
  if (shard.queue.size() == 1) {
    // The worker only ever waits while the queue is empty, so the 0→1
    // transition is the only one that needs a wakeup.
    shard.cv_nonempty.notify_one();
  }
  return Status::Ok();
}

void ShardedFleetCompressor::WaitDrained(Shard* shard) const {
  std::unique_lock<std::mutex> lock(shard->mu);
  shard->cv_drained.wait(
      lock, [shard] { return shard->queue.empty() && !shard->busy; });
}

Status ShardedFleetCompressor::FinishObject(std::string_view object_id) {
  Shard& shard = ShardFor(object_id);
  WaitDrained(&shard);
  std::lock_guard<std::mutex> lock(shard.engine_mu);
  Status status = shard.fleet->FinishObject(object_id);
  if (status.ok() && durable_ != nullptr) {
    status = durable_->shard(shard.index).Commit();
    if (!status.ok()) {
      RecordShardError(&shard, status);
    }
  }
  return status;
}

Status ShardedFleetCompressor::Flush() {
  STCOMP_TRACE_SPAN("sharded_fleet.flush", instance_);
  for (auto& shard : shards_) {
    WaitDrained(shard.get());
  }
  Status first = Status::Ok();
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->engine_mu);
    if (first.ok() && !shard->first_error.ok()) {
      first = shard->first_error;
    }
  }
  return first;
}

Status ShardedFleetCompressor::FinishAll() {
  STCOMP_TRACE_SPAN("sharded_fleet.finish_all", instance_);
  Status first = Flush();
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->engine_mu);
    Status status = shard->fleet->FinishAll();
    if (status.ok() && durable_ != nullptr) {
      status = durable_->shard(shard->index).Commit();
    }
    if (!status.ok()) {
      RecordShardError(shard.get(), status);
      if (first.ok()) {
        first = status;
      }
    }
  }
  return first;
}

size_t ShardedFleetCompressor::fixes_in() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->engine_mu);
    total += shard->fleet->fixes_in();
  }
  return total;
}

size_t ShardedFleetCompressor::fixes_out() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->engine_mu);
    total += shard->fleet->fixes_out();
  }
  return total;
}

size_t ShardedFleetCompressor::active_objects() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->engine_mu);
    total += shard->fleet->active_objects();
  }
  return total;
}

Result<Trajectory> ShardedFleetCompressor::Get(
    std::string_view object_id) const {
  const Shard& shard = ShardFor(object_id);
  std::lock_guard<std::mutex> lock(shard.engine_mu);
  const TrajectoryStore& store = durable_ != nullptr
                                     ? durable_->shard(shard.index).store()
                                     : *shard.own_store;
  return store.Get(std::string(object_id));
}

std::optional<FleetCompressor::ObjectInfo> ShardedFleetCompressor::ObjectStats(
    std::string_view object_id) const {
  const Shard& shard = ShardFor(object_id);
  std::lock_guard<std::mutex> lock(shard.engine_mu);
  return shard.fleet->ObjectStats(object_id);
}

std::vector<ShardedFleetCompressor::ShardStats>
ShardedFleetCompressor::StatsSnapshot() const {
  std::vector<ShardStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStats entry;
    entry.shard = shard->index;
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      entry.queue_depth = shard->queue.size();
      entry.enqueued = shard->enqueued;
      entry.batches = shard->batches;
      entry.backpressure_waits = shard->backpressure_waits;
    }
    {
      std::lock_guard<std::mutex> lock(shard->engine_mu);
      entry.active_objects = shard->fleet->active_objects();
      entry.fixes_in = shard->fleet->fixes_in();
      entry.fixes_out = shard->fleet->fixes_out();
      entry.error = shard->first_error;
    }
    stats.push_back(std::move(entry));
  }
  return stats;
}

std::string ShardedFleetCompressor::RenderObjectsJson(size_t limit) const {
  // Snapshot every shard first (each under its engine_mu), then render —
  // keeps lock hold times proportional to shard size, not fleet size.
  std::vector<FleetCompressor::ObjectInfo> objects;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->engine_mu);
    std::vector<FleetCompressor::ObjectInfo> snapshot =
        shard->fleet->ObjectsSnapshot();
    objects.insert(objects.end(),
                   std::make_move_iterator(snapshot.begin()),
                   std::make_move_iterator(snapshot.end()));
  }
  // Deterministic order across shard layouts (the per-shard snapshots
  // are each sorted, but shard interleaving is hash-dependent).
  std::sort(objects.begin(), objects.end(),
            [](const FleetCompressor::ObjectInfo& a,
               const FleetCompressor::ObjectInfo& b) {
              return a.object_id < b.object_id;
            });
  return RenderObjectzJson(instance_, options_.policy.mode, shards_.size(),
                           objects, limit);
}

Status ShardedFleetCompressor::SaveState(std::string* out) {
  STCOMP_CHECK(out != nullptr);
  STCOMP_TRACE_SPAN("sharded_fleet.save_state", instance_);
  // Drain first so the images capture everything pushed so far. Sticky
  // shard errors don't block a checkpoint — the engine state is still
  // consistent (error-consistent drain accounting).
  for (auto& shard : shards_) {
    WaitDrained(shard.get());
  }
  std::vector<std::string> images(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::lock_guard<std::mutex> lock(shards_[i]->engine_mu);
    STCOMP_RETURN_IF_ERROR(shards_[i]->fleet->SaveState(&images[i]));
  }
  *out += WriteShardManifest(kShardHashFnv1a64, images);
  return Status::Ok();
}

Status ShardedFleetCompressor::RestoreState(std::string_view image) {
  STCOMP_TRACE_SPAN("sharded_fleet.restore_state", instance_);
  for (auto& shard : shards_) {
    WaitDrained(shard.get());
  }
  STCOMP_ASSIGN_OR_RETURN(const ShardManifestView manifest,
                          ParseShardManifest(image));
  if (manifest.hash_scheme != kShardHashFnv1a64) {
    return FailedPreconditionError(StrFormat(
        "sharded checkpoint uses unknown id-hash scheme %u",
        static_cast<unsigned>(manifest.hash_scheme)));
  }
  if (manifest.shard_count != shards_.size()) {
    return FailedPreconditionError(StrFormat(
        "sharded checkpoint was taken with %llu shards but this engine has "
        "%zu; resharding requires an explicit migration (restore into a "
        "%llu-shard engine and re-ingest into the new layout)",
        static_cast<unsigned long long>(manifest.shard_count),
        shards_.size(),
        static_cast<unsigned long long>(manifest.shard_count)));
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::lock_guard<std::mutex> lock(shards_[i]->engine_mu);
    STCOMP_RETURN_IF_ERROR(
        shards_[i]->fleet->RestoreState(manifest.shard_images[i]));
  }
  return Status::Ok();
}

}  // namespace stcomp
