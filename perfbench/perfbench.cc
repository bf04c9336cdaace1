// End-to-end benchmark of the path fix -> durable store -> query.
//
// A seeded fleet (sim/, 1 Hz) is sent by two FleetClients over loopback
// STNI to an IngestServer. The server feeds a durable
// ShardedFleetCompressor (OPW-TR, 25 m) over a two-partition
// PartitionedSegmentStore that already holds the fleet's history; a
// seeded query mix then runs on the store. A run repeats rounds of
// set-up -> ingest (with checkpoints) -> drain -> query until --seconds
// have passed and reports medians over rounds. Every number times a
// public call made here, or reads a counter the program already has.
//
// Output: human-readable lines, then one JSON line
// {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics (--trace=0) or the per-layer metrics of a traced run
// (--trace=1). See perfbench/README.md for workloads and definitions.

#include <malloc.h>
#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "inputs.h"
#include "measure.h"
#include "stcomp/common/flags.h"
#include "stcomp/common/strings.h"
#include "stcomp/net/fleet_client.h"
#include "stcomp/net/ingest_server.h"
#include "stcomp/obs/metrics.h"
#include "stcomp/store/durable_file.h"
#include "stcomp/store/partitioned_store.h"
#include "stcomp/store/st_index.h"
#include "stcomp/store/trajectory_store.h"
#include "stcomp/stream/sharded_fleet.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using stcomp::QueryRequest;
using stcomp::QueryType;
using stcomp::Status;
using stcomp::StrFormat;
using stcomp::TimedPoint;

// Two shards and two connections: with the poll thread and two workers
// this leaves the generators a core between them on a 4-vCPU host, so
// the server is not starved by its own load generator.
constexpr size_t kVehicles = 2000;
constexpr size_t kShards = 2;
constexpr size_t kConnections = 2;
constexpr size_t kBatch = 64;
constexpr size_t kOracleQueriesPerRound = 4;
constexpr int kMinRounds = 5;
// Rounds before the query mix repeats.
constexpr size_t kMixRounds = 8;

struct Workload {
  std::string_view name;
  // Open loop at `rate` fixes/s over all connections with one batch in
  // flight per connection; otherwise a closed loop with the client's
  // default window.
  bool paced;
  double rate;
  size_t fixes_per_round;
  int checkpoints;  // mid-ingest checkpoints per round, by fix count
  size_t queries_per_kind;  // per round; each round runs its own queries
  // The store starts with days [-1, ingest_day - 1] and ingests a prefix
  // of day `ingest_day`; with a WAL tail its last tenth is uncheckpointed.
  int ingest_day;
  bool history_wal_tail;
};

constexpr Workload kWorkloads[] = {
    {"ingest_saturate", false, 0.0, 1'000'000, 1, 80, 0, true},
    {"ingest_paced", true, 100'000.0, 150'000, 0, 80, 0, true},
    {"query_mix", true, 100'000.0, 100'000, 0, 100, 1, false},
};

// Indexed by QueryType (kTimeWindow, kRange, kCorridor, kNearest).
constexpr std::array<const char*, 4> kKindNames = {"window", "range",
                                                    "corridor", "nearest"};

// ---------------------------------------------------------------------------
// Probes of the traced run. Each is written by the thread named and read
// by the main thread once that thread's work is synchronized with it.

// Written by the server's poll thread inside the benchmark's PushFn.
struct PollProbe {
  std::atomic<bool> learned{false};
  std::atomic<clockid_t> clock{CLOCK_THREAD_CPUTIME_ID};
  std::atomic<double> cpu_at_first_push{0.0};
  std::atomic<int64_t> push_ns{0};
  Histogram push_hist;  // read after IngestServer::Stop() joined the thread
};

// One per shard worker thread; written by that thread inside the
// compressor decorator, read after ShardedFleetCompressor::Flush().
struct WorkerProbe {
  clockid_t clock = CLOCK_THREAD_CPUTIME_ID;
  double cpu_at_first_push = 0.0;
  int64_t compress_ns = 0;
  uint64_t pushes = 0;
  uint64_t window_points = 0;
};

class WorkerProbes {
 public:
  WorkerProbe& ForThisThread() {
    thread_local WorkerProbes* owner = nullptr;
    thread_local WorkerProbe* probe = nullptr;
    if (owner != this) {
      auto fresh = std::make_unique<WorkerProbe>();
      fresh->clock = CurrentThreadCpuClock();
      fresh->cpu_at_first_push = ThreadCpuSeconds();
      std::lock_guard<std::mutex> lock(mu_);
      probes_.push_back(std::move(fresh));
      probe = probes_.back().get();
      owner = this;
    }
    return *probe;
  }
  std::vector<const WorkerProbe*> All() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<const WorkerProbe*> all;
    for (const auto& probe : probes_) all.push_back(probe.get());
    return all;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<WorkerProbe>> probes_;
};

// Times OpeningWindowStream::Push on the shard worker that calls it.
class TimedCompressor final : public stcomp::OnlineCompressor {
 public:
  TimedCompressor(std::unique_ptr<stcomp::OnlineCompressor> inner,
                  WorkerProbes* probes)
      : inner_(std::move(inner)), probes_(probes) {}

  Status Push(const TimedPoint& point,
              std::vector<TimedPoint>* out) override {
    WorkerProbe& probe = probes_->ForThisThread();
    const int64_t start = NowNs();
    Status status = inner_->Push(point, out);
    probe.compress_ns += NowNs() - start;
    ++probe.pushes;
    probe.window_points += inner_->buffered_points();
    return status;
  }
  void Finish(std::vector<TimedPoint>* out) override { inner_->Finish(out); }
  size_t buffered_points() const override { return inner_->buffered_points(); }
  std::string_view name() const override { return inner_->name(); }

 private:
  std::unique_ptr<stcomp::OnlineCompressor> inner_;
  WorkerProbes* probes_;
};

// Counts WAL group commits (the fsync boundary has no bytes) and WAL
// bytes while ingest runs; checkpoint writes are not counted.
struct WalProbe {
  std::atomic<bool> counting{false};
  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> bytes{0};
};

// ---------------------------------------------------------------------------
// One round.

struct QueryTally {
  std::vector<double> us;
  uint64_t blocks_total = 0;
  uint64_t blocks_decoded = 0;
  uint64_t hits = 0;
};

struct Round {
  bool traced = false;
  double setup_s = 0.0;
  double open_s = 0.0;
  double server_start_s = 0.0;
  double connect_s = 0.0;
  size_t fixes = 0;
  double ingest_s = 0.0;
  double server_cpu_s = 0.0;
  double generator_cpu_s = 0.0;
  std::vector<double> ack_us;
  std::vector<double> late_us;
  double kept_fraction = 0.0;
  double store_bytes_per_fix = 0.0;
  double peak_rss_mb = 0.0;
  std::array<QueryTally, 4> queries;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  // Traced rounds only.
  double poll_cpu_s = 0.0;
  double push_s = 0.0;
  Histogram push_hist;
  double worker_cpu_s = 0.0;
  double compress_s = 0.0;
  uint64_t compress_pushes = 0;
  uint64_t window_points = 0;
  uint64_t wal_commits = 0;
  uint64_t wal_bytes = 0;
  uint64_t wire_bytes = 0;
  double checkpoint_s = 0.0;   // summed over mid-ingest checkpoints
  double index_build_s = 0.0;  // summed likewise
  double checkpoint_cpu_s = 0.0;
  int checkpoints = 0;
  double drain_s = 0.0;
  uint64_t backpressure = 0;
  uint64_t handoffs = 0;
  double shard_skew = 0.0;
  double segment_load_s = 0.0;
  double index_load_s = 0.0;

  // Records a failed check covering `operations` failed operations.
  void Fail(std::string what, uint64_t operations = 1) {
    failed += operations;
    errors.push_back(std::move(what));
  }
  void Check(const Status& status, const char* what) {
    if (!status.ok()) {
      Fail(StrFormat("%s: %s", what, status.ToString().c_str()));
    }
  }
};

struct Inputs {
  const Workload* workload = nullptr;
  std::vector<std::string> ids;
  std::vector<std::vector<Fix>> streams;
  std::unique_ptr<stcomp::TrajectoryStore> reference;
  std::vector<QueryRequest> mix;
  std::string template_dir;
};

// Per connection: the client, its position in its stream, and what its
// generator thread measured.
struct Generator {
  std::unique_ptr<stcomp::net::FleetClient> client;
  const std::vector<Fix>* stream = nullptr;
  size_t next = 0;
  uint64_t sealed = 0;
  std::deque<std::pair<uint64_t, int64_t>> unacked;  // (seq, due ns)
  std::vector<double> ack_us;
  std::vector<double> late_us;
  double cpu_s = 0.0;
  std::vector<Span> spans;
  std::vector<std::string> errors;
};

// Sends the generator's stream up to `end`, then Flush()es so every batch
// is acked. Closed loop: as fast as the client's window allows. Open loop:
// each batch is due when its last fix is due, at `per_connection_rate`
// from `start_ns`. A batch's ack latency runs from its due time to the
// return of the client call during which its ack was read.
void RunGenerator(Generator* gen, const Inputs& in, size_t end,
                  int64_t start_ns, double per_connection_rate,
                  int32_t parent_span, uint32_t thread_tag, bool traced) {
  const Workload& w = *in.workload;
  const double cpu_start = ThreadCpuSeconds();
  if (w.paced) prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  stcomp::net::FleetClient& client = *gen->client;
  auto retire_acked = [&](int64_t now) {
    const uint64_t acked = client.batches_acked();
    while (!gen->unacked.empty() && gen->unacked.front().first <= acked) {
      gen->ack_us.push_back((now - gen->unacked.front().second) * 1e-3);
      gen->unacked.pop_front();
    }
  };
  while (gen->next < end) {
    const size_t batch_end = std::min(gen->next + kBatch, end);
    int64_t due = 0;
    if (w.paced) {
      due = start_ns +
            static_cast<int64_t>(static_cast<double>(batch_end) * 1e9 /
                                 per_connection_rate);
      const timespec wake = {static_cast<time_t>(due / 1'000'000'000),
                             static_cast<long>(due % 1'000'000'000)};
      while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &wake,
                             nullptr) == EINTR) {
      }
      gen->late_us.push_back((NowNs() - due) * 1e-3);
    }
    const int64_t send = NowNs();
    for (size_t i = gen->next; i < batch_end; ++i) {
      const Fix& fix = (*gen->stream)[i];
      if (!w.paced && i + 1 == batch_end) due = NowNs();
      const Status pushed = client.Push(in.ids[fix.vehicle], fix.point);
      if (!pushed.ok()) gen->errors.push_back(pushed.ToString());
    }
    if (batch_end - gen->next < kBatch) {
      // A segment's partial last batch: Flush() seals and acks it.
      const Status flushed = client.Flush();
      if (!flushed.ok()) gen->errors.push_back(flushed.ToString());
    }
    const int64_t back = NowNs();
    gen->unacked.emplace_back(++gen->sealed, due);
    retire_acked(back);
    if (traced) gen->spans.push_back(Span{"client.batch", send, back,
                                          parent_span, thread_tag});
    gen->next = batch_end;
  }
  const int64_t flush_start = NowNs();
  const Status flushed = client.Flush();
  if (!flushed.ok()) gen->errors.push_back(flushed.ToString());
  retire_acked(NowNs());
  if (traced) gen->spans.push_back(Span{"client.flush", flush_start, NowNs(),
                                        parent_span, thread_tag});
  gen->cpu_s += ThreadCpuSeconds() - cpu_start;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

bool SamePoints(const stcomp::Trajectory& a, const stcomp::Trajectory& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.points().data(), b.points().data(),
                                   a.size() * sizeof(TimedPoint)) == 0);
}

// BruteForceQuery on every partition, merged the way
// PartitionedSegmentStore::Query merges.
stcomp::Result<stcomp::QueryAnswer> OracleQuery(
    const stcomp::PartitionedSegmentStore& store,
    const QueryRequest& request) {
  stcomp::QueryAnswer merged;
  for (size_t i = 0; i < store.num_shards(); ++i) {
    STCOMP_ASSIGN_OR_RETURN(
        const stcomp::QueryAnswer answer,
        stcomp::BruteForceQuery(store.shard(i).store(), request));
    merged.hits.insert(merged.hits.end(), answer.hits.begin(),
                       answer.hits.end());
  }
  auto by_id = [](const stcomp::QueryHit& a, const stcomp::QueryHit& b) {
    return a.id < b.id;
  };
  auto by_distance = [](const stcomp::QueryHit& a, const stcomp::QueryHit& b) {
    return a.distance_m != b.distance_m ? a.distance_m < b.distance_m
                                        : a.id < b.id;
  };
  if (request.type == QueryType::kNearest) {
    std::sort(merged.hits.begin(), merged.hits.end(), by_distance);
    if (merged.hits.size() > request.k) merged.hits.resize(request.k);
  } else {
    std::sort(merged.hits.begin(), merged.hits.end(), by_id);
  }
  return merged;
}

bool SameHits(const stcomp::QueryAnswer& a, const stcomp::QueryAnswer& b) {
  if (a.hits.size() != b.hits.size()) return false;
  for (size_t i = 0; i < a.hits.size(); ++i) {
    if (a.hits[i].id != b.hits[i].id ||
        std::memcmp(&a.hits[i].first_hit_t, &b.hits[i].first_hit_t,
                    sizeof(double)) != 0 ||
        std::memcmp(&a.hits[i].distance_m, &b.hits[i].distance_m,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// Replays the recovery reads of Open() on the round's starting store:
// each partition's newest segment through TrajectoryStore::LoadFromBuffer
// and its index through SpatioTemporalIndex::LoadFromBuffer.
void TimeRecoverySteps(const std::string& dir, Round* round) {
  for (size_t shard = 0; shard < kShards; ++shard) {
    const std::string partition = StrFormat("%s/shard-%03zu", dir.c_str(),
                                            shard);
    std::string newest_segment;
    for (const auto& entry : fs::directory_iterator(partition)) {
      const std::string name = entry.path().filename().string();
      if (name.ends_with(".stseg") && name > newest_segment) {
        newest_segment = name;
      }
    }
    auto segment = stcomp::ReadFileToString(partition + "/" + newest_segment);
    auto index = stcomp::ReadFileToString(partition + "/index.stidx");
    if (!segment.ok() || !index.ok()) {
      round->Fail("cannot read the starting store's segment or index");
      return;
    }
    stcomp::TrajectoryStore store;
    int64_t start = NowNs();
    round->Check(store.LoadFromBuffer(*segment), "segment load");
    round->segment_load_s += (NowNs() - start) * 1e-9;
    start = NowNs();
    round->Check(stcomp::SpatioTemporalIndex::LoadFromBuffer(*index).status(),
                 "index load");
    round->index_load_s += (NowNs() - start) * 1e-9;
  }
}

Round RunRound(const Inputs& in, const std::string& dir, bool traced,
               int index, SpanLog* log) {
  const Workload& w = *in.workload;
  Round round;
  round.traced = traced;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::copy(in.template_dir, dir, fs::copy_options::recursive, ec);
  if (ec) {
    round.Fail("cannot copy the starting store: " + ec.message());
    return round;
  }
  malloc_trim(0);
  const double rss_base_mb = CurrentRssMb();
  RssSampler rss;
  const int32_t root = log->Open(StrFormat("round[%d]", index), -1);
  std::vector<Span> main_spans;
  // Runs `call` as a span under `parent`; adds its seconds to `*seconds`.
  auto timed = [&](const char* name, int32_t parent, double* seconds,
                   auto&& call) {
    const int64_t start = NowNs();
    auto result = call();
    const int64_t end = NowNs();
    if (log->enabled()) main_spans.push_back(Span{name, start, end, parent, 0});
    if (seconds != nullptr) *seconds += (end - start) * 1e-9;
    return result;
  };

  // --- Set-up: open (recover) the store, start the engine and the server,
  // connect the gateways.
  PollProbe poll;
  WorkerProbes workers;
  std::array<WalProbe, kShards> wal;
  stcomp::PartitionedSegmentStore::Options store_options;
  store_options.num_shards = kShards;
  if (traced) {
    store_options.per_shard_hook = [&wal](size_t shard) {
      WalProbe* probe = &wal[shard];
      return stcomp::WriteFaultHook([probe](size_t, std::string_view bytes) {
        if (probe->counting.load(std::memory_order_relaxed)) {
          if (bytes.empty()) {
            probe->commits.fetch_add(1, std::memory_order_relaxed);
          } else {
            probe->bytes.fetch_add(bytes.size(), std::memory_order_relaxed);
          }
        }
        return stcomp::WriteFault{};
      });
    };
  }
  const int32_t setup = log->Open("setup", root);
  const int64_t setup_start = NowNs();
  auto store = std::make_unique<stcomp::PartitionedSegmentStore>(store_options);
  round.Check(timed("store.open", setup, &round.open_s,
                    [&] { return store->Open(dir); }),
              "store open");
  std::function<std::unique_ptr<stcomp::OnlineCompressor>()> factory =
      MakeCompressor;
  if (traced) {
    factory = [&workers] {
      return std::make_unique<TimedCompressor>(MakeCompressor(), &workers);
    };
  }
  stcomp::ShardedFleetOptions engine_options;
  engine_options.num_shards = kShards;
  auto engine = std::make_unique<stcomp::ShardedFleetCompressor>(
      factory, store.get(), engine_options);
  stcomp::net::IngestServer::PushFn push =
      [engine = engine.get()](std::string_view id, const TimedPoint& fix) {
        return engine->Push(id, fix);
      };
  if (traced) {
    push = [engine = engine.get(), &poll](std::string_view id,
                                          const TimedPoint& fix) {
      if (!poll.learned.load(std::memory_order_relaxed)) {
        poll.clock.store(CurrentThreadCpuClock());
        poll.cpu_at_first_push.store(ThreadCpuSeconds());
        poll.learned.store(true);
      }
      const int64_t start = NowNs();
      Status status = engine->Push(id, fix);
      const int64_t spent = NowNs() - start;
      poll.push_ns.fetch_add(spent, std::memory_order_relaxed);
      poll.push_hist.Add(spent);
      return status;
    };
  }
  auto server = std::make_unique<stcomp::net::IngestServer>(push);
  round.Check(timed("server.start", setup, &round.server_start_s,
                    [&] { return server->Start(0); }),
              "server start");
  std::vector<Generator> gens(kConnections);
  for (size_t c = 0; c < kConnections; ++c) {
    stcomp::net::FleetClientOptions options;
    options.port = server->port();
    options.client_id = StrFormat("gateway-%zu", c);
    options.batch_size = kBatch;
    if (w.paced) options.max_inflight_batches = 1;
    gens[c].client =
        std::make_unique<stcomp::net::FleetClient>(std::move(options));
    gens[c].stream = &in.streams[c];
    round.Check(timed("client.connect", setup, &round.connect_s,
                      [&] { return gens[c].client->Connect(); }),
                "client connect");
  }
  round.setup_s = (NowNs() - setup_start) * 1e-9;
  log->Close(setup);
  if (!round.errors.empty()) return round;

  // --- Ingest: segments of the streams separated by checkpoints; the
  // window runs from the first client write until the engine has drained.
  auto set_wal_counting = [&wal](bool on) {
    for (WalProbe& probe : wal) probe.counting.store(on);
  };
  const double cpu_start = ProcessCpuSeconds();
  const double rss_cpu_start = rss.CpuSeconds();
  const int64_t ingest_start = NowNs();
  const double per_connection_rate = w.rate / kConnections;
  for (int segment = 0; segment <= w.checkpoints; ++segment) {
    const int32_t phase = log->Open(StrFormat("ingest[%d]", segment), root);
    set_wal_counting(true);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kConnections; ++c) {
      const size_t end = in.streams[c].size() * (segment + 1) /
                         (w.checkpoints + 1);
      threads.emplace_back(RunGenerator, &gens[c], std::cref(in), end,
                           ingest_start, per_connection_rate, phase,
                           static_cast<uint32_t>(c + 1), traced);
    }
    for (std::thread& thread : threads) thread.join();
    log->Close(phase);
    if (segment == w.checkpoints) break;
    // Checkpoint at the barrier: every batch is acked, so drain the
    // engine, then checkpoint every partition.
    const int32_t checkpoint =
        log->Open(StrFormat("checkpoint[%d]", segment), root);
    const double checkpoint_cpu = ThreadCpuSeconds();
    const int64_t checkpoint_start = NowNs();
    round.Check(timed("engine.flush", checkpoint, nullptr,
                      [&] { return engine->Flush(); }),
                "engine flush");
    set_wal_counting(false);
    if (traced) {
      for (size_t shard = 0; shard < kShards; ++shard) {
        timed("store.index", checkpoint, &round.index_build_s,
              [&] { return &store->shard(shard).Index(); });
      }
    }
    round.Check(timed("store.checkpoint", checkpoint, nullptr,
                      [&] { return store->Checkpoint(); }),
                "checkpoint");
    round.checkpoint_s += (NowNs() - checkpoint_start) * 1e-9;
    round.checkpoint_cpu_s += ThreadCpuSeconds() - checkpoint_cpu;
    ++round.checkpoints;
    log->Close(checkpoint);
  }
  const int32_t drain = log->Open("drain", root);
  round.Check(timed("engine.flush", drain, &round.drain_s,
                    [&] { return engine->Flush(); }),
              "engine flush");
  log->Close(drain);
  round.ingest_s = (NowNs() - ingest_start) * 1e-9;
  const double process_cpu = ProcessCpuSeconds() - cpu_start;
  set_wal_counting(false);
  for (const Generator& gen : gens) {
    round.generator_cpu_s += gen.cpu_s;
    round.fixes += gen.stream->size();
  }
  round.server_cpu_s = process_cpu - round.generator_cpu_s -
                       (rss.CpuSeconds() - rss_cpu_start);
  if (traced) {
    if (poll.learned.load()) {
      round.poll_cpu_s =
          CpuSeconds(poll.clock.load()) - poll.cpu_at_first_push.load();
    }
    round.push_s = poll.push_ns.load() * 1e-9;
    for (const WorkerProbe* probe : workers.All()) {
      round.worker_cpu_s += CpuSeconds(probe->clock) - probe->cpu_at_first_push;
      round.compress_s += probe->compress_ns * 1e-9;
      round.compress_pushes += probe->pushes;
      round.window_points += probe->window_points;
    }
    for (const WalProbe& probe : wal) {
      round.wal_commits += probe.commits.load();
      round.wal_bytes += probe.bytes.load();
    }
    uint64_t max_enqueued = 0, sum_enqueued = 0;
    for (const auto& shard : engine->StatsSnapshot()) {
      round.backpressure += shard.backpressure_waits;
      round.handoffs += shard.batches;
      sum_enqueued += shard.enqueued;
      max_enqueued = std::max(max_enqueued, shard.enqueued);
    }
    round.shard_skew = sum_enqueued == 0 ? 0.0
                                         : static_cast<double>(max_enqueued) *
                                               kShards / sum_enqueued;
    round.wire_bytes = stcomp::obs::MetricsRegistry::Global()
                           .GetCounter("stcomp_net_bytes_in_total",
                                       {{"server", server->instance()}})
                           ->value();
  }

  // --- Finish: flush every object's tail, checkpoint, say goodbye.
  const int64_t finish_start = NowNs();
  round.Check(timed("engine.finish_all", root, nullptr,
                    [&] { return engine->FinishAll(); }),
              "finish all");
  const uint64_t fixes_in = engine->fixes_in();
  round.kept_fraction =
      fixes_in == 0 ? 0.0 : static_cast<double>(engine->fixes_out()) / fixes_in;
  engine.reset();
  round.Check(timed("store.checkpoint", root, nullptr,
                    [&] { return store->Checkpoint(); }),
              "final checkpoint");
  for (Generator& gen : gens) {
    round.Check(gen.client->Bye(), "client bye");
    if (gen.client->reconnects() != 0) {
      round.Fail(StrFormat("%llu reconnects", static_cast<unsigned long long>(
                                                  gen.client->reconnects())),
                 gen.client->reconnects());
    }
    for (std::string& error : gen.errors) round.Fail(std::move(error));
    round.ack_us.insert(round.ack_us.end(), gen.ack_us.begin(),
                        gen.ack_us.end());
    round.late_us.insert(round.late_us.end(), gen.late_us.begin(),
                         gen.late_us.end());
    if (gen.client->batches_acked() != gen.sealed) {
      const uint64_t acked = gen.client->batches_acked();
      round.Fail(StrFormat("%llu of %llu batches acked",
                           static_cast<unsigned long long>(acked),
                           static_cast<unsigned long long>(gen.sealed)),
                 gen.sealed - std::min(gen.sealed, acked));
    }
    log->Add(std::move(gen.spans));
    round.attempted += gen.sealed;
  }
  server->Stop();
  if (traced) round.push_hist = poll.push_hist;
  if (server->fixes_in() != round.fixes) {
    round.Fail(StrFormat("server received %llu of %zu fixes",
                         static_cast<unsigned long long>(server->fixes_in()),
                         round.fixes));
  }
  uint64_t batches = 0;
  for (const Generator& gen : gens) batches += gen.sealed;
  if (server->batches_acked() != batches) {
    round.Fail(
        StrFormat("server acked %llu of %llu batches",
                  static_cast<unsigned long long>(server->batches_acked()),
                  static_cast<unsigned long long>(batches)));
  }
  const uint64_t refused = server->sessions_shed() +
                           server->protocol_errors() +
                           server->duplicate_batches() +
                           server->idle_timeouts();
  if (refused != 0) {
    round.Fail("server shed sessions, saw protocol errors, duplicate "
               "batches or idle timeouts",
               refused);
  }

  // --- Query: the seeded mix on the store just written.
  const int64_t query_start = NowNs();
  const int32_t query = log->Open("query", root);
  const size_t per_round = in.workload->queries_per_kind * kKindNames.size();
  const size_t first = static_cast<size_t>(index) * per_round % in.mix.size();
  for (size_t q = first; q < first + per_round; ++q) {
    const QueryRequest& request = in.mix[q % in.mix.size()];
    const int64_t start = NowNs();
    auto answer = store->Query(request);
    const int64_t end = NowNs();
    const size_t kind = static_cast<size_t>(request.type);
    if (log->enabled()) {
      main_spans.push_back(Span{StrFormat("store.query.%s", kKindNames[kind]),
                                start, end, query, 0});
    }
    ++round.attempted;
    if (!answer.ok()) {
      round.Fail("query: " + answer.status().ToString());
      continue;
    }
    QueryTally& tally = round.queries[kind];
    tally.us.push_back((end - start) * 1e-3);
    tally.blocks_total += answer->stats.blocks_total;
    tally.blocks_decoded += answer->stats.blocks_decoded;
    tally.hits += answer->hits.size();
  }
  log->Close(query);
  round.peak_rss_mb = rss.PeakMb() - rss_base_mb;
  log->Close(root);
  log->Add(std::move(main_spans));

  // --- Output checks, outside every timed window.
  const int64_t checks_start = NowNs();
  size_t points_held = 0;
  for (const std::string& id : in.ids) {
    auto stored = store->Get(id);
    auto expected = in.reference->Get(id);
    if (!stored.ok() || !expected.ok() || !SamePoints(*stored, *expected)) {
      round.Fail("stored trajectory of " + id +
                 " differs from the in-process FleetCompressor");
      continue;
    }
    points_held += stored->size();
  }
  round.store_bytes_per_fix =
      points_held == 0 ? 0.0
                       : static_cast<double>(DirectoryBytes(dir)) / points_held;
  for (size_t q = first; q < first + per_round;
       q += per_round / kOracleQueriesPerRound) {
    const QueryRequest& request = in.mix[q % in.mix.size()];
    auto engine_answer = store->Query(request);
    auto oracle_answer = OracleQuery(*store, request);
    if (!engine_answer.ok() || !oracle_answer.ok() ||
        !SameHits(*engine_answer, *oracle_answer)) {
      round.Fail(StrFormat("query %zu differs from BruteForceQuery", q));
    }
  }
  store.reset();
  // Fsck re-reads and re-validates every file (about as long as the
  // round's set-up), so only the first round of a run pays for it.
  if (index == 0) {
    auto fsck = stcomp::PartitionedSegmentStore::Fsck(dir);
    if (!fsck.ok() || !fsck->clean()) round.Fail("fsck is not clean");
  }
  if (traced) TimeRecoverySteps(in.template_dir, &round);
  std::fprintf(stderr,
               "  round %d%s: setup %.3f s, ingest %.3f s (%.0f fixes/s, "
               "%.3f us CPU/fix), finish %.3f s, query %.3f s, checks %.3f "
               "s, rss +%.1f MB\n",
               index, traced ? " (traced)" : "", round.setup_s,
               round.ingest_s, round.fixes / round.ingest_s,
               round.server_cpu_s * 1e6 / round.fixes,
               (query_start - finish_start) * 1e-9,
               (checks_start - query_start) * 1e-9,
               (NowNs() - checks_start) * 1e-9, round.peak_rss_mb);
  return round;
}

// ---------------------------------------------------------------------------
// Reporting.

template <typename F>
double MedianOf(const std::vector<const Round*>& rounds, F value) {
  std::vector<double> values;
  for (const Round* round : rounds) values.push_back(value(*round));
  return Median(std::move(values));
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    // A ratio with an empty base reads 0 rather than producing NaN.
    const double value =
        std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                     metrics[i].unit.c_str());
  }
  return out + "}";
}

// Wall-clock ingest rate and ack latency. On this kind of host both follow
// hypervisor steal and, at saturation, fsync latency far more than the
// code, so they are diagnostics, not gated end-to-end metrics.
double IngestFixesPerS(const std::vector<const Round*>& rounds) {
  return MedianOf(rounds, [](const Round& r) { return r.fixes / r.ingest_s; });
}
double AckP50Us(const std::vector<const Round*>& rounds) {
  return MedianOf(rounds, [](const Round& r) { return Median(r.ack_us); });
}

std::vector<Metric> EndToEnd(const std::vector<const Round*>& rounds) {
  std::vector<Metric> metrics = {
      {"setup_s", MedianOf(rounds, [](const Round& r) { return r.setup_s; }),
       "s"},
      {"ingest_cpu_us_per_fix",
       MedianOf(rounds,
                [](const Round& r) { return r.server_cpu_s * 1e6 / r.fixes; }),
       "us"},
  };
  // Each round runs different queries of the mix, so query latencies are
  // pooled over rounds.
  std::vector<double> all_query_us;
  for (size_t kind = 0; kind < kKindNames.size(); ++kind) {
    std::vector<double> us;
    for (const Round* round : rounds) {
      const std::vector<double>& sample = round->queries[kind].us;
      us.insert(us.end(), sample.begin(), sample.end());
    }
    all_query_us.insert(all_query_us.end(), us.begin(), us.end());
    metrics.push_back({StrFormat("query_%s_p50_us", kKindNames[kind]),
                       Median(std::move(us)), "us"});
  }
  metrics.push_back({"query_p99_us", Quantile(all_query_us, 0.99), "us"});
  metrics.push_back(
      {"kept_fraction",
       MedianOf(rounds, [](const Round& r) { return r.kept_fraction; }),
       "ratio"});
  metrics.push_back(
      {"store_bytes_per_fix",
       MedianOf(rounds, [](const Round& r) { return r.store_bytes_per_fix; }),
       "B"});
  metrics.push_back(
      {"peak_rss_mb",
       MedianOf(rounds, [](const Round& r) { return r.peak_rss_mb; }), "MB"});
  return metrics;
}

std::vector<Metric> PerLayer(const std::vector<const Round*>& traced,
                             const std::vector<const Round*>& untraced,
                             double steal) {
  auto per_fix = [&](auto value) {
    return MedianOf(traced, [&](const Round& r) { return value(r) / r.fixes; });
  };
  std::vector<double> ack, late;
  Histogram push;
  for (const Round* r : traced) {
    ack.insert(ack.end(), r->ack_us.begin(), r->ack_us.end());
    late.insert(late.end(), r->late_us.begin(), r->late_us.end());
    push.Merge(r->push_hist);
  }
  const double untraced_cpu = MedianOf(
      untraced, [](const Round& r) { return r.server_cpu_s / r.fixes; });
  const double traced_cpu = MedianOf(
      traced, [](const Round& r) { return r.server_cpu_s / r.fixes; });
  std::vector<Metric> metrics = {
      {"net.ingest_fixes_per_s", IngestFixesPerS(untraced), "1/s"},
      {"net.ack_p50_us", AckP50Us(untraced), "us"},
      {"net.poll_cpu_us_per_fix",
       per_fix([](const Round& r) { return (r.poll_cpu_s - r.push_s) * 1e6; }),
       "us"},
      {"net.poll_blocked_frac",
       MedianOf(traced, [](const Round& r) { return r.push_s / r.ingest_s; }),
       "ratio"},
      {"net.wire_bytes_per_fix",
       per_fix([](const Round& r) { return double(r.wire_bytes); }), "B"},
      {"net.client_cpu_us_per_fix",
       per_fix([](const Round& r) { return r.generator_cpu_s * 1e6; }), "us"},
      {"net.ack_p99_us", Quantile(ack, 0.99), "us"},
      {"net.ack_p999_us", Quantile(ack, 0.999), "us"},
      {"net.ack_samples", static_cast<double>(ack.size()), "count"},
      {"net.generator_late_p99_us", Quantile(late, 0.99), "us"},
      {"stream.push_us_p50", push.QuantileUs(0.5), "us"},
      {"stream.push_us_p99", push.QuantileUs(0.99), "us"},
      {"stream.backpressure_per_mfix",
       per_fix([](const Round& r) { return r.backpressure * 1e6; }), "count"},
      {"stream.shard_skew",
       MedianOf(traced, [](const Round& r) { return r.shard_skew; }), "ratio"},
      {"stream.fixes_per_handoff",
       MedianOf(traced,
                [](const Round& r) { return double(r.fixes) / r.handoffs; }),
       "count"},
      {"stream.worker_cpu_us_per_fix",
       per_fix([](const Round& r) {
         return (r.worker_cpu_s - r.compress_s) * 1e6;
       }),
       "us"},
      {"stream.drain_s",
       MedianOf(traced, [](const Round& r) { return r.drain_s; }), "s"},
      {"algo.compress_us_per_fix",
       per_fix([](const Round& r) { return r.compress_s * 1e6; }), "us"},
      {"algo.window_points_mean",
       MedianOf(traced,
                [](const Round& r) {
                  return double(r.window_points) / r.compress_pushes;
                }),
       "count"},
      {"store.wal_commits_per_kfix",
       per_fix([](const Round& r) { return r.wal_commits * 1e3; }), "count"},
      {"store.wal_bytes_per_fix",
       per_fix([](const Round& r) { return double(r.wal_bytes); }), "B"},
      {"store.checkpoint_s",
       MedianOf(traced,
                [](const Round& r) {
                  return r.checkpoints ? r.checkpoint_s / r.checkpoints : 0.0;
                }),
       "s"},
      {"store.index_build_s",
       MedianOf(traced,
                [](const Round& r) {
                  return r.checkpoints ? r.index_build_s / r.checkpoints : 0.0;
                }),
       "s"},
      {"store.open_s",
       MedianOf(traced, [](const Round& r) { return r.open_s; }), "s"},
      {"store.segment_load_s",
       MedianOf(traced, [](const Round& r) { return r.segment_load_s; }), "s"},
      {"store.index_load_s",
       MedianOf(traced, [](const Round& r) { return r.index_load_s; }), "s"},
      {"setup.server_start_s",
       MedianOf(traced, [](const Round& r) { return r.server_start_s; }), "s"},
      {"setup.connect_s",
       MedianOf(traced, [](const Round& r) { return r.connect_s; }), "s"},
  };
  for (size_t kind = 0; kind < kKindNames.size(); ++kind) {
    std::vector<double> us;
    uint64_t total = 0, decoded = 0, hits = 0;
    for (const Round* r : traced) {
      const QueryTally& tally = r->queries[kind];
      us.insert(us.end(), tally.us.begin(), tally.us.end());
      total += tally.blocks_total;
      decoded += tally.blocks_decoded;
      hits += tally.hits;
    }
    const std::string prefix = StrFormat("query.%s.", kKindNames[kind]);
    metrics.push_back({prefix + "p99_us", Quantile(us, 0.99), "us"});
    metrics.push_back(
        {prefix + "blocks_decoded",
         us.empty() ? 0.0 : static_cast<double>(decoded) / us.size(), "count"});
    metrics.push_back({prefix + "decoded_fraction",
                       total == 0 ? 0.0 : static_cast<double>(decoded) / total,
                       "ratio"});
    metrics.push_back(
        {prefix + "hits_per_decoded_block",
         decoded == 0 ? 0.0 : static_cast<double>(hits) / decoded, "ratio"});
  }
  metrics.push_back(
      {"unattributed_cpu_frac",
       MedianOf(traced,
                [](const Round& r) {
                  const double layers =
                      r.poll_cpu_s + r.worker_cpu_s + r.checkpoint_cpu_s;
                  return 1.0 - layers / r.server_cpu_s;
                }),
       "ratio"});
  metrics.push_back({"obs.trace_overhead_frac",
                     untraced_cpu > 0 ? traced_cpu / untraced_cpu - 1.0 : 0.0,
                     "ratio"});
  metrics.push_back({"host.steal_frac", steal, "ratio"});
  return metrics;
}

void PrintSample(const char* what, std::vector<double> us) {
  // The highest percentile with at least ten samples beyond it.
  const double n = static_cast<double>(us.size());
  const char* label = n >= 10000 ? "p99.9" : n >= 1000 ? "p99" : "p90";
  const double q = n >= 10000 ? 0.999 : n >= 1000 ? 0.99 : 0.9;
  std::printf("  %-22s p50 %10.1f us  %-5s %10.1f us  max %10.1f us  (n=%zu)\n",
              what, Quantile(us, 0.5), label, Quantile(us, q),
              Quantile(us, 1.0), us.size());
}

struct Args {
  std::string workload;
  std::string seed = "1";
  int seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_run/work";
  std::string trace_out = ".bench_run/trace.json";
};

int Run(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (w.name == args.workload) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *workload;
  const HostCpuTimes host_start = ReadHostCpuTimes();

  // --- Inputs, all derived from the seed and built before any timing.
  const int64_t inputs_start = NowNs();
  uint64_t seed = 0;
  const auto parsed = std::from_chars(
      args.seed.data(), args.seed.data() + args.seed.size(), seed);
  if (parsed.ec != std::errc() ||
      parsed.ptr != args.seed.data() + args.seed.size()) {
    std::fprintf(stderr, "--seed must be a non-negative integer\n");
    return 2;
  }
  Inputs in;
  in.workload = &w;
  in.template_dir = args.work_dir + "/start";
  std::error_code ec;
  fs::remove_all(args.work_dir, ec);
  {
    int64_t t = NowNs();
    auto lap = [&t](const char* what) {
      const int64_t now = NowNs();
      std::fprintf(stderr, "  inputs: %-10s %.2f s\n", what, (now - t) * 1e-9);
      t = now;
    };
    Fleet fleet = GenerateFleet(seed, kVehicles);
    lap("fleet");
    const std::vector<stcomp::Trajectory> history =
        CompressDays(fleet, -1, w.ingest_day - 1);
    lap("history");
    in.streams = MakeStreams(fleet, w.ingest_day, kConnections,
                             w.fixes_per_round);
    lap("streams");
    auto reference = ReferenceStore(fleet, history, in.streams);
    lap("reference");
    const Status built = BuildStore(in.template_dir, kShards, fleet, history,
                                    w.history_wal_tail);
    lap("store");
    if (!reference.ok() || !built.ok()) {
      std::fprintf(stderr, "cannot build inputs: %s %s\n",
                   reference.status().ToString().c_str(),
                   built.ToString().c_str());
      return 1;
    }
    in.reference = std::move(*reference);
    in.ids = fleet.ids;
    in.mix = MakeQueryMix(seed, in.ids, *in.reference, kMixRounds,
                          w.queries_per_kind);
    size_t fixes = 0;
    for (const auto& stream : in.streams) fixes += stream.size();
    std::printf("%s seed %llu: %zu vehicles, %zu fixes/day, %zu fixes and "
                "%zu queries per round; inputs built in %.2f s\n",
                std::string(w.name).c_str(),
                static_cast<unsigned long long>(seed), fleet.ids.size(),
                fleet.fixes_per_day, fixes,
                w.queries_per_kind * kKindNames.size(),
                (NowNs() - inputs_start) * 1e-9);
  }

  // --- Rounds. A traced run alternates untraced and traced rounds so the
  // tracing overhead is measured on the same host state.
  SpanLog log(args.trace);
  SpanLog untraced_log(false);
  std::vector<Round> rounds;
  // Rounds start while the last one would still end within --seconds.
  const int64_t run_start = NowNs();
  const size_t min_rounds = kMinRounds + (args.trace ? 1 : 0);
  int64_t longest_round = 0;
  while (rounds.size() < min_rounds ||
         NowNs() + longest_round - run_start < args.seconds * 1'000'000'000LL) {
    const bool traced = args.trace && rounds.size() % 2 == 1;
    const int64_t round_start = NowNs();
    rounds.push_back(RunRound(in, args.work_dir + "/round", traced,
                              static_cast<int>(rounds.size()),
                              traced ? &log : &untraced_log));
    longest_round = std::max(longest_round, NowNs() - round_start);
    if (!rounds.back().errors.empty()) break;
  }
  const double steal = StealFraction(host_start, ReadHostCpuTimes());

  // --- Correctness and failure share.
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  for (const Round& round : rounds) {
    attempted += round.attempted;
    failed += round.failed;
    errors.insert(errors.end(), round.errors.begin(), round.errors.end());
  }
  for (const Round& round : rounds) {
    if (round.kept_fraction != rounds.front().kept_fraction ||
        round.store_bytes_per_fix != rounds.front().store_bytes_per_fix) {
      errors.push_back("kept_fraction or store_bytes_per_fix differs between "
                       "rounds of one seed");
      ++failed;
      break;
    }
  }
  const bool correct = errors.empty();
  for (size_t i = 0; i < errors.size() && i < 20; ++i) {
    std::printf("CHECK FAILED: %s\n", errors[i].c_str());
  }

  std::vector<const Round*> untraced, traced;
  for (const Round& round : rounds) {
    (round.traced ? traced : untraced).push_back(&round);
  }
  std::vector<double> ack, late, query_us;
  double generator_cpu = 0.0, server_cpu = 0.0;
  for (const Round* round : untraced) {
    ack.insert(ack.end(), round->ack_us.begin(), round->ack_us.end());
    late.insert(late.end(), round->late_us.begin(), round->late_us.end());
    for (const QueryTally& tally : round->queries) {
      query_us.insert(query_us.end(), tally.us.begin(), tally.us.end());
    }
    generator_cpu += round->generator_cpu_s;
    server_cpu += round->server_cpu_s;
  }
  std::printf("%zu rounds (%zu traced) in %.1f s; failed %llu of %llu "
              "operations (%.4f%%)\n",
              rounds.size(), traced.size(), (NowNs() - run_start) * 1e-9,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              attempted ? 100.0 * failed / attempted : 0.0);
  PrintSample("ack (from due)", ack);
  if (!late.empty()) PrintSample("generator lateness", late);
  PrintSample("query (whole mix)", query_us);
  std::printf("ingest: %.0f fixes/s wall, ack p50 %.1f us (diagnostics: "
              "both follow host steal and disk latency)\n",
              IngestFixesPerS(untraced), AckP50Us(untraced));
  std::printf("noise: {\"steal_frac\": %.5f, \"generator_late_us\": "
              "{\"p50\": %.1f, \"p99\": %.1f, \"max\": %.1f}, \"ack_us\": "
              "{\"p99\": %.1f, \"p999\": %.1f, \"samples\": %zu}, "
              "\"generator_cpu_s\": %.3f, \"server_cpu_s\": %.3f}\n",
              steal, Quantile(late, 0.5), Quantile(late, 0.99),
              Quantile(late, 1.0), Quantile(ack, 0.99), Quantile(ack, 0.999),
              ack.size(), generator_cpu, server_cpu);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = EndToEnd(untraced);
  } else {
    metrics = PerLayer(traced, untraced, steal);
    std::printf("per-layer breakdown (%zu traced rounds):\n", traced.size());
    for (const Metric& metric : metrics) {
      std::printf("  %-34s %14.6g %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    }
    if (!w.paced) {
      std::printf("  (net.generator_late_p99_us is 0: a closed loop has no "
                  "schedule to be late against)\n");
    }
    if (w.checkpoints == 0) {
      std::printf("  (store.checkpoint_s and store.index_build_s are 0: this "
                  "workload checkpoints only after its ingest window)\n");
    }
    std::printf("  (query.window.* block counts are 0 when time-window "
                "queries are answered from block summaries alone)\n");
  }
  if (args.trace && !traced.empty()) {
    const Round& r = *traced.back();
    std::printf("Σ layers vs server CPU (last traced round): poll %.3f s "
                "(PushFn %.3f) + workers %.3f s (compress %.3f) + checkpoints "
                "%.3f s = %.3f s of %.3f s server CPU, unattributed %.1f%%\n",
                r.poll_cpu_s, r.push_s, r.worker_cpu_s, r.compress_s,
                r.checkpoint_cpu_s,
                r.poll_cpu_s + r.worker_cpu_s + r.checkpoint_cpu_s,
                r.server_cpu_s,
                100.0 * (1.0 - (r.poll_cpu_s + r.worker_cpu_s +
                                r.checkpoint_cpu_s) /
                                   r.server_cpu_s));
    if (log.WriteJson(args.trace_out)) {
      std::printf("spans written to %s\n", args.trace_out.c_str());
    }
  }
  fs::remove_all(args.work_dir, ec);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  stcomp::FlagParser flags(
      "End-to-end benchmark: fleet -> STNI -> durable store -> queries");
  flags.AddString("workload", &args.workload,
                  "ingest_saturate | ingest_paced | query_mix");
  flags.AddString("seed", &args.seed,
                  "seed of the fleet, history and query mix");
  flags.AddInt("seconds", &args.seconds, "measured time per run");
  flags.AddBool("trace", &args.trace,
                "traced run: print the per-layer metrics instead");
  flags.AddString("work-dir", &args.work_dir,
                  "scratch directory for the stores (removed at exit)");
  flags.AddString("trace-out", &args.trace_out,
                  "where a traced run writes its spans");
  if (const stcomp::Status status = flags.Parse(argc, argv); !status.ok()) {
    return status.code() == stcomp::StatusCode::kFailedPrecondition ? 0 : 2;
  }
  return perfbench::Run(args);
}
