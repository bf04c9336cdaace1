// Online compression of a live GPS feed — the paper's opening-window
// algorithms "are online algorithms ... typically used to compress data
// streams in real-time" (Sec. 2.2).
//
// Feeds a simulated receiver fix-by-fix through OPW-TR, OPW-SP and
// dead-reckoning compressors side by side, reporting commits and working
// memory as the stream progresses, then compares the final results. The
// same fixes also flow through the server-side ingestion path (a
// FleetCompressor into a TrajectoryStore), whose live metrics — fixes
// in/out, buffered working set, push-latency histogram — are dumped from
// the process registry at the end, followed by the recorded trace spans.
//
//   ./examples/streaming_gps_feed [--epsilon=30] [--speed-threshold=10]
//                                 [--metrics-format=text|json|prometheus]

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "stcomp/common/check.h"
#include "stcomp/common/flags.h"
#include "stcomp/error/evaluation.h"
#include "stcomp/net/ingest_server.h"
#include "stcomp/obs/admin_server.h"
#include "stcomp/obs/exposition.h"
#include "stcomp/sim/paper_dataset.h"
#include "stcomp/store/query.h"
#include "stcomp/store/trajectory_store.h"
#include "stcomp/stream/dead_reckoning_stream.h"
#include "stcomp/stream/fleet_compressor.h"
#include "stcomp/stream/opening_window_stream.h"
#include "stcomp/stream/sharded_fleet.h"

int main(int argc, char** argv) {
  double epsilon = 30.0;
  double speed_threshold = 10.0;
  std::string metrics_format = "text";
  int admin_port = -1;
  double serve_seconds = 0.0;
  stcomp::FlagParser flags("streaming GPS feed demo");
  flags.AddDouble("epsilon", &epsilon, "distance threshold in metres");
  flags.AddDouble("speed-threshold", &speed_threshold,
                  "speed-difference threshold in m/s (OPW-SP)");
  flags.AddString("metrics-format", &metrics_format,
                  "final metrics dump format: text, json or prometheus");
  int ingest_port = -1;
  flags.AddInt("admin-port", &admin_port,
               "serve /metrics, /healthz, /tracez, /objectz and /flightz on "
               "127.0.0.1:<port> (0 = ephemeral, printed; -1 = off)");
  flags.AddInt("ingest-port", &ingest_port,
               "accept STNI wire-protocol clients (examples/fleet_client) on "
               "127.0.0.1:<port> during the serve window "
               "(0 = ephemeral, printed; -1 = off)");
  flags.AddDouble("serve-seconds", &serve_seconds,
                  "keep the admin server up this long after the feed ends "
                  "(0 with --admin-port waits for Ctrl-C-less smoke: one "
                  "second)");
  if (const stcomp::Status status = flags.Parse(argc, argv); !status.ok()) {
    return status.code() == stcomp::StatusCode::kFailedPrecondition ? 0 : 1;
  }
  const stcomp::Result<stcomp::obs::MetricsFormat> format =
      stcomp::obs::ParseMetricsFormat(metrics_format);
  if (!format.ok()) {
    std::fprintf(stderr, "%s\n", format.status().ToString().c_str());
    return 1;
  }

  stcomp::PaperDatasetConfig config;
  config.num_trajectories = 1;
  const stcomp::Trajectory feed = stcomp::GeneratePaperDataset(config).front();
  std::printf("live feed: %zu fixes at ~10 s spacing (%.0f s total)\n\n",
              feed.size(), feed.Duration());

  struct Lane {
    std::unique_ptr<stcomp::OnlineCompressor> compressor;
    std::vector<stcomp::TimedPoint> committed;
    size_t max_buffer = 0;
  };
  std::vector<Lane> lanes;
  lanes.push_back({std::make_unique<stcomp::OpeningWindowStream>(
                       epsilon, stcomp::algo::BreakPolicy::kNormal,
                       stcomp::StreamCriterion::kSynchronized),
                   {},
                   0});
  lanes.push_back({std::make_unique<stcomp::OpeningWindowStream>(
                       epsilon, stcomp::algo::BreakPolicy::kNormal,
                       stcomp::StreamCriterion::kSpatiotemporal,
                       speed_threshold),
                   {},
                   0});
  lanes.push_back({std::make_unique<stcomp::DeadReckoningStream>(epsilon),
                   {},
                   0});

  // The ingestion path the lanes only simulate: the same fixes routed
  // through a FleetCompressor into a store, which populates the metrics
  // dumped below.
  stcomp::TrajectoryStore store;
  stcomp::FleetCompressor fleet(
      [epsilon] {
        return std::make_unique<stcomp::OpeningWindowStream>(
            epsilon, stcomp::algo::BreakPolicy::kNormal,
            stcomp::StreamCriterion::kSynchronized);
      },
      &store, {}, "gps-feed");

  // Network ingest: fleet_client devices land in a thread-safe sharded
  // engine (the single-threaded FleetCompressor above belongs to this
  // thread; the ingest server pushes from its poll thread).
  std::unique_ptr<stcomp::ShardedFleetCompressor> net_engine;
  std::unique_ptr<stcomp::net::IngestServer> ingest;
  if (ingest_port >= 0) {
    stcomp::ShardedFleetOptions engine_options;
    engine_options.num_shards = 2;
    engine_options.instance = "gps-feed-net";
    net_engine = std::make_unique<stcomp::ShardedFleetCompressor>(
        [epsilon] {
          return std::make_unique<stcomp::OpeningWindowStream>(
              epsilon, stcomp::algo::BreakPolicy::kNormal,
              stcomp::StreamCriterion::kSynchronized);
        },
        engine_options);
    stcomp::net::IngestServerOptions server_options;
    server_options.instance = "gps-feed";
    ingest = std::make_unique<stcomp::net::IngestServer>(
        [&net_engine](std::string_view id, const stcomp::TimedPoint& fix) {
          return net_engine->Push(id, fix);
        },
        server_options);
    const stcomp::Status started =
        ingest->Start(static_cast<uint16_t>(ingest_port));
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
    // Parsed by scripts/ingest_smoke.py; keep the format stable.
    std::printf("ingest server listening on 127.0.0.1:%u\n", ingest->port());
    std::fflush(stdout);
  }

  // Live introspection: the admin server reads the fleet's per-object
  // state from its own thread, so it serves while this thread is idle
  // (between the pump below and FinishAll) — the fleet itself is not
  // thread-safe.
  stcomp::obs::AdminServer admin;
  std::atomic<bool> pump_done{false};
  if (admin_port >= 0) {
    // The fleet is single-threaded; /objectz only reads it once this
    // thread has gone idle (pump finished), and reports empty before.
    stcomp::obs::RegisterStandardEndpoints(
        admin, [&fleet, &pump_done](size_t limit) -> std::string {
          if (!pump_done.load(std::memory_order_acquire)) {
            return "{\"objects\":[],\"note\":\"feed still pumping\"}\n";
          }
          return fleet.RenderObjectsJson(limit);
        },
        [] { return stcomp::RenderQueryzJson(); },
        [&ingest]() -> std::string {
          if (ingest == nullptr) {
            return "{\"server\":null,\"sessions\":[]}\n";
          }
          return ingest->RenderIngestzJson();
        });
    const stcomp::Status started =
        admin.Start(static_cast<uint16_t>(admin_port));
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
    // Parsed by scripts/admin_smoke.py; keep the format stable.
    std::printf("admin server listening on 127.0.0.1:%u\n", admin.port());
    std::fflush(stdout);
  }

  // Pump the stream; print a progress line every 50 fixes.
  size_t fix_count = 0;
  for (const stcomp::TimedPoint& fix : feed.points()) {
    ++fix_count;
    for (Lane& lane : lanes) {
      STCOMP_CHECK_OK(lane.compressor->Push(fix, &lane.committed));
      lane.max_buffer =
          std::max(lane.max_buffer, lane.compressor->buffered_points());
    }
    STCOMP_CHECK_OK(fleet.Push("vehicle-0", fix));
    if (fix_count % 50 == 0) {
      std::printf("after %4zu fixes:", fix_count);
      for (const Lane& lane : lanes) {
        std::printf("  %s: %zu kept (%zu buffered)",
                    std::string(lane.compressor->name()).c_str(),
                    lane.committed.size(),
                    lane.compressor->buffered_points());
      }
      std::printf("  fleet: %zu/%zu in/out (%zu buffered)", fleet.fixes_in(),
                  fleet.fixes_out(), fleet.buffered_points());
      std::printf("\n");
    }
  }
  pump_done.store(true, std::memory_order_release);
  if (admin_port >= 0 || ingest_port >= 0) {
    // Serve with the objects still live so /objectz shows them; the app
    // thread only sleeps here, so the server threads' reads are safe.
    const double window = serve_seconds > 0.0 ? serve_seconds : 1.0;
    std::printf("serving for %.1f s...\n", window);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::duration<double>(window));
    admin.Stop();
  }
  if (ingest != nullptr) {
    ingest->Stop();
    STCOMP_CHECK_OK(net_engine->FinishAll());
    std::printf(
        "network ingest: %llu sessions, %llu fixes acked into the sharded "
        "engine\n",
        static_cast<unsigned long long>(ingest->sessions_accepted()),
        static_cast<unsigned long long>(ingest->fixes_in()));
  }
  for (Lane& lane : lanes) {
    lane.compressor->Finish(&lane.committed);
  }
  STCOMP_CHECK_OK(fleet.FinishAll());

  std::printf("\nfinal results (epsilon = %.0f m):\n", epsilon);
  for (const Lane& lane : lanes) {
    const stcomp::Trajectory compressed =
        stcomp::Trajectory::FromPoints(lane.committed).value();
    // Map committed points back to original indices for evaluation.
    stcomp::algo::IndexList kept;
    size_t cursor = 0;
    for (size_t i = 0; i < feed.size(); ++i) {
      if (cursor < compressed.size() && feed[i].t == compressed[cursor].t) {
        kept.push_back(static_cast<int>(i));
        ++cursor;
      }
    }
    const stcomp::Evaluation eval = stcomp::Evaluate(feed, kept).value();
    std::printf(
        "  %-15s kept %3zu/%3zu  compression %5.1f%%  mean sync error %6.2f "
        "m  peak buffer %zu points\n",
        std::string(lane.compressor->name()).c_str(), eval.kept_points,
        eval.original_points, eval.compression_percent,
        eval.sync_error_mean_m, lane.max_buffer);
  }
  std::printf(
      "  fleet ingestion    %zu fixes in -> %zu stored (%zu object(s) in "
      "store, %zu payload bytes)\n",
      fleet.fixes_in(), fleet.fixes_out(), store.object_count(),
      store.StorageBytes());

  std::printf("\nlive metrics registry (%s):\n", metrics_format.c_str());
  std::fputs(stcomp::obs::RenderMetrics(
                 stcomp::obs::MetricsRegistry::Global().Snapshot(), *format)
                 .c_str(),
             stdout);
  std::printf("\ntrace span tree (start, duration, thread, name):\n");
  std::fputs(stcomp::obs::RenderTraceTree(
                 stcomp::obs::TraceBuffer::Global().Snapshot())
                 .c_str(),
             stdout);
  return 0;
}
