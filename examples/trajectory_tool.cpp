// stcomp command-line tool: compress trajectory files.
//
//   trajectory_tool --algorithm=td-tr --epsilon=30 in.csv out.csv
//   trajectory_tool --stats --metrics-format=prometheus ... in.csv out.csv
//   trajectory_tool --sweep --algorithm=opw-tr --threads=4 in.csv
//   trajectory_tool --list
//   trajectory_tool --fsck=store_dir
//   trajectory_tool --recover=store_dir
//   trajectory_tool --store=store_dir --query="range:0:600:-100:-100:100:100"
//
// Input format by extension: .csv (t,x,y or t,lat,lon), .gpx, .plt
// (Geolife), .nmea/.log (RMC sentences). Output: .csv, .gpx or .nmea. The evaluation summary goes to stderr
// so stdout stays clean for piping. --stats dumps the process metrics
// registry (per-algorithm latency/ratio histograms, codec byte counters)
// to stdout in the --metrics-format of choice: text, json or prometheus.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "stcomp/algo/registry.h"
#include "stcomp/common/flags.h"
#include "stcomp/common/strings.h"
#include "stcomp/error/evaluation.h"
#include "stcomp/exp/sweep.h"
#include "stcomp/exp/table.h"
#include "stcomp/gps/csv.h"
#include "stcomp/gps/gpx.h"
#include "stcomp/gps/nmea.h"
#include "stcomp/gps/plt.h"
#include "stcomp/obs/exposition.h"
#include "stcomp/obs/flight_recorder.h"
#include "stcomp/obs/trace.h"
#include "stcomp/store/partitioned_store.h"
#include "stcomp/store/query.h"
#include "stcomp/store/segment_store.h"
#include "stcomp/stream/batch_adapter.h"
#include "stcomp/stream/sharded_fleet.h"

namespace {

stcomp::Result<stcomp::Trajectory> ReadAny(const std::string& path) {
  const std::string lower = stcomp::AsciiLower(path);
  if (stcomp::EndsWith(lower, ".gpx")) {
    STCOMP_ASSIGN_OR_RETURN(const stcomp::GpxTrack track,
                            stcomp::ReadGpxFile(path));
    return track.trajectory;
  }
  if (stcomp::EndsWith(lower, ".plt")) {
    return stcomp::ReadPltFile(path);
  }
  if (stcomp::EndsWith(lower, ".nmea") || stcomp::EndsWith(lower, ".log")) {
    return stcomp::ReadNmeaFile(path, nullptr);
  }
  return stcomp::ReadCsvTrajectoryFile(path);
}

stcomp::Status WriteAny(const stcomp::Trajectory& trajectory,
                        const std::string& path) {
  const std::string lower = stcomp::AsciiLower(path);
  if (stcomp::EndsWith(lower, ".gpx")) {
    // Positions are in a local metric frame; anchor the output at a
    // neutral origin so the file is at least well-formed GPX.
    return stcomp::WriteGpxFile(trajectory, {52.22, 6.89}, path);
  }
  if (stcomp::EndsWith(lower, ".nmea") || stcomp::EndsWith(lower, ".log")) {
    std::ofstream file(path);
    if (!file) {
      return stcomp::IoError("cannot open " + path + " for writing");
    }
    file << stcomp::WriteNmea(trajectory, {52.22, 6.89});
    return stcomp::Status::Ok();
  }
  return stcomp::WriteCsvTrajectoryFile(trajectory, path);
}

// The rest of --recover on an opened store (SegmentStore or
// PartitionedSegmentStore): prints its recovery report, then persists the
// recovered state as a fresh clean segment per partition so the salvage
// does not have to be repeated on the next open.
template <typename Store>
int CheckpointRecovered(Store& store, const std::string& report,
                        size_t objects, const std::string& dir) {
  std::printf("%s\n", report.c_str());
  if (const stcomp::Status status = store.Checkpoint(); !status.ok()) {
    std::fprintf(stderr, "checkpoint after recovery failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("recovered %zu objects; checkpointed into %s\n", objects,
              dir.c_str());
  return 0;
}

// Epilogue dumps requested via flags; main() runs them after Run() so
// every exit path (including early errors) still produces them.
bool g_flight_dump = false;
std::string g_perfetto_out;

int Run(int argc, char** argv) {
  std::string algorithm = "td-tr";
  double epsilon = 30.0;
  double speed_threshold = 10.0;
  bool list = false;
  bool stats = false;
  bool sweep = false;
  int threads = 0;
  std::string metrics_format = "text";
  stcomp::FlagParser flags(
      "compress a trajectory file (CSV/GPX/PLT in, CSV/GPX out)");
  flags.AddString("algorithm", &algorithm, "compression algorithm name");
  flags.AddDouble("epsilon", &epsilon, "distance threshold in metres");
  flags.AddDouble("speed-threshold", &speed_threshold,
                  "speed threshold in m/s (sp algorithms)");
  flags.AddBool("list", &list, "list available algorithms and exit");
  flags.AddBool("stats", &stats,
                "dump the metrics registry to stdout after the run");
  flags.AddBool("sweep", &sweep,
                "sweep the paper threshold grid on <input> instead of "
                "compressing (table to stdout; no output file)");
  flags.AddInt("threads", &threads,
               "worker threads for --sweep (0 = hardware concurrency)");
  int shards = 0;
  flags.AddInt("shards", &shards,
               "route the compression through the sharded fleet engine "
               "with this many shards (0 = direct path); output is read "
               "back from the engine's delta-codec store (ms/cm "
               "quantised); --stats adds per-shard queue stats");
  flags.AddString("metrics-format", &metrics_format,
                  "stats output format: text, json or prometheus");
  std::string store_dir;
  std::string query_spec;
  double declared_error = 0.0;
  bool oracle = false;
  flags.AddString("store", &store_dir,
                  "segment-store directory (plain or shard-NNN partitioned) "
                  "for --query");
  flags.AddString("query", &query_spec,
                  "run a query against --store and print the JSON answer; "
                  "spec: window:T0:T1 | "
                  "range:T0:T1:MIN_X:MIN_Y:MAX_X:MAX_Y | "
                  "corridor:T0:T1:RADIUS:X0,Y0;X1,Y1;... | "
                  "nearest:T0:T1:K:X:Y (T0/T1 '-' = unbounded)");
  flags.AddDouble("declared-error", &declared_error,
                  "SED tolerance (m) the stored data was simplified with; "
                  "widens --query match predicates");
  flags.AddBool("oracle", &oracle,
                "answer --query by brute-force full decode instead of the "
                "index (plain store layout only; differential debugging)");
  std::string fsck_dir;
  std::string recover_dir;
  flags.AddString("fsck", &fsck_dir,
                  "read-only integrity scan of a segment-store directory "
                  "(exit 0 clean, 2 corrupt)");
  flags.AddString("recover", &recover_dir,
                  "recover a segment-store directory (salvage + replay), "
                  "print the report and checkpoint the recovered state");
  flags.AddBool("flight-dump", &g_flight_dump,
                "dump the flight recorder to stderr when the run ends");
  flags.AddString("perfetto-out", &g_perfetto_out,
                  "write the run's trace spans as Perfetto/Chrome "
                  "trace_event JSON to this file (load in chrome://tracing)");
  if (const stcomp::Status status = flags.Parse(argc, argv); !status.ok()) {
    if (status.code() == stcomp::StatusCode::kFailedPrecondition) {
      return 0;
    }
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.UsageString().c_str());
    return 1;
  }
  const stcomp::Result<stcomp::obs::MetricsFormat> format =
      stcomp::obs::ParseMetricsFormat(metrics_format);
  if (!format.ok()) {
    std::fprintf(stderr, "%s\n", format.status().ToString().c_str());
    return 1;
  }
  if (list) {
    for (const stcomp::algo::AlgorithmInfo& info :
         stcomp::algo::AllAlgorithms()) {
      std::printf("%-14s %s%s\n", info.name.c_str(),
                  info.description.c_str(), info.online ? " [online]" : "");
    }
    return 0;
  }
  // A partitioned store keeps one segment store per shard-NNN directory;
  // the store verbs run on every partition of such a root.
  const auto is_partitioned = [](const std::string& dir) {
    return std::filesystem::is_directory(dir + "/shard-000");
  };
  if (!fsck_dir.empty()) {
    const stcomp::Result<stcomp::FsckReport> report =
        is_partitioned(fsck_dir)
            ? stcomp::PartitionedSegmentStore::Fsck(fsck_dir)
            : stcomp::SegmentStore::Fsck(fsck_dir);
    if (!report.ok()) {
      std::fprintf(stderr, "fsck failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", report->Describe().c_str());
    return report->clean() ? 0 : 2;
  }
  if (!recover_dir.empty()) {
    if (is_partitioned(recover_dir)) {
      stcomp::PartitionedSegmentStore store;
      if (const stcomp::Status status = store.Open(recover_dir);
          !status.ok()) {
        std::fprintf(stderr, "recover failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      return CheckpointRecovered(store, store.DescribeRecovery(),
                                 store.object_count(), recover_dir);
    }
    stcomp::SegmentStore store;
    if (const stcomp::Status status = store.Open(recover_dir); !status.ok()) {
      std::fprintf(stderr, "recover failed: %s\n", status.ToString().c_str());
      return 1;
    }
    return CheckpointRecovered(store, store.last_recovery().Describe(),
                               store.store().object_count(), recover_dir);
  }
  if (!query_spec.empty()) {
    if (store_dir.empty()) {
      std::fprintf(stderr, "--query needs --store=<dir>\n");
      return 1;
    }
    stcomp::Result<stcomp::QueryRequest> request =
        stcomp::ParseQuerySpec(query_spec);
    if (!request.ok()) {
      std::fprintf(stderr, "%s\n", request.status().ToString().c_str());
      return 1;
    }
    request->declared_error_m = declared_error;
    stcomp::Result<stcomp::QueryAnswer> answer =
        stcomp::InternalError("query not run");
    if (is_partitioned(store_dir)) {
      if (oracle) {
        std::fprintf(stderr,
                     "--oracle only supports the plain store layout\n");
        return 1;
      }
      stcomp::PartitionedSegmentStore partitioned;
      if (const stcomp::Status status = partitioned.Open(store_dir);
          !status.ok()) {
        std::fprintf(stderr, "open failed: %s\n", status.ToString().c_str());
        return 1;
      }
      answer = partitioned.Query(*request);
    } else {
      stcomp::SegmentStore store;
      if (const stcomp::Status status = store.Open(store_dir); !status.ok()) {
        std::fprintf(stderr, "open failed: %s\n", status.ToString().c_str());
        return 1;
      }
      answer = oracle ? stcomp::BruteForceQuery(store.store(), *request)
                      : store.Query(*request);
    }
    if (!answer.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   answer.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n",
                stcomp::RenderQueryAnswerJson(*request, *answer).c_str());
    if (stats) {
      std::printf("%s\n", stcomp::RenderQueryzJson().c_str());
    }
    return 0;
  }
  if (flags.positional().size() != (sweep ? 1u : 2u)) {
    std::fprintf(stderr,
                 "usage: trajectory_tool [flags] <input> <output>\n"
                 "       trajectory_tool --sweep [flags] <input>\n%s",
                 flags.UsageString().c_str());
    return 1;
  }

  const stcomp::Result<stcomp::Trajectory> input =
      ReadAny(flags.positional()[0]);
  if (!input.ok()) {
    std::fprintf(stderr, "read failed: %s\n",
                 input.status().ToString().c_str());
    return 1;
  }
  const stcomp::Result<const stcomp::algo::AlgorithmInfo*> info =
      stcomp::algo::FindAlgorithm(algorithm);
  if (!info.ok()) {
    std::fprintf(stderr, "%s\n", info.status().ToString().c_str());
    return 1;
  }
  stcomp::algo::AlgorithmParams params;
  params.epsilon_m = epsilon;
  params.speed_threshold_mps = speed_threshold;
  // Fail with a message instead of tripping the registry wrapper's check.
  if (const stcomp::Status status = params.Validate(); !status.ok()) {
    std::fprintf(stderr, "invalid parameters: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  if (sweep) {
    std::vector<stcomp::Trajectory> dataset;
    dataset.push_back(*std::move(input));
    const stcomp::Result<std::vector<stcomp::SweepPoint>> points =
        stcomp::SweepThresholdsParallel(dataset, algorithm, params,
                                        stcomp::PaperThresholds(), threads);
    if (!points.ok()) {
      std::fprintf(stderr, "sweep failed: %s\n",
                   points.status().ToString().c_str());
      return 1;
    }
    stcomp::Table table({"threshold_m", "compression_%", "mean_sync_err_m",
                         "max_sync_err_m"});
    for (const stcomp::SweepPoint& point : *points) {
      table.AddRow({stcomp::StrFormat("%.0f", point.epsilon_m),
                    stcomp::StrFormat("%.1f", point.compression_percent),
                    stcomp::StrFormat("%.2f", point.sync_error_mean_m),
                    stcomp::StrFormat("%.2f", point.sync_error_max_m)});
    }
    std::printf("%s: paper threshold sweep over %s\n%s", algorithm.c_str(),
                flags.positional()[0].c_str(), table.ToString().c_str());
    if (stats) {
      std::fputs(
          stcomp::obs::RenderMetrics(
              stcomp::obs::MetricsRegistry::Global().Snapshot(), *format)
              .c_str(),
          stdout);
    }
    return 0;
  }
  if (shards > 0) {
    // Fleet-pipeline path: the file is one object pushed fix-by-fix
    // through a ShardedFleetCompressor (DESIGN.md §16), the algorithm
    // wrapped in a BatchAdapter so batch entries work too.
    stcomp::ShardedFleetOptions options;
    options.num_shards = static_cast<size_t>(shards);
    options.instance = "tool";
    stcomp::ShardedFleetCompressor fleet(
        [&info, &params] {
          return std::make_unique<stcomp::BatchAdapter>(**info, params);
        },
        options);
    const std::string& object_id = flags.positional()[0];
    for (const stcomp::TimedPoint& point : input->points()) {
      if (const stcomp::Status status = fleet.Push(object_id, point);
          !status.ok()) {
        std::fprintf(stderr, "push failed: %s\n", status.ToString().c_str());
        return 1;
      }
    }
    if (const stcomp::Status status = fleet.FinishAll(); !status.ok()) {
      std::fprintf(stderr, "finish failed: %s\n", status.ToString().c_str());
      return 1;
    }
    const stcomp::Result<stcomp::Trajectory> compressed =
        fleet.Get(object_id);
    if (!compressed.ok()) {
      std::fprintf(stderr, "read-back failed: %s\n",
                   compressed.status().ToString().c_str());
      return 1;
    }
    if (const stcomp::Status status =
            WriteAny(*compressed, flags.positional()[1]);
        !status.ok()) {
      std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "%s via sharded fleet (%zu shards): %zu -> %zu points "
                 "(%.1f%% compression)\n",
                 algorithm.c_str(), fleet.num_shards(),
                 input->points().size(), compressed->size(),
                 input->points().empty()
                     ? 0.0
                     : 100.0 * (1.0 - static_cast<double>(compressed->size()) /
                                          input->points().size()));
    if (stats) {
      std::printf("sharded fleet: %zu shards\n", fleet.num_shards());
      for (const stcomp::ShardedFleetCompressor::ShardStats& shard :
           fleet.StatsSnapshot()) {
        std::printf(
            "  shard %03zu: queue_depth=%zu enqueued=%llu batches=%llu "
            "backpressure_waits=%llu active_objects=%zu fixes_in=%llu "
            "fixes_out=%llu\n",
            shard.shard, shard.queue_depth,
            static_cast<unsigned long long>(shard.enqueued),
            static_cast<unsigned long long>(shard.batches),
            static_cast<unsigned long long>(shard.backpressure_waits),
            shard.active_objects,
            static_cast<unsigned long long>(shard.fixes_in),
            static_cast<unsigned long long>(shard.fixes_out));
      }
      std::fputs(
          stcomp::obs::RenderMetrics(
              stcomp::obs::MetricsRegistry::Global().Snapshot(), *format)
              .c_str(),
          stdout);
    }
    return 0;
  }
  stcomp::algo::Workspace workspace;
  stcomp::algo::IndexList kept;
  (*info)->run_view(*input, params, workspace, kept);
  const stcomp::Result<stcomp::Evaluation> eval =
      stcomp::Evaluate(*input, kept);
  if (const stcomp::Status status =
          WriteAny(input->Subset(kept), flags.positional()[1]);
      !status.ok()) {
    std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
    return 1;
  }
  if (eval.ok()) {
    std::fprintf(stderr,
                 "%s: %zu -> %zu points (%.1f%% compression), mean sync "
                 "error %.2f m, max %.2f m\n",
                 algorithm.c_str(), eval->original_points, eval->kept_points,
                 eval->compression_percent, eval->sync_error_mean_m,
                 eval->sync_error_max_m);
  }
  if (stats) {
    std::fputs(
        stcomp::obs::RenderMetrics(
            stcomp::obs::MetricsRegistry::Global().Snapshot(), *format)
            .c_str(),
        stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const int rc = Run(argc, argv);
  if (g_flight_dump) {
    std::fputs(stcomp::obs::RenderFlightText(
                   stcomp::obs::FlightRecorder::Global().Snapshot())
                   .c_str(),
               stderr);
  }
  if (!g_perfetto_out.empty()) {
    std::ofstream file(g_perfetto_out);
    if (!file) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   g_perfetto_out.c_str());
      return rc == 0 ? 1 : rc;
    }
    file << stcomp::obs::RenderTracePerfetto(
        stcomp::obs::TraceBuffer::Global().Snapshot());
    std::fprintf(stderr, "perfetto trace written to %s\n",
                 g_perfetto_out.c_str());
  }
  return rc;
}
