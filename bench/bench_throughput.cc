// Microbenchmarks: throughput of every registered compression algorithm at
// several trace lengths, the streaming compressors (per-push cost), the
// synchronous-error evaluators, and the storage codecs.
//
// Besides the google-benchmark tables, the run persists the process metrics
// registry — populated by the instrumented registry/codec layers while the
// benchmarks execute — as machine-readable JSON (default
// BENCH_throughput.json, override with --metrics_json=PATH, disable with
// --metrics_json=). Schema: EXPERIMENTS.md "Bench JSON schema".

#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <string>

#include "stcomp/algo/registry.h"
#include "stcomp/error/synchronous_error.h"
#include "stcomp/obs/exposition.h"
#include "stcomp/sim/gps_noise.h"
#include "stcomp/sim/random.h"
#include "stcomp/store/codec.h"
#include "stcomp/stream/opening_window_stream.h"

namespace {

using stcomp::Rng;
using stcomp::TimedPoint;
using stcomp::Trajectory;

// Deterministic drive-like trace used by all benchmarks.
const Trajectory& Trace(int n) {
  static std::map<int, Trajectory>* const kCache = new std::map<int, Trajectory>;
  auto it = kCache->find(n);
  if (it != kCache->end()) {
    return it->second;
  }
  Rng rng(static_cast<uint64_t>(n) * 977 + 13);
  std::vector<TimedPoint> points;
  points.reserve(static_cast<size_t>(n));
  double heading = 0.0;
  stcomp::Vec2 position{0.0, 0.0};
  for (int i = 0; i < n; ++i) {
    points.emplace_back(10.0 * i, position);
    heading += rng.NextUniform(-0.3, 0.3);
    const double speed = rng.NextBool(0.1) ? 0.0 : 5.0 + 15.0 * rng.NextDouble();
    position += {speed * 10.0 * std::cos(heading),
                 speed * 10.0 * std::sin(heading)};
  }
  return kCache->emplace(n, Trajectory::FromPoints(std::move(points)).value())
      .first->second;
}

void BM_Algorithm(benchmark::State& state, const std::string& name) {
  const Trajectory& trace = Trace(static_cast<int>(state.range(0)));
  const stcomp::algo::AlgorithmInfo* info =
      stcomp::algo::FindAlgorithm(name).value();
  stcomp::algo::AlgorithmParams params;
  params.epsilon_m = 50.0;
  params.speed_threshold_mps = 15.0;
  // The workspace is reused like a long-lived caller's; the output is
  // fresh per run, so every iteration pays one IndexList allocation.
  stcomp::algo::Workspace workspace;
  for (auto _ : state) {
    stcomp::algo::IndexList kept;
    info->run_view(trace, params, workspace, kept);
    benchmark::DoNotOptimize(kept);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.size()));
}

void RegisterAlgorithmBenchmarks() {
  for (const stcomp::algo::AlgorithmInfo& info :
       stcomp::algo::AllAlgorithms()) {
    auto* bench = benchmark::RegisterBenchmark(
        ("BM_" + info.name).c_str(),
        [name = info.name](benchmark::State& state) {
          BM_Algorithm(state, name);
        });
    bench->Arg(200)->Arg(2000)->Arg(20000);
  }
}

void BM_StreamingOpwTr(benchmark::State& state) {
  const Trajectory& trace = Trace(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    stcomp::OpeningWindowStream stream(
        50.0, stcomp::algo::BreakPolicy::kNormal,
        stcomp::StreamCriterion::kSynchronized);
    std::vector<TimedPoint> out;
    for (const TimedPoint& point : trace.points()) {
      stream.Push(point, &out);
    }
    stream.Finish(&out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.size()));
}
BENCHMARK(BM_StreamingOpwTr)->Arg(200)->Arg(2000)->Arg(20000);

void BM_SynchronousErrorClosedForm(benchmark::State& state) {
  const Trajectory& trace = Trace(static_cast<int>(state.range(0)));
  const stcomp::algo::AlgorithmInfo* info =
      stcomp::algo::FindAlgorithm("td-tr").value();
  stcomp::algo::AlgorithmParams params;
  params.epsilon_m = 50.0;
  stcomp::algo::Workspace workspace;
  stcomp::algo::IndexList kept;
  info->run_view(trace, params, workspace, kept);
  const Trajectory approximation = trace.Subset(kept);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stcomp::SynchronousError(trace, approximation).value());
  }
}
BENCHMARK(BM_SynchronousErrorClosedForm)->Arg(200)->Arg(2000)->Arg(20000);

void BM_CodecDeltaEncode(benchmark::State& state) {
  const Trajectory& trace = Trace(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::string buffer;
    stcomp::EncodePoints(trace, stcomp::Codec::kDelta, &buffer);
    benchmark::DoNotOptimize(buffer);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(24 * trace.size()));
}
BENCHMARK(BM_CodecDeltaEncode)->Arg(2000)->Arg(20000);

void BM_GpsNoise(benchmark::State& state) {
  const Trajectory& trace = Trace(static_cast<int>(state.range(0)));
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stcomp::AddGpsNoise(trace, stcomp::GpsNoiseConfig{}, &rng));
  }
}
BENCHMARK(BM_GpsNoise)->Arg(2000);

// Strips --metrics_json[=PATH] from argv (google-benchmark rejects flags it
// does not know) and returns the requested path, "" to disable.
std::string ExtractMetricsJsonPath(int* argc, char** argv) {
  std::string path = "BENCH_throughput.json";
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--metrics_json=", 15) == 0) {
      path = argv[i] + 15;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return path;
}

int WriteBenchJson(const std::string& bench_name, const std::string& path) {
  const std::string json =
      "{\n  \"bench\": \"" + bench_name +
      "\",\n  \"schema_version\": 1,\n  \"metrics\": " +
      stcomp::obs::RenderJson(stcomp::obs::MetricsRegistry::Global().Snapshot()) +
      "}\n";
  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  file << json;
  std::fprintf(stderr, "metrics snapshot written to %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string metrics_json = ExtractMetricsJsonPath(&argc, argv);
  RegisterAlgorithmBenchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!metrics_json.empty()) {
    return WriteBenchJson("bench_throughput", metrics_json);
  }
  return 0;
}
