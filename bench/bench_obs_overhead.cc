// Measures what the obs layer costs on the ingestion hot path — the
// guard-rail for "instrumentation must stay under 5% of the work it
// observes".
//
// Two per-push timings over the same interleaved fleet workload:
//   instrumented — the real FleetCompressor (sampled push timer, fixes
//                  counters, gauges, finish spans, store/codec metrics);
//   baseline     — a replica of the pre-obs FleetCompressor drain loop with
//                  no fleet-layer instrumentation. Store/codec counters
//                  fire in both paths, so the reported overhead isolates
//                  the fleet-layer obs cost; primitive costs below bound
//                  the rest (a store append adds one exact counter + a
//                  sampled timer).
//
// Building with -DSTCOMP_DISABLE_METRICS=ON compiles the macros out of the
// same binary; comparing the emitted JSON across the two builds gives the
// exact enabled-vs-compiled-out delta (scripts/check.sh's third pass builds
// that configuration).
//
// The instrumented side now includes the PR-7 span-context and
// flight-recorder hot path: every FleetCompressor::Push opens a
// head-sampled root span, and flight events fire at pipeline transitions
// (object arrival, each committed batch), so the reported overhead covers
// tracing + flight recording, not just metrics. Primitive timings break
// the budget down further: a flight-recorder Record, an inactive sampled
// span (the 63-in-64 case) and an active one.
//
//   ./bench_obs_overhead [--objects=16] [--fixes=2000] [--repetitions=7]
//                        [--json-out=BENCH_obs.json]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stcomp/common/check.h"
#include "stcomp/common/flags.h"
#include "stcomp/common/status.h"
#include "stcomp/obs/exposition.h"
#include "stcomp/obs/flight_recorder.h"
#include "stcomp/obs/timer.h"
#include "stcomp/obs/trace.h"
#include "stcomp/sim/random.h"
#include "stcomp/store/trajectory_store.h"
#include "stcomp/stream/fleet_compressor.h"
#include "stcomp/stream/opening_window_stream.h"

namespace {

using stcomp::OnlineCompressor;
using stcomp::Rng;
using stcomp::Status;
using stcomp::TimedPoint;
using stcomp::Trajectory;
using stcomp::TrajectoryStore;

// Keeps a value alive past the optimiser without google-benchmark.
template <typename T>
inline void DoNotOptimize(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

Trajectory DriveTrace(int n, uint64_t seed) {
  Rng rng(seed * 977 + 13);
  std::vector<TimedPoint> points;
  points.reserve(static_cast<size_t>(n));
  double heading = 0.0;
  stcomp::Vec2 position{0.0, 0.0};
  for (int i = 0; i < n; ++i) {
    points.emplace_back(10.0 * i, position);
    heading += rng.NextUniform(-0.3, 0.3);
    const double speed =
        rng.NextBool(0.1) ? 0.0 : 5.0 + 15.0 * rng.NextDouble();
    position += {speed * 10.0 * std::cos(heading),
                 speed * 10.0 * std::sin(heading)};
  }
  return Trajectory::FromPoints(std::move(points)).value();
}

std::unique_ptr<OnlineCompressor> MakeOpwTr() {
  return std::make_unique<stcomp::OpeningWindowStream>(
      50.0, stcomp::algo::BreakPolicy::kNormal,
      stcomp::StreamCriterion::kSynchronized);
}

// The pre-obs FleetCompressor, kept verbatim as the uninstrumented control.
class BaselineFleet {
 public:
  explicit BaselineFleet(TrajectoryStore* store) : store_(store) {}

  Status Push(const std::string& object_id, const TimedPoint& fix) {
    auto it = compressors_.find(object_id);
    if (it == compressors_.end()) {
      it = compressors_.emplace(object_id, MakeOpwTr()).first;
    }
    ++fixes_in_;
    std::vector<TimedPoint> committed;
    STCOMP_RETURN_IF_ERROR(it->second->Push(fix, &committed));
    return Drain(object_id, &committed);
  }

  Status FinishAll() {
    while (!compressors_.empty()) {
      const std::string id = compressors_.begin()->first;
      std::vector<TimedPoint> committed;
      compressors_.begin()->second->Finish(&committed);
      STCOMP_RETURN_IF_ERROR(Drain(id, &committed));
      compressors_.erase(compressors_.begin());
    }
    return Status::Ok();
  }

  size_t fixes_out() const { return fixes_out_; }

 private:
  Status Drain(const std::string& object_id,
               std::vector<TimedPoint>* committed) {
    for (const TimedPoint& point : *committed) {
      STCOMP_RETURN_IF_ERROR(store_->Append(object_id, point));
      ++fixes_out_;
    }
    committed->clear();
    return Status::Ok();
  }

  TrajectoryStore* store_;
  std::map<std::string, std::unique_ptr<OnlineCompressor>> compressors_;
  size_t fixes_in_ = 0;
  size_t fixes_out_ = 0;
};

struct Workload {
  std::vector<std::string> ids;
  std::vector<Trajectory> traces;
  size_t fixes_per_object = 0;
  size_t total_pushes() const { return ids.size() * fixes_per_object; }
};

Workload MakeWorkload(int objects, int fixes) {
  Workload workload;
  workload.fixes_per_object = static_cast<size_t>(fixes);
  for (int i = 0; i < objects; ++i) {
    workload.ids.push_back("veh-" + std::to_string(i));
    workload.traces.push_back(DriveTrace(fixes, 1000 + i));
  }
  return workload;
}

// Runs `push(id, fix)` over the interleaved workload and returns ns/push.
template <typename PushFn, typename FinishFn>
double TimeRun(const Workload& workload, PushFn push, FinishFn finish) {
  const auto start = std::chrono::steady_clock::now();
  for (size_t step = 0; step < workload.fixes_per_object; ++step) {
    for (size_t object = 0; object < workload.ids.size(); ++object) {
      STCOMP_CHECK_OK(push(workload.ids[object], workload.traces[object][step]));
    }
  }
  finish();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         static_cast<double>(workload.total_pushes());
}

double OneInstrumentedRun(const Workload& workload, int rep) {
  TrajectoryStore store;
  stcomp::FleetCompressor fleet([] { return MakeOpwTr(); }, &store, {},
                                "obs-overhead-" + std::to_string(rep));
  return TimeRun(
      workload,
      [&fleet](const std::string& id, const TimedPoint& fix) {
        return fleet.Push(id, fix);
      },
      [&fleet] { STCOMP_CHECK_OK(fleet.FinishAll()); });
}

double OneBaselineRun(const Workload& workload) {
  TrajectoryStore store;
  BaselineFleet fleet(&store);
  const double ns = TimeRun(
      workload,
      [&fleet](const std::string& id, const TimedPoint& fix) {
        return fleet.Push(id, fix);
      },
      [&fleet] { STCOMP_CHECK_OK(fleet.FinishAll()); });
  DoNotOptimize(fleet.fixes_out());
  return ns;
}

struct OverheadResult {
  double baseline_ns = 0.0;      // min over repetitions
  double instrumented_ns = 0.0;  // min over repetitions
  double overhead_percent = 0.0; // median of per-pair overheads
};

// Runs baseline/instrumented as adjacent pairs (alternating which goes
// first) so clock-frequency drift hits both sides of a pair about equally,
// then reports the *median of per-pair overheads* — far more drift-robust
// than comparing two independently-taken minima. The ns numbers reported
// alongside are the per-side minima. Each repetition runs on fresh fleet +
// store state.
OverheadResult MeasureOverhead(const Workload& workload, int repetitions) {
  std::vector<double> baseline;
  std::vector<double> instrumented;
  std::vector<double> pair_overheads;
  for (int rep = 0; rep < repetitions; ++rep) {
    double base_ns = 0.0;
    double instr_ns = 0.0;
    if (rep % 2 == 0) {
      base_ns = OneBaselineRun(workload);
      instr_ns = OneInstrumentedRun(workload, rep);
    } else {
      instr_ns = OneInstrumentedRun(workload, rep);
      base_ns = OneBaselineRun(workload);
    }
    baseline.push_back(base_ns);
    instrumented.push_back(instr_ns);
    pair_overheads.push_back((instr_ns - base_ns) / base_ns * 100.0);
  }
  std::sort(pair_overheads.begin(), pair_overheads.end());
  return {*std::min_element(baseline.begin(), baseline.end()),
          *std::min_element(instrumented.begin(), instrumented.end()),
          pair_overheads[pair_overheads.size() / 2]};
}

// ns per operation of one obs primitive, measured over `iterations` calls.
template <typename Op>
double TimePrimitive(size_t iterations, Op op) {
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < iterations; ++i) {
    op(i);
  }
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         static_cast<double>(iterations);
}

}  // namespace

int main(int argc, char** argv) {
  int objects = 16;
  int fixes = 2000;
  int repetitions = 7;
  std::string json_out = "BENCH_obs.json";
  stcomp::FlagParser flags(
      "obs-layer overhead on the fleet ingestion hot path");
  flags.AddInt("objects", &objects, "concurrently streaming objects");
  flags.AddInt("fixes", &fixes, "fixes per object");
  flags.AddInt("repetitions", &repetitions, "timed repetitions (median wins)");
  flags.AddString("json-out", &json_out,
                  "machine-readable result path (empty disables)");
  if (const stcomp::Status status = flags.Parse(argc, argv); !status.ok()) {
    return status.code() == stcomp::StatusCode::kFailedPrecondition ? 0 : 1;
  }
  STCOMP_CHECK(objects > 0 && fixes > 1 && repetitions > 0);

  const Workload workload = MakeWorkload(objects, fixes);
  std::printf("workload: %d objects x %d fixes, %d repetitions, metrics %s\n",
              objects, fixes, repetitions,
              STCOMP_METRICS_ENABLED ? "ENABLED" : "COMPILED OUT");

  // Warm-up pass (not timed): page in code and data, settle the clock.
  OneBaselineRun(workload);
  OneInstrumentedRun(workload, -1);
  const OverheadResult result = MeasureOverhead(workload, repetitions);
  const double baseline_ns = result.baseline_ns;
  const double instrumented_ns = result.instrumented_ns;
  const double overhead_percent = result.overhead_percent;

  std::printf("  baseline      %8.1f ns/push\n", baseline_ns);
  std::printf("  instrumented  %8.1f ns/push\n", instrumented_ns);
  std::printf("  overhead      %+7.2f %%  (budget: 5%%)  -> %s\n",
              overhead_percent, overhead_percent <= 5.0 ? "PASS" : "WARN");

  // Primitive costs: what one unit of each obs building block costs.
  auto& registry = stcomp::obs::MetricsRegistry::Global();
  auto* counter = registry.GetCounter("bench_obs_primitive_counter_total");
  auto* histogram = registry.GetHistogram(
      "bench_obs_primitive_seconds", {}, stcomp::obs::LatencyBucketsSeconds());
  stcomp::obs::TraceBuffer trace_buffer(256);
  constexpr size_t kIterations = 1 << 20;
  const double counter_ns =
      TimePrimitive(kIterations, [&](size_t) { counter->Increment(); });
  const double observe_ns = TimePrimitive(kIterations, [&](size_t i) {
    histogram->Observe(1e-7 * static_cast<double>(i % 1024));
  });
  const double scoped_timer_ns = TimePrimitive(kIterations, [&](size_t) {
    stcomp::obs::ScopedTimer timer(histogram);
    DoNotOptimize(timer);
  });
  const double sampled_timer_ns = TimePrimitive(kIterations, [&](size_t) {
    stcomp::obs::SampledScopedTimer timer(histogram);
    DoNotOptimize(timer);
  });
  const double trace_span_ns = TimePrimitive(kIterations / 16, [&](size_t) {
    stcomp::obs::TraceSpan span("bench.primitive", {}, &trace_buffer);
  });
  // PR-7 hot-path primitives: a lock-free flight-recorder Record, and the
  // two faces of a head-sampled root span — the common not-sampled branch
  // (a thread-local counter bump, no allocation) and the sampled one.
  stcomp::obs::FlightRecorder flight(4096, 8);
  const double flight_record_ns = TimePrimitive(kIterations, [&](size_t i) {
    flight.Record(stcomp::obs::FlightCode::kProbe, "bench-object-id", i, 0);
  });
  const uint64_t saved_period =
      stcomp::obs::TraceBuffer::SetSampledRootPeriod(uint64_t{1} << 40);
  const double span_inactive_ns = TimePrimitive(kIterations, [&](size_t) {
    stcomp::obs::TraceSpan span("bench.sampled", "obj", &trace_buffer,
                                /*sampled_root=*/true);
    DoNotOptimize(span);
  });
  stcomp::obs::TraceBuffer::SetSampledRootPeriod(1);
  const double span_active_ns = TimePrimitive(kIterations / 16, [&](size_t) {
    stcomp::obs::TraceSpan span("bench.sampled", "obj", &trace_buffer,
                                /*sampled_root=*/true);
    DoNotOptimize(span);
  });
  stcomp::obs::TraceBuffer::SetSampledRootPeriod(saved_period);
  std::printf("primitives (ns/op):\n");
  std::printf("  counter increment      %7.2f\n", counter_ns);
  std::printf("  histogram observe      %7.2f\n", observe_ns);
  std::printf("  scoped timer           %7.2f\n", scoped_timer_ns);
  std::printf("  sampled scoped timer   %7.2f (1/%llu sampling)\n",
              sampled_timer_ns,
              static_cast<unsigned long long>(
                  stcomp::obs::SampledScopedTimer::kSamplePeriod));
  std::printf("  trace span             %7.2f\n", trace_span_ns);
  std::printf("  flight record          %7.2f (%llu dropped)\n",
              flight_record_ns,
              static_cast<unsigned long long>(flight.dropped()));
  std::printf("  sampled span, skipped  %7.2f\n", span_inactive_ns);
  std::printf("  sampled span, recorded %7.2f\n", span_active_ns);

  if (!json_out.empty()) {
    char numbers[768];
    std::snprintf(
        numbers, sizeof(numbers),
        "  \"metrics_enabled\": %s,\n  \"objects\": %d,\n"
        "  \"fixes_per_object\": %d,\n  \"repetitions\": %d,\n"
        "  \"baseline_ns_per_push\": %.2f,\n"
        "  \"instrumented_ns_per_push\": %.2f,\n"
        "  \"overhead_percent\": %.3f,\n"
        "  \"overhead_budget_percent\": 5.0,\n"
        "  \"primitives_ns\": {\"counter_increment\": %.3f, "
        "\"histogram_observe\": %.3f, \"scoped_timer\": %.3f, "
        "\"sampled_scoped_timer\": %.3f, \"trace_span\": %.3f, "
        "\"flight_record\": %.3f, \"sampled_span_skipped\": %.3f, "
        "\"sampled_span_recorded\": %.3f},\n",
        STCOMP_METRICS_ENABLED ? "true" : "false", objects, fixes,
        repetitions, baseline_ns, instrumented_ns, overhead_percent,
        counter_ns, observe_ns, scoped_timer_ns, sampled_timer_ns,
        trace_span_ns, flight_record_ns, span_inactive_ns, span_active_ns);
    const std::string json =
        "{\n  \"bench\": \"bench_obs_overhead\",\n  \"schema_version\": 2,\n" +
        std::string(numbers) + "  \"metrics\": " +
        stcomp::obs::RenderJson(registry.Snapshot()) + "}\n";
    std::ofstream file(json_out);
    if (!file) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_out.c_str());
      return 1;
    }
    file << json;
    std::printf("result written to %s\n", json_out.c_str());
  }
  return 0;
}
