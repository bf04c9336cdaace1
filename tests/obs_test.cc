// Unit tests for the observability layer: metric value types, registry
// addressing, exposition round-trips, scoped timing, trace spans, and the
// ground-truth contract of the algorithm-registry instrumentation.
//
// The metric value types and the registry are compiled in every
// configuration (product APIs shim over them), so most tests run under
// STCOMP_DISABLE_METRICS too; only the tests exercising the
// instrumentation *macros* are gated on STCOMP_METRICS_ENABLED.

#include <gtest/gtest.h>

#include <thread>

#include "stcomp/algo/registry.h"
#include "stcomp/common/strings.h"
#include "stcomp/obs/exposition.h"
#include "stcomp/obs/metrics.h"
#include "stcomp/obs/timer.h"
#include "stcomp/obs/trace.h"
#include "test_util.h"

namespace stcomp::obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.Set(7.5);
  EXPECT_EQ(gauge.value(), 7.5);
  gauge.Add(-2.5);
  EXPECT_EQ(gauge.value(), 5.0);
}

TEST(HistogramTest, BucketPlacementFollowsLeConvention) {
  Histogram histogram({1.0, 2.0, 4.0});
  histogram.Observe(0.5);  // bucket 0
  histogram.Observe(1.0);  // bucket 0 (le: v <= bound)
  histogram.Observe(1.5);  // bucket 1
  histogram.Observe(4.0);  // bucket 2
  histogram.Observe(9.0);  // +Inf bucket
  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 16.0);
  EXPECT_EQ(histogram.bucket_counts(),
            (std::vector<uint64_t>{2, 1, 1, 1}));
}

TEST(HistogramTest, ConcurrentObservationsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  Histogram histogram({0.5, 1.5});
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Observe(1.0);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const uint64_t expected = uint64_t{kThreads} * kPerThread;
  EXPECT_EQ(histogram.count(), expected);
  // The CAS loop makes the sum exact, not just approximately right.
  EXPECT_DOUBLE_EQ(histogram.sum(), static_cast<double>(expected));
  EXPECT_EQ(histogram.bucket_counts(),
            (std::vector<uint64_t>{0, expected, 0}));
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  Counter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Increment();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.value(), uint64_t{kThreads} * kPerThread);
}

TEST(MetricsRegistryTest, SameSeriesReturnsSamePointer) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("obs_test_total", {{"k", "v"}});
  // Label order must not matter; a different label set must.
  Counter* b = registry.GetCounter(
      "obs_test_total", {{"z", "9"}, {"k", "v"}});
  Counter* c = registry.GetCounter(
      "obs_test_total", {{"k", "v"}, {"z", "9"}});
  EXPECT_NE(a, b);
  EXPECT_EQ(b, c);
  EXPECT_EQ(a, registry.GetCounter("obs_test_total", {{"k", "v"}}));
  EXPECT_EQ(registry.GetGauge("obs_test_gauge"),
            registry.GetGauge("obs_test_gauge"));
  Histogram* h = registry.GetHistogram("obs_test_seconds", {}, {1.0, 2.0});
  // Boundaries are fixed by the first registration.
  EXPECT_EQ(h, registry.GetHistogram("obs_test_seconds", {}, {9.0}));
  EXPECT_EQ(h->upper_bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(MetricsRegistryTest, ResetForTestZeroesValuesKeepsPointers) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("obs_reset_total");
  Gauge* gauge = registry.GetGauge("obs_reset_gauge");
  Histogram* histogram = registry.GetHistogram("obs_reset_hist", {}, {1.0});
  counter->Increment(5);
  gauge->Set(3.0);
  histogram->Observe(0.5);
  registry.ResetForTest();
  EXPECT_EQ(counter->value(), 0u);
  EXPECT_EQ(gauge->value(), 0.0);
  EXPECT_EQ(histogram->count(), 0u);
  EXPECT_EQ(histogram->sum(), 0.0);
  EXPECT_EQ(histogram->bucket_counts(), (std::vector<uint64_t>{0, 0}));
  counter->Increment();  // the pointer is still live and registered
  EXPECT_EQ(registry.Snapshot().counters.at(0).value, 1u);
}

MetricsSnapshot ExampleSnapshot() {
  MetricsRegistry registry;
  registry.GetCounter("stcomp_example_total", {{"algorithm", "td-tr"}})
      ->Increment(3);
  registry.GetGauge("stcomp_example_points")->Set(12.5);
  Histogram* histogram =
      registry.GetHistogram("stcomp_example_seconds", {}, {1.0, 2.0, 4.0});
  for (const double v : {0.5, 1.5, 1.6, 3.0, 9.0}) {
    histogram->Observe(v);
  }
  return registry.Snapshot();
}

TEST(ExpositionTest, TextContainsSeriesAndDerivedStats) {
  const std::string text = RenderText(ExampleSnapshot());
  EXPECT_NE(text.find("== counters =="), std::string::npos);
  EXPECT_NE(text.find("stcomp_example_total{algorithm=\"td-tr\"}"),
            std::string::npos);
  EXPECT_NE(text.find("count=5"), std::string::npos);
  EXPECT_NE(text.find("p95="), std::string::npos);
  EXPECT_EQ(RenderText(MetricsSnapshot{}), "(no metrics recorded)\n");
}

TEST(ExpositionTest, JsonHoldsNonCumulativeBuckets) {
  const std::string json = RenderJson(ExampleSnapshot());
  EXPECT_NE(json.find("\"name\":\"stcomp_example_total\""),
            std::string::npos);
  EXPECT_NE(json.find("\"labels\":{\"algorithm\":\"td-tr\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"value\":3"), std::string::npos);
  // Buckets: {0.5}->b0, {1.5,1.6}->b1, {3.0}->b2, {9.0}->+Inf.
  EXPECT_NE(json.find("{\"le\":1,\"count\":1}"), std::string::npos);
  EXPECT_NE(json.find("{\"le\":2,\"count\":2}"), std::string::npos);
  EXPECT_NE(json.find("{\"le\":4,\"count\":1}"), std::string::npos);
  EXPECT_NE(json.find("{\"le\":\"+Inf\",\"count\":1}"), std::string::npos);
  EXPECT_NE(json.find("\"count\":5,\"sum\":15.6"), std::string::npos);
}

TEST(ExpositionTest, PrometheusBucketsAreCumulative) {
  const std::string prom = RenderPrometheus(ExampleSnapshot());
  EXPECT_NE(prom.find("# TYPE stcomp_example_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE stcomp_example_seconds histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("stcomp_example_total{algorithm=\"td-tr\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("stcomp_example_seconds_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("stcomp_example_seconds_bucket{le=\"2\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("stcomp_example_seconds_bucket{le=\"4\"} 4"),
            std::string::npos);
  EXPECT_NE(prom.find("stcomp_example_seconds_bucket{le=\"+Inf\"} 5"),
            std::string::npos);
  EXPECT_NE(prom.find("stcomp_example_seconds_sum 15.6"), std::string::npos);
  EXPECT_NE(prom.find("stcomp_example_seconds_count 5"), std::string::npos);
}

TEST(ExpositionTest, LabelValuesAreEscaped) {
  MetricsRegistry registry;
  registry.GetCounter("esc_total", {{"path", "a\\b\"c\nd"}})->Increment();
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_NE(RenderPrometheus(snapshot).find("path=\"a\\\\b\\\"c\\nd\""),
            std::string::npos);
  EXPECT_NE(RenderJson(snapshot).find("\"path\":\"a\\\\b\\\"c\\nd\""),
            std::string::npos);
}

TEST(ExpositionTest, RenderMetricsDispatchesOnFormat) {
  const MetricsSnapshot snapshot = ExampleSnapshot();
  EXPECT_EQ(RenderMetrics(snapshot, MetricsFormat::kText),
            RenderText(snapshot));
  EXPECT_EQ(RenderMetrics(snapshot, MetricsFormat::kJson),
            RenderJson(snapshot));
  EXPECT_EQ(RenderMetrics(snapshot, MetricsFormat::kPrometheus),
            RenderPrometheus(snapshot));
}

TEST(ExpositionTest, ParseMetricsFormat) {
  EXPECT_EQ(ParseMetricsFormat("text").value(), MetricsFormat::kText);
  EXPECT_EQ(ParseMetricsFormat("JSON").value(), MetricsFormat::kJson);
  EXPECT_EQ(ParseMetricsFormat("Prometheus").value(),
            MetricsFormat::kPrometheus);
  EXPECT_EQ(ParseMetricsFormat("prom").value(), MetricsFormat::kPrometheus);
  EXPECT_EQ(ParseMetricsFormat("yaml").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QuantileTest, InterpolatesWithinBuckets) {
  HistogramSample sample;
  sample.upper_bounds = {1.0, 2.0};
  sample.buckets = {10, 10, 0};  // uniform-ish over (0,1] and (1,2]
  sample.count = 20;
  EXPECT_DOUBLE_EQ(ApproximateQuantile(sample, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(ApproximateQuantile(sample, 0.25), 0.5);
  EXPECT_DOUBLE_EQ(ApproximateQuantile(sample, 0.75), 1.5);
  // The +Inf bucket clamps to the last finite boundary.
  sample.buckets = {0, 0, 5};
  sample.count = 5;
  EXPECT_DOUBLE_EQ(ApproximateQuantile(sample, 0.99), 2.0);
  // Empty histogram.
  sample.buckets = {0, 0, 0};
  sample.count = 0;
  EXPECT_DOUBLE_EQ(ApproximateQuantile(sample, 0.5), 0.0);
}

TEST(QuantileTest, EmptyHistogramIsZeroForEveryQuantile) {
  HistogramSample sample;  // no bounds, no buckets, count 0
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(ApproximateQuantile(sample, q), 0.0) << "q=" << q;
  }
  // Bounds present but nothing observed must behave the same.
  sample.upper_bounds = {1.0, 10.0};
  sample.buckets = {0, 0, 0};
  EXPECT_DOUBLE_EQ(ApproximateQuantile(sample, 0.5), 0.0);
}

TEST(QuantileTest, SingleBucketMassInterpolatesWithinThatBucket) {
  HistogramSample sample;
  sample.upper_bounds = {1.0, 2.0, 4.0};
  sample.buckets = {0, 8, 0, 0};  // all mass in (1, 2]
  sample.count = 8;
  // Every quantile lands in the same bucket; interpolation walks its width.
  EXPECT_DOUBLE_EQ(ApproximateQuantile(sample, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(ApproximateQuantile(sample, 0.25), 1.25);
  EXPECT_DOUBLE_EQ(ApproximateQuantile(sample, 1.0), 2.0);
  // Mass in the first bucket interpolates from an implicit lower bound 0.
  sample.buckets = {8, 0, 0, 0};
  EXPECT_DOUBLE_EQ(ApproximateQuantile(sample, 0.5), 0.5);
}

TEST(QuantileTest, AllObservationsInInfBucketClampToLastFiniteBound) {
  HistogramSample sample;
  sample.upper_bounds = {1.0, 2.0};
  sample.buckets = {0, 0, 7};  // everything overflowed past the last bound
  sample.count = 7;
  for (const double q : {0.01, 0.5, 0.99}) {
    EXPECT_DOUBLE_EQ(ApproximateQuantile(sample, q), 2.0) << "q=" << q;
  }
  // Degenerate histogram with only a +Inf bucket has no finite bound to
  // clamp to; the answer decays to 0 rather than inventing a value.
  HistogramSample inf_only;
  inf_only.buckets = {5};
  inf_only.count = 5;
  EXPECT_DOUBLE_EQ(ApproximateQuantile(inf_only, 0.5), 0.0);
}

TEST(ScopedTimerTest, RecordsExactlyOneObservationPerScope) {
  Histogram histogram(LatencyBucketsSeconds());
  {
    ScopedTimer timer(&histogram);
    EXPECT_GE(timer.ElapsedSeconds(), 0.0);
  }
  EXPECT_EQ(histogram.count(), 1u);
  EXPECT_GE(histogram.sum(), 0.0);
}

TEST(SampledScopedTimerTest, RecordsRoughlyOnePerPeriod) {
  Histogram histogram(LatencyBucketsSeconds());
  constexpr uint64_t kScopes = 4 * SampledScopedTimer::kSamplePeriod;
  for (uint64_t i = 0; i < kScopes; ++i) {
    SampledScopedTimer timer(&histogram);
  }
  // The thread-local tick phase is arbitrary at test start, so allow one
  // extra sample either way; zero would mean sampling is broken.
  EXPECT_GE(histogram.count(), 1u);
  EXPECT_LE(histogram.count(), kScopes / SampledScopedTimer::kSamplePeriod + 1);
}

TEST(TraceBufferTest, RingOverwritesOldestAndCountsTotal) {
  TraceBuffer buffer(4);
  for (int i = 0; i < 6; ++i) {
    buffer.Record({"span-" + std::to_string(i), "", 0, 0});
  }
  EXPECT_EQ(buffer.total_recorded(), 6u);
  const std::vector<TraceEvent> events = buffer.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().name, "span-2");  // oldest surviving
  EXPECT_EQ(events.back().name, "span-5");
  buffer.Clear();
  EXPECT_TRUE(buffer.Snapshot().empty());
  EXPECT_EQ(buffer.total_recorded(), 0u);
}

TEST(TraceSpanTest, RecordsOnDestruction) {
  TraceBuffer buffer(8);
  {
    TraceSpan span("unit.test", "detail-1", &buffer);
    EXPECT_EQ(buffer.total_recorded(), 0u);
  }
  const std::vector<TraceEvent> events = buffer.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "unit.test");
  EXPECT_EQ(events[0].detail, "detail-1");
  EXPECT_NE(RenderTraceText(events).find("unit.test detail-1"),
            std::string::npos);
  EXPECT_NE(RenderTraceJson(events).find("\"name\":\"unit.test\""),
            std::string::npos);
}

TEST(TraceSpanTest, EventsCarryThreadIdAndRenderersShowIt) {
  TraceBuffer buffer(8);
  { TraceSpan span("tid.test", "here", &buffer); }
  uint32_t worker_tid = 0;
  std::thread worker([&buffer, &worker_tid] {
    worker_tid = CurrentThreadId();
    TraceSpan span("tid.test", "there", &buffer);
  });
  worker.join();
  const std::vector<TraceEvent> events = buffer.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].thread_id, CurrentThreadId());
  EXPECT_EQ(events[1].thread_id, worker_tid);
  EXPECT_NE(events[0].thread_id, events[1].thread_id);
  EXPECT_NE(events[0].span_id, 0u);
  EXPECT_NE(events[0].span_id, events[1].span_id);
  // Both renderers surface the recording thread.
  const std::string text = RenderTraceText(events);
  EXPECT_NE(text.find(StrFormat("t%02u", events[0].thread_id)),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(StrFormat("t%02u", events[1].thread_id)),
            std::string::npos)
      << text;
  const std::string json = RenderTraceJson(events);
  EXPECT_NE(json.find("\"thread_id\":" + std::to_string(events[1].thread_id)),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"span_id\":" + std::to_string(events[0].span_id)),
            std::string::npos)
      << json;
}

#if STCOMP_METRICS_ENABLED
// Ground truth: running an algorithm through the registry must move the
// per-algorithm series by exactly the run's input/output sizes.
TEST(AlgoInstrumentationTest, RegistryRunsRecordGroundTruth) {
  const Trajectory trajectory = testutil::RandomWalk(120, 7);
  const algo::AlgorithmInfo* info = algo::FindAlgorithm("td-tr").value();
  algo::AlgorithmParams params;
  params.epsilon_m = 25.0;

  auto& registry = MetricsRegistry::Global();
  const LabelSet labels{{"algorithm", "td-tr"}};
  Counter* runs = registry.GetCounter("stcomp_algo_runs_total", labels);
  Counter* points_in =
      registry.GetCounter("stcomp_algo_points_in_total", labels);
  Counter* points_kept =
      registry.GetCounter("stcomp_algo_points_kept_total", labels);
  Histogram* ratio = registry.GetHistogram("stcomp_algo_compression_ratio",
                                           labels, RatioBuckets());
  Histogram* run_seconds = registry.GetHistogram(
      "stcomp_algo_run_seconds", labels, LatencyBucketsSeconds());

  const uint64_t runs_before = runs->value();
  const uint64_t in_before = points_in->value();
  const uint64_t kept_before = points_kept->value();
  const uint64_t ratio_before = ratio->count();
  const uint64_t seconds_before = run_seconds->count();

  const algo::IndexList kept =
      testutil::RunAlgorithm(*info, trajectory, params);

  EXPECT_EQ(runs->value(), runs_before + 1);
  EXPECT_EQ(points_in->value(), in_before + trajectory.size());
  EXPECT_EQ(points_kept->value(), kept_before + kept.size());
  EXPECT_EQ(ratio->count(), ratio_before + 1);
  EXPECT_EQ(run_seconds->count(), seconds_before + 1);

  // The run must surface in the Prometheus exposition of the global
  // registry under its {algorithm=...} label.
  const std::string prom = RenderPrometheus(registry.Snapshot());
  EXPECT_NE(prom.find("stcomp_algo_runs_total{algorithm=\"td-tr\"}"),
            std::string::npos);
  EXPECT_NE(
      prom.find("stcomp_algo_run_seconds_bucket{algorithm=\"td-tr\",le="),
      std::string::npos);
}
#endif  // STCOMP_METRICS_ENABLED

}  // namespace
}  // namespace stcomp::obs
