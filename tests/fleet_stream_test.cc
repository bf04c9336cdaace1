#include <gtest/gtest.h>

#include "stcomp/algo/squish.h"
#include "stcomp/algo/time_ratio.h"
#include "stcomp/obs/exposition.h"
#include "stcomp/obs/metrics.h"
#include "stcomp/stream/fleet_compressor.h"
#include "stcomp/stream/opening_window_stream.h"
#include "stcomp/stream/squish_stream.h"
#include "test_util.h"

namespace stcomp {
namespace {

using testutil::RandomWalk;

std::unique_ptr<OnlineCompressor> MakeOpwTr(double epsilon) {
  return std::make_unique<OpeningWindowStream>(
      epsilon, algo::BreakPolicy::kNormal, StreamCriterion::kSynchronized);
}

TEST(SquishStreamTest, MatchesBatchSquishE) {
  const Trajectory trajectory = RandomWalk(150, 1);
  for (double mu : {15.0, 50.0}) {
    SquishStream stream(0, mu);
    const Trajectory streamed = CompressStream(trajectory, &stream).value();
    const Trajectory batch =
        trajectory.Subset(algo::Kept(algo::SquishE, trajectory, mu));
    EXPECT_EQ(streamed.points(), batch.points()) << "mu=" << mu;
  }
}

TEST(SquishStreamTest, MatchesBatchSquishCapacity) {
  const Trajectory trajectory = RandomWalk(150, 2);
  for (size_t capacity : {8u, 32u}) {
    SquishStream stream(capacity, 0.0);
    const Trajectory streamed = CompressStream(trajectory, &stream).value();
    const Trajectory batch =
        trajectory.Subset(algo::Kept(algo::Squish, trajectory, capacity));
    EXPECT_EQ(streamed.points(), batch.points()) << "capacity=" << capacity;
  }
}

TEST(SquishStreamTest, BufferStaysBounded) {
  const Trajectory trajectory = RandomWalk(500, 3);
  SquishStream stream(16, 0.0);
  std::vector<TimedPoint> out;
  for (const TimedPoint& point : trajectory.points()) {
    ASSERT_TRUE(stream.Push(point, &out).ok());
    EXPECT_LE(stream.buffered_points(), 17u);
  }
  stream.Finish(&out);
  EXPECT_LE(out.size(), 16u);
  EXPECT_EQ(out.front(), trajectory.front());
  EXPECT_EQ(out.back(), trajectory.back());
}

TEST(SquishStreamTest, RejectsNonMonotone) {
  SquishStream stream(8, 0.0);
  std::vector<TimedPoint> out;
  ASSERT_TRUE(stream.Push({0.0, 0.0, 0.0}, &out).ok());
  EXPECT_FALSE(stream.Push({0.0, 1.0, 0.0}, &out).ok());
}

TEST(FleetCompressorTest, RoutesInterleavedStreams) {
  TrajectoryStore store(Codec::kRaw);
  FleetCompressor fleet([] { return MakeOpwTr(30.0); }, &store);
  const Trajectory a = RandomWalk(60, 4);
  const Trajectory b = RandomWalk(80, 5);
  // Interleave pushes.
  size_t ia = 0;
  size_t ib = 0;
  while (ia < a.size() || ib < b.size()) {
    if (ia < a.size()) {
      ASSERT_TRUE(fleet.Push("car-a", a[ia++]).ok());
    }
    if (ib < b.size()) {
      ASSERT_TRUE(fleet.Push("car-b", b[ib++]).ok());
    }
  }
  EXPECT_EQ(fleet.active_objects(), 2u);
  EXPECT_EQ(fleet.fixes_in(), a.size() + b.size());
  ASSERT_TRUE(fleet.FinishAll().ok());
  EXPECT_EQ(fleet.active_objects(), 0u);

  // Per-object results equal single-object streaming runs.
  for (const auto& [id, source] :
       {std::pair{"car-a", a}, std::pair{"car-b", b}}) {
    auto solo = MakeOpwTr(30.0);
    const Trajectory expected = CompressStream(source, solo.get()).value();
    const Trajectory stored = store.Get(id).value();
    EXPECT_EQ(stored.points(), expected.points()) << id;
  }
  EXPECT_EQ(fleet.fixes_out(),
            store.Get("car-a").value().size() +
                store.Get("car-b").value().size());
  EXPECT_LE(fleet.fixes_out(), fleet.fixes_in());
}

TEST(FleetCompressorTest, OutOfOrderFixRejectedPerObject) {
  TrajectoryStore store(Codec::kRaw);
  FleetCompressor fleet([] { return MakeOpwTr(30.0); }, &store);
  ASSERT_TRUE(fleet.Push("x", {10.0, 0.0, 0.0}).ok());
  EXPECT_FALSE(fleet.Push("x", {5.0, 1.0, 0.0}).ok());
  // Other objects are unaffected, including ones with earlier clocks.
  EXPECT_TRUE(fleet.Push("y", {5.0, 1.0, 0.0}).ok());
}

TEST(FleetCompressorTest, FinishObjectFlushesTail) {
  TrajectoryStore store(Codec::kRaw);
  FleetCompressor fleet([] { return MakeOpwTr(1000.0); }, &store);
  const Trajectory a = RandomWalk(30, 6);
  for (const TimedPoint& point : a.points()) {
    ASSERT_TRUE(fleet.Push("solo", point).ok());
  }
  EXPECT_GT(fleet.buffered_points(), 0u);
  ASSERT_TRUE(fleet.FinishObject("solo").ok());
  EXPECT_EQ(fleet.FinishObject("solo").code(), StatusCode::kNotFound);
  const Trajectory stored = store.Get("solo").value();
  // Huge epsilon: only endpoints survive, but the tail IS flushed.
  EXPECT_EQ(stored.front(), a.front());
  EXPECT_EQ(stored.back(), a.back());
  EXPECT_LE(fleet.fixes_out(), fleet.fixes_in());
}

TEST(FleetCompressorTest, DrainAccountingConsistentOnStoreError) {
  TrajectoryStore store(Codec::kRaw);
  FleetCompressor fleet([] { return MakeOpwTr(30.0); }, &store);
  // The opening window commits its anchor immediately.
  ASSERT_TRUE(fleet.Push("x", {0.0, 0.0, 0.0}).ok());
  ASSERT_EQ(fleet.fixes_out(), 1u);
  // Sabotage: advance the stored trajectory past the compressor's clock, so
  // the next drained commit fails the store's monotonicity check.
  ASSERT_TRUE(store.Append("x", {1000.0, 1.0, 1.0}).ok());
  ASSERT_TRUE(fleet.Push("x", {10.0, 50.0, 0.0}).ok());
  // This push breaks the window, committing the t=10 fix — whose store
  // append fails against the sabotaged clock, so the error surfaces here.
  EXPECT_FALSE(fleet.Push("x", {20.0, 0.0, 50.0}).ok());
  // Failed appends must not count as committed fixes: the invariant
  // fixes_out <= fixes_in survives mid-drain store errors, and the out
  // count still matches what the store actually accepted (the anchor plus
  // the sabotage point).
  EXPECT_EQ(fleet.fixes_in(), 3u);
  EXPECT_EQ(fleet.fixes_out(), 1u);
  EXPECT_LE(fleet.fixes_out(), fleet.fixes_in());
  EXPECT_EQ(store.Get("x").value().size(), 2u);
}

TEST(FleetCompressorTest, MetricsAgreeWithStoreAfterFinishAll) {
  TrajectoryStore store(Codec::kRaw);
  FleetCompressor fleet([] { return MakeOpwTr(25.0); }, &store, {}, "mtest");
  EXPECT_EQ(fleet.instance(), "mtest");
  const Trajectory a = RandomWalk(70, 8);
  const Trajectory b = RandomWalk(90, 9);
  for (const TimedPoint& point : a.points()) {
    ASSERT_TRUE(fleet.Push("truck-a", point).ok());
  }
  for (const TimedPoint& point : b.points()) {
    ASSERT_TRUE(fleet.Push("truck-b", point).ok());
  }
  ASSERT_TRUE(fleet.FinishAll().ok());

  // The accessors are shims over this instance's registry series; all three
  // views — accessor, registry counter, store contents — must agree.
  auto& registry = obs::MetricsRegistry::Global();
  const obs::LabelSet labels{{"compressor", "mtest"}};
  EXPECT_EQ(
      registry.GetCounter("stcomp_stream_fixes_in_total", labels)->value(),
      fleet.fixes_in());
  EXPECT_EQ(
      registry.GetCounter("stcomp_stream_fixes_out_total", labels)->value(),
      fleet.fixes_out());
  EXPECT_EQ(fleet.fixes_in(), a.size() + b.size());
  EXPECT_EQ(fleet.fixes_out(), store.Get("truck-a").value().size() +
                                   store.Get("truck-b").value().size());
  EXPECT_LE(fleet.fixes_out(), fleet.fixes_in());

  // And the run must be scrapeable: the instance's series appear in the
  // Prometheus exposition with their label attached.
  const std::string prom =
      obs::RenderPrometheus(registry.Snapshot());
  EXPECT_NE(prom.find("stcomp_stream_fixes_in_total{compressor=\"mtest\"} " +
                      std::to_string(fleet.fixes_in())),
            std::string::npos);
  EXPECT_NE(prom.find("stcomp_stream_fixes_out_total{compressor=\"mtest\"} " +
                      std::to_string(fleet.fixes_out())),
            std::string::npos);
#if STCOMP_METRICS_ENABLED
  EXPECT_NE(
      prom.find("stcomp_stream_push_seconds_bucket{compressor=\"mtest\",le="),
      std::string::npos);
#endif
}

TEST(FleetCompressorTest, ManyObjectsScale) {
  TrajectoryStore store;
  FleetCompressor fleet([] { return MakeOpwTr(40.0); }, &store);
  std::vector<Trajectory> sources;
  for (uint64_t object = 0; object < 20; ++object) {
    sources.push_back(RandomWalk(50, 100 + object));
  }
  for (size_t step = 0; step < 50; ++step) {
    for (size_t object = 0; object < sources.size(); ++object) {
      ASSERT_TRUE(fleet
                      .Push("obj-" + std::to_string(object),
                            sources[object][step])
                      .ok());
    }
  }
  ASSERT_TRUE(fleet.FinishAll().ok());
  EXPECT_EQ(store.object_count(), 20u);
  EXPECT_EQ(fleet.fixes_in(), 1000u);
  EXPECT_LT(fleet.fixes_out(), fleet.fixes_in());
  size_t stored = 0;
  for (uint64_t object = 0; object < 20; ++object) {
    stored += store.Get("obj-" + std::to_string(object)).value().size();
  }
  EXPECT_EQ(fleet.fixes_out(), stored);
}

}  // namespace
}  // namespace stcomp
