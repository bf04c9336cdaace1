#include "stcomp/testing/fault_plan.h"

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stcomp/stream/fleet_compressor.h"
#include "stcomp/stream/opening_window_stream.h"
#include "stcomp/testing/faulty_source.h"

namespace stcomp {
namespace {

using testing::FaultPlan;
using testing::FaultPlanOptions;
using testing::FaultyFeedEvent;
using testing::FaultyFixSource;
using testing::FleetFix;

std::string SampleBytes(size_t n) {
  std::string bytes;
  bytes.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    bytes.push_back(static_cast<char>((i * 131 + 7) & 0xff));
  }
  return bytes;
}

std::vector<FleetFix> CleanFeed(size_t fixes_per_object) {
  std::vector<FleetFix> feed;
  for (size_t i = 0; i < fixes_per_object; ++i) {
    const double t = static_cast<double>(i) * 5.0;
    feed.push_back({"bus-1", TimedPoint(t, 0.1 * i, 0.2 * i)});
    feed.push_back({"bus-2", TimedPoint(t, -0.3 * i, 50.0)});
  }
  return feed;
}

TEST(FaultPlanTest, SameSeedSameBytes) {
  const std::string input = SampleBytes(4096);
  FaultPlan a(42);
  FaultPlan b(42);
  const std::string mutant_a = a.CorruptBytes(input);
  const std::string mutant_b = b.CorruptBytes(input);
  EXPECT_EQ(mutant_a, mutant_b);
  EXPECT_EQ(a.log(), b.log());
  // A 4 KiB buffer at the default rates essentially always sees a fault;
  // the log names each one for reproduction.
  EXPECT_GT(a.faults_injected(), 0u) << a.Describe();
  EXPECT_NE(mutant_a, input);
}

TEST(FaultPlanTest, DifferentSeedsDiverge) {
  const std::string input = SampleBytes(4096);
  FaultPlan a(1);
  FaultPlan b(2);
  EXPECT_NE(a.CorruptBytes(input), b.CorruptBytes(input));
}

TEST(FaultPlanTest, ZeroRatesAreIdentity) {
  FaultPlanOptions off;
  off.bit_flip_per_byte = 0.0;
  off.truncate_probability = 0.0;
  off.duplicate_span_probability = 0.0;
  FaultPlan plan(7, off);
  const std::string input = SampleBytes(512);
  EXPECT_EQ(plan.CorruptBytes(input), input);
  EXPECT_EQ(plan.faults_injected(), 0u);
}

TEST(FaultPlanTest, DescribeNamesSeed) {
  FaultPlan plan(99);
  EXPECT_NE(plan.Describe().find("seed=99"), std::string::npos);
}

std::vector<FaultyFeedEvent> DrainEvents(FaultyFixSource* source) {
  std::vector<FaultyFeedEvent> events;
  FaultyFeedEvent event;
  while (source->Next(&event)) {
    events.push_back(event);
  }
  return events;
}

TEST(FaultyFixSourceTest, SameSeedSameEventSequence) {
  const std::vector<FleetFix> feed = CleanFeed(200);
  FaultPlan plan_a(2024);
  FaultPlan plan_b(2024);
  FaultyFixSource source_a(feed, &plan_a);
  FaultyFixSource source_b(feed, &plan_b);
  const std::vector<FaultyFeedEvent> events_a = DrainEvents(&source_a);
  const std::vector<FaultyFeedEvent> events_b = DrainEvents(&source_b);
  ASSERT_EQ(events_a.size(), events_b.size());
  for (size_t i = 0; i < events_a.size(); ++i) {
    EXPECT_EQ(events_a[i].kind, events_b[i].kind) << "event " << i;
    if (events_a[i].kind == FaultyFeedEvent::Kind::kFix) {
      EXPECT_EQ(events_a[i].fix.object_id, events_b[i].fix.object_id);
      // operator== is NaN-poisoned; determinism means bit-identical fixes.
      const TimedPoint& pa = events_a[i].fix.fix;
      const TimedPoint& pb = events_b[i].fix.fix;
      EXPECT_EQ(std::memcmp(&pa, &pb, sizeof(TimedPoint)), 0) << "event " << i;
    }
  }
  EXPECT_EQ(plan_a.log(), plan_b.log());
}

TEST(FaultyFixSourceTest, InjectsEveryFaultKind) {
  FaultPlan plan(7);
  FaultyFixSource source(CleanFeed(600), &plan);
  (void)DrainEvents(&source);
  bool saw_dup = false, saw_regress = false, saw_jitter = false,
       saw_nan = false, saw_io = false;
  for (const std::string& entry : plan.log()) {
    saw_dup |= entry.rfind("dup-fix", 0) == 0;
    saw_regress |= entry.rfind("regress", 0) == 0;
    saw_jitter |= entry.rfind("jitter", 0) == 0;
    saw_nan |= entry.rfind("nan", 0) == 0;
    saw_io |= entry.rfind("io-error", 0) == 0;
  }
  EXPECT_TRUE(saw_dup && saw_regress && saw_jitter && saw_nan && saw_io)
      << plan.Describe();
}

TEST(FaultyFixSourceTest, IoErrorRetriesDeliverTheFix) {
  // With only I/O errors enabled, every fix still arrives (after a
  // transient error event), so nothing in the feed is lost.
  FaultPlanOptions only_io;
  only_io.duplicate_fix_probability = 0.0;
  only_io.regress_time_probability = 0.0;
  only_io.jitter_time_probability = 0.0;
  only_io.nan_coordinate_probability = 0.0;
  only_io.io_error_probability = 0.5;
  FaultPlan plan(11, only_io);
  const std::vector<FleetFix> feed = CleanFeed(100);
  FaultyFixSource source(feed, &plan);
  size_t fixes = 0, errors = 0;
  FaultyFeedEvent event;
  while (source.Next(&event)) {
    if (event.kind == FaultyFeedEvent::Kind::kFix) {
      ++fixes;
    } else {
      EXPECT_FALSE(event.error.ok());
      ++errors;
    }
  }
  EXPECT_EQ(fixes, feed.size());
  EXPECT_GT(errors, 0u);
}

// The acceptance demo in test form: a fleet under a faulty feed, repair
// policy on, finishes cleanly with nonzero ingest counters and strictly
// time-ordered store contents.
TEST(IngestHardeningTest, FleetSurvivesFaultyFeedUnderRepair) {
  TrajectoryStore store(Codec::kRaw);
  IngestPolicy policy;
  policy.mode = IngestMode::kRepair;
  policy.reorder_window_s = 30.0;
  FleetCompressor fleet(
      [] {
        return std::make_unique<OpeningWindowStream>(
            5.0, algo::BreakPolicy::kNormal, StreamCriterion::kSynchronized);
      },
      &store, policy, "fault-demo");

  FaultPlan plan(20260805);
  FaultyFixSource source(CleanFeed(400), &plan);
  FaultyFeedEvent event;
  size_t transient_errors = 0;
  while (source.Next(&event)) {
    if (event.kind == FaultyFeedEvent::Kind::kTransientError) {
      ++transient_errors;  // A real consumer would retry; the source does.
      continue;
    }
    ASSERT_TRUE(fleet.Push(event.fix.object_id, event.fix.fix).ok());
  }
  ASSERT_TRUE(fleet.FinishAll().ok());

  EXPECT_GT(plan.faults_injected(), 0u) << plan.Describe();
  EXPECT_GT(transient_errors, 0u);
  EXPECT_GT(fleet.ingest_dropped() + fleet.ingest_repaired(), 0u);

  for (const std::string& id : {std::string("bus-1"), std::string("bus-2")}) {
    const Result<Trajectory> trajectory = store.Get(id);
    ASSERT_TRUE(trajectory.ok()) << id;
    const std::vector<TimedPoint>& points = trajectory->points();
    ASSERT_GT(points.size(), 1u) << id;
    for (size_t i = 1; i < points.size(); ++i) {
      ASSERT_LT(points[i - 1].t, points[i].t) << id << " index " << i;
      ASSERT_TRUE(std::isfinite(points[i].position.x));
      ASSERT_TRUE(std::isfinite(points[i].position.y));
    }
  }
}

}  // namespace
}  // namespace stcomp
