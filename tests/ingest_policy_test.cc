#include "stcomp/stream/ingest_policy.h"

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stcomp/stream/fleet_compressor.h"
#include "stcomp/stream/opening_window_stream.h"

namespace stcomp {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

IngestGate MakeGate(const IngestPolicy& policy, const std::string& instance) {
  return IngestGate(policy, IngestCounters::ForInstance(instance));
}

std::vector<double> Times(const std::vector<TimedPoint>& points) {
  std::vector<double> times;
  for (const TimedPoint& point : points) {
    times.push_back(point.t);
  }
  return times;
}

TEST(IngestModeTest, Names) {
  EXPECT_EQ(IngestModeToString(IngestMode::kReject), "reject");
  EXPECT_EQ(IngestModeToString(IngestMode::kDropAndCount), "drop-and-count");
  EXPECT_EQ(IngestModeToString(IngestMode::kRepair), "repair");
}

TEST(IngestGateTest, RejectSurfacesFaultsAsStatus) {
  IngestGate gate = MakeGate({}, "gate-reject");
  std::vector<TimedPoint> admitted;
  EXPECT_TRUE(gate.Admit({1.0, 0.0, 0.0}, &admitted).ok());
  const Status stale = gate.Admit({1.0, 1.0, 1.0}, &admitted);
  EXPECT_EQ(stale.code(), StatusCode::kInvalidArgument);
  const Status nan = gate.Admit({2.0, kNan, 0.0}, &admitted);
  EXPECT_EQ(nan.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(gate.Admit({2.0, 2.0, 2.0}, &admitted).ok());
  EXPECT_EQ(Times(admitted), (std::vector<double>{1.0, 2.0}));
}

TEST(IngestGateTest, DropAndCountSwallowsFaults) {
  IngestPolicy policy;
  policy.mode = IngestMode::kDropAndCount;
  const IngestCounters counters = IngestCounters::ForInstance("gate-drop");
  IngestGate gate(policy, counters);
  std::vector<TimedPoint> admitted;
  EXPECT_TRUE(gate.Admit({1.0, 0.0, 0.0}, &admitted).ok());
  EXPECT_TRUE(gate.Admit({0.5, 0.0, 0.0}, &admitted).ok());   // out of order
  EXPECT_TRUE(gate.Admit({kNan, 0.0, 0.0}, &admitted).ok());  // non-finite
  EXPECT_TRUE(gate.Admit({2.0, 0.0, 0.0}, &admitted).ok());
  EXPECT_EQ(Times(admitted), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(counters.dropped->value(), 2u);
  EXPECT_EQ(counters.repaired->value(), 0u);
}

TEST(IngestGateTest, RepairResortsWithinWindow) {
  IngestPolicy policy;
  policy.mode = IngestMode::kRepair;
  policy.reorder_window_s = 10.0;
  const IngestCounters counters = IngestCounters::ForInstance("gate-resort");
  IngestGate gate(policy, counters);
  std::vector<TimedPoint> admitted;
  // 20 arrives, then 14 late-but-in-window, then 25 advances the watermark
  // to 15 and releases {14} — strictly ordered despite the feed.
  EXPECT_TRUE(gate.Admit({20.0, 0.0, 0.0}, &admitted).ok());
  EXPECT_TRUE(gate.Admit({14.0, 0.0, 0.0}, &admitted).ok());
  EXPECT_TRUE(gate.Admit({25.0, 0.0, 0.0}, &admitted).ok());
  EXPECT_EQ(Times(admitted), (std::vector<double>{14.0}));
  EXPECT_EQ(gate.held_points(), 2u);
  gate.Flush(&admitted);
  EXPECT_EQ(Times(admitted), (std::vector<double>{14.0, 20.0, 25.0}));
  EXPECT_EQ(gate.held_points(), 0u);
  EXPECT_EQ(counters.repaired->value(), 1u);  // the late 14
  EXPECT_EQ(counters.dropped->value(), 0u);
}

TEST(IngestGateTest, RepairDedupsAndDropsStale) {
  IngestPolicy policy;
  policy.mode = IngestMode::kRepair;
  policy.reorder_window_s = 5.0;
  const IngestCounters counters = IngestCounters::ForInstance("gate-dedup");
  IngestGate gate(policy, counters);
  std::vector<TimedPoint> admitted;
  EXPECT_TRUE(gate.Admit({10.0, 0.0, 0.0}, &admitted).ok());
  EXPECT_TRUE(gate.Admit({10.0, 9.0, 9.0}, &admitted).ok());  // dup in buffer
  EXPECT_TRUE(gate.Admit({30.0, 0.0, 0.0}, &admitted).ok());  // releases 10
  EXPECT_TRUE(gate.Admit({10.0, 0.0, 0.0}, &admitted).ok());  // dup released
  EXPECT_TRUE(gate.Admit({3.0, 0.0, 0.0}, &admitted).ok());   // beyond repair
  gate.Flush(&admitted);
  EXPECT_EQ(Times(admitted), (std::vector<double>{10.0, 30.0}));
  EXPECT_EQ(counters.repaired->value(), 2u);
  EXPECT_EQ(counters.dropped->value(), 1u);
}

TEST(IngestGateTest, WindowZeroDegeneratesToDedup) {
  IngestPolicy policy;
  policy.mode = IngestMode::kRepair;
  const IngestCounters counters = IngestCounters::ForInstance("gate-window0");
  IngestGate gate(policy, counters);
  std::vector<TimedPoint> admitted;
  EXPECT_TRUE(gate.Admit({1.0, 0.0, 0.0}, &admitted).ok());
  EXPECT_TRUE(gate.Admit({1.0, 5.0, 5.0}, &admitted).ok());
  EXPECT_TRUE(gate.Admit({2.0, 0.0, 0.0}, &admitted).ok());
  EXPECT_EQ(Times(admitted), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(gate.held_points(), 0u);  // window 0: nothing is held back
  EXPECT_EQ(counters.repaired->value(), 1u);
}

TEST(IngestGateTest, QuarantineAfterConsecutiveFaults) {
  IngestPolicy policy;
  policy.mode = IngestMode::kReject;
  policy.quarantine_after = 3;
  const IngestCounters counters = IngestCounters::ForInstance("gate-quar");
  IngestGate gate(policy, counters);
  std::vector<TimedPoint> admitted;
  EXPECT_TRUE(gate.Admit({1.0, 0.0, 0.0}, &admitted).ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(gate.Admit({0.0, 0.0, 0.0}, &admitted).code(),
              StatusCode::kInvalidArgument)
        << i;
  }
  EXPECT_TRUE(gate.quarantined());
  // Even a clean fix is refused once quarantined.
  EXPECT_EQ(gate.Admit({5.0, 0.0, 0.0}, &admitted).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(counters.quarantined->value(), 1u);
  EXPECT_EQ(Times(admitted), (std::vector<double>{1.0}));
}

TEST(IngestGateTest, CleanFixResetsQuarantineCounter) {
  IngestPolicy policy;
  policy.mode = IngestMode::kDropAndCount;
  policy.quarantine_after = 3;
  IngestGate gate = MakeGate(policy, "gate-quar-reset");
  std::vector<TimedPoint> admitted;
  EXPECT_TRUE(gate.Admit({1.0, 0.0, 0.0}, &admitted).ok());
  EXPECT_TRUE(gate.Admit({0.0, 0.0, 0.0}, &admitted).ok());  // fault 1
  EXPECT_TRUE(gate.Admit({0.5, 0.0, 0.0}, &admitted).ok());  // fault 2
  EXPECT_TRUE(gate.Admit({2.0, 0.0, 0.0}, &admitted).ok());  // clean: reset
  EXPECT_TRUE(gate.Admit({0.0, 0.0, 0.0}, &admitted).ok());  // fault 1 again
  EXPECT_FALSE(gate.quarantined());
}

TEST(FleetCompressorTest, GateShieldsCompressorFromDirtyFeed) {
  IngestPolicy policy;
  policy.mode = IngestMode::kRepair;
  policy.reorder_window_s = 100.0;
  std::vector<TimedPoint> out;
  FleetCompressor fleet(
      [] {
        return std::make_unique<OpeningWindowStream>(
            1000.0, algo::BreakPolicy::kNormal, StreamCriterion::kSynchronized);
      },
      [&out](const std::string&, const TimedPoint& point) {
        out.push_back(point);
        return Status::Ok();
      },
      policy, "fleet-shield-test");
  const double dirty_times[] = {0.0, 50.0, 20.0, 50.0, kNan, 80.0, 10.0};
  for (double t : dirty_times) {
    ASSERT_TRUE(fleet.Push("car", {t, t, 0.0}).ok()) << t;
  }
  ASSERT_TRUE(fleet.FinishAll().ok());
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1].t, out[i].t);
  }
  EXPECT_EQ(out.front().t, 0.0);
  EXPECT_EQ(out.back().t, 80.0);
}

TEST(FleetCompressorTest, PolicyOverloadExposesCounters) {
  TrajectoryStore store(Codec::kRaw);
  IngestPolicy policy;
  policy.mode = IngestMode::kDropAndCount;
  FleetCompressor fleet(
      [] {
        return std::make_unique<OpeningWindowStream>(
            5.0, algo::BreakPolicy::kNormal, StreamCriterion::kSynchronized);
      },
      &store, policy, "fleet-policy-test");
  EXPECT_EQ(fleet.policy().mode, IngestMode::kDropAndCount);
  ASSERT_TRUE(fleet.Push("car", {0.0, 0.0, 0.0}).ok());
  ASSERT_TRUE(fleet.Push("car", {0.0, 1.0, 1.0}).ok());  // dup: dropped
  ASSERT_TRUE(fleet.Push("car", {kNan, 1.0, 1.0}).ok());
  ASSERT_TRUE(fleet.Push("car", {5.0, 1.0, 1.0}).ok());
  ASSERT_TRUE(fleet.FinishAll().ok());
  EXPECT_EQ(fleet.ingest_dropped(), 2u);
  EXPECT_EQ(fleet.ingest_repaired(), 0u);
  EXPECT_EQ(fleet.ingest_quarantined(), 0u);
  const Result<Trajectory> trajectory = store.Get("car");
  ASSERT_TRUE(trajectory.ok());
  EXPECT_EQ(trajectory->size(), 2u);
}

TEST(FleetCompressorTest, DefaultPolicyStillRejects) {
  TrajectoryStore store(Codec::kRaw);
  FleetCompressor fleet(
      [] {
        return std::make_unique<OpeningWindowStream>(
            5.0, algo::BreakPolicy::kNormal, StreamCriterion::kSynchronized);
      },
      &store);
  ASSERT_TRUE(fleet.Push("car", {1.0, 0.0, 0.0}).ok());
  EXPECT_EQ(fleet.Push("car", {1.0, 0.0, 0.0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet.Push("car", {2.0, kNan, 0.0}).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(fleet.FinishAll().ok());
}

}  // namespace
}  // namespace stcomp
