// Checkpoint/restore matrix (DESIGN.md §13): for every checkpointing
// compressor, interrupting a stream with SaveState + RestoreState into a
// freshly constructed instance must be invisible — the resumed run's output
// is bit-for-bit identical to an uninterrupted one. Hostile or out-of-order
// images must come back as a clean Status, never an abort.

#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stcomp/algo/registry.h"
#include "stcomp/store/trajectory_store.h"
#include "stcomp/store/varint.h"
#include "stcomp/stream/batch_adapter.h"
#include "stcomp/stream/checkpoint.h"
#include "stcomp/stream/dead_reckoning_stream.h"
#include "stcomp/stream/fleet_compressor.h"
#include "stcomp/stream/ingest_policy.h"
#include "stcomp/stream/opening_window_stream.h"
#include "stcomp/stream/squish_stream.h"
#include "test_util.h"

namespace stcomp {
namespace {

using testutil::RandomWalk;

using CompressorFactory = std::function<std::unique_ptr<OnlineCompressor>()>;

void ExpectBitIdentical(const std::vector<TimedPoint>& a,
                        const std::vector<TimedPoint>& b,
                        const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(TimedPoint)), 0)
        << what << " point " << i;
  }
}

// Streams `points` through a fresh compressor, interrupting after
// `split` pushes with a save/restore into another fresh instance, and
// checks the total output matches the uninterrupted reference run.
void CheckSplitResume(const CompressorFactory& factory,
                      const std::vector<TimedPoint>& points, size_t split,
                      const std::string& what) {
  std::vector<TimedPoint> reference;
  {
    std::unique_ptr<OnlineCompressor> compressor = factory();
    for (const TimedPoint& point : points) {
      ASSERT_TRUE(compressor->Push(point, &reference).ok()) << what;
    }
    compressor->Finish(&reference);
  }

  std::vector<TimedPoint> resumed;
  std::string state;
  {
    std::unique_ptr<OnlineCompressor> first = factory();
    for (size_t i = 0; i < split; ++i) {
      ASSERT_TRUE(first->Push(points[i], &resumed).ok()) << what;
    }
    ASSERT_TRUE(first->SaveState(&state).ok()) << what;
    // `first` is destroyed here — the "process" died after checkpointing.
  }
  {
    std::unique_ptr<OnlineCompressor> second = factory();
    ASSERT_TRUE(second->RestoreState(state).ok()) << what;
    for (size_t i = split; i < points.size(); ++i) {
      ASSERT_TRUE(second->Push(points[i], &resumed).ok()) << what;
    }
    second->Finish(&resumed);
  }
  ExpectBitIdentical(reference, resumed, what);
}

// Every split point of a modest stream, for one factory.
void CheckEverySplit(const CompressorFactory& factory,
                     const std::string& what) {
  const std::vector<TimedPoint> points = RandomWalk(40, 77).points();
  for (size_t split = 0; split <= points.size(); split += 7) {
    CheckSplitResume(factory, points, split,
                     what + " split=" + std::to_string(split));
  }
}

TEST(CheckpointTest, OpeningWindowStreamResumesBitIdentical) {
  CheckEverySplit(
      [] {
        return std::make_unique<OpeningWindowStream>(
            25.0, algo::BreakPolicy::kNormal, StreamCriterion::kSynchronized);
      },
      "opening-window");
}

TEST(CheckpointTest, DeadReckoningStreamResumesBitIdentical) {
  CheckEverySplit([] { return std::make_unique<DeadReckoningStream>(30.0); },
                  "dead-reckoning");
}

TEST(CheckpointTest, BatchAdapterResumesBitIdentical) {
  CheckEverySplit(
      [] {
        const algo::AlgorithmInfo* info = algo::FindAlgorithm("td-tr").value();
        algo::AlgorithmParams params;
        params.epsilon_m = 40.0;
        return std::make_unique<BatchAdapter>(*info, params);
      },
      "batch-adapter");
}

TEST(CheckpointTest, SquishStreamResumesBitIdentical) {
  CheckEverySplit([] { return std::make_unique<SquishStream>(8, 0.0); },
                  "squish-capacity");
  CheckEverySplit([] { return std::make_unique<SquishStream>(0, 60.0); },
                  "squish-error-driven");
}

// A FleetCompressor sink that collects every committed point.
FleetCompressor::AppendSink CollectInto(std::vector<TimedPoint>* out) {
  return [out](const std::string&, const TimedPoint& point) {
    out->push_back(point);
    return Status::Ok();
  };
}

std::unique_ptr<OnlineCompressor> MakeOpwTr() {
  return std::make_unique<OpeningWindowStream>(
      25.0, algo::BreakPolicy::kNormal, StreamCriterion::kSynchronized);
}

IngestPolicy RepairPolicy(double reorder_window_s) {
  IngestPolicy policy;
  policy.mode = IngestMode::kRepair;
  policy.reorder_window_s = reorder_window_s;
  return policy;
}

TEST(CheckpointTest, FleetCompressorResumesHeldFixesBitIdenticalUnderRepair) {
  // Repair mode with a reorder window keeps fixes *held inside the gate*
  // across the checkpoint — exactly the state a restart must not lose.
  const IngestPolicy policy = RepairPolicy(20.0);
  const std::vector<TimedPoint> points = RandomWalk(40, 77).points();
  std::vector<TimedPoint> reference;
  {
    FleetCompressor fleet(MakeOpwTr, CollectInto(&reference), policy,
                          "ckpt-fleet-repair");
    for (const TimedPoint& point : points) {
      ASSERT_TRUE(fleet.Push("walker", point).ok());
    }
    ASSERT_TRUE(fleet.FinishAll().ok());
  }
  for (size_t split = 0; split <= points.size(); split += 7) {
    const std::string what = "fleet-repair split=" + std::to_string(split);
    std::vector<TimedPoint> resumed;
    std::string image;
    {
      FleetCompressor first(MakeOpwTr, CollectInto(&resumed), policy,
                            "ckpt-fleet-repair");
      for (size_t i = 0; i < split; ++i) {
        ASSERT_TRUE(first.Push("walker", points[i]).ok()) << what;
      }
      ASSERT_TRUE(first.SaveState(&image).ok()) << what;
      // `first` is destroyed here — the "process" died after checkpointing.
    }
    {
      FleetCompressor second(MakeOpwTr, CollectInto(&resumed), policy,
                             "ckpt-fleet-repair");
      ASSERT_TRUE(second.RestoreState(image).ok()) << what;
      for (size_t i = split; i < points.size(); ++i) {
        ASSERT_TRUE(second.Push("walker", points[i]).ok()) << what;
      }
      ASSERT_TRUE(second.FinishAll().ok()) << what;
    }
    ExpectBitIdentical(reference, resumed, what);
  }
}

TEST(CheckpointTest, ConfigEchoMismatchIsInvalidArgument) {
  OpeningWindowStream a(25.0, algo::BreakPolicy::kNormal,
                        StreamCriterion::kSynchronized);
  std::vector<TimedPoint> out;
  ASSERT_TRUE(a.Push(TimedPoint(1.0, 0.0, 0.0), &out).ok());
  std::string state;
  ASSERT_TRUE(a.SaveState(&state).ok());

  OpeningWindowStream different_epsilon(30.0, algo::BreakPolicy::kNormal,
                                        StreamCriterion::kSynchronized);
  EXPECT_EQ(different_epsilon.RestoreState(state).code(),
            StatusCode::kInvalidArgument);

  DeadReckoningStream different_kind(25.0);
  EXPECT_EQ(different_kind.RestoreState(state).code(),
            StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, MalformedBlobIsDataLoss) {
  OpeningWindowStream a(25.0, algo::BreakPolicy::kNormal,
                        StreamCriterion::kSynchronized);
  std::vector<TimedPoint> out;
  ASSERT_TRUE(a.Push(TimedPoint(1.0, 0.0, 0.0), &out).ok());
  std::string state;
  ASSERT_TRUE(a.SaveState(&state).ok());

  OpeningWindowStream b(25.0, algo::BreakPolicy::kNormal,
                        StreamCriterion::kSynchronized);
  EXPECT_EQ(b.RestoreState(state.substr(0, state.size() - 3)).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(b.RestoreState(state + "xx").code(), StatusCode::kDataLoss);
}

// A compressor that never opted into checkpointing reports kUnimplemented,
// and FleetCompressor propagates it instead of writing a partial image.
class NoCheckpointCompressor final : public OnlineCompressor {
 public:
  Status Push(const TimedPoint&, std::vector<TimedPoint>*) override {
    return Status();
  }
  void Finish(std::vector<TimedPoint>*) override {}
  size_t buffered_points() const override { return 0; }
  std::string_view name() const override { return "no-checkpoint"; }
};

TEST(CheckpointTest, UnimplementedPropagates) {
  NoCheckpointCompressor bare;
  std::string state;
  EXPECT_EQ(bare.SaveState(&state).code(), StatusCode::kUnimplemented);
  EXPECT_EQ(bare.RestoreState("").code(), StatusCode::kUnimplemented);

  std::vector<TimedPoint> committed;
  FleetCompressor fleet(
      [] { return std::make_unique<NoCheckpointCompressor>(); },
      CollectInto(&committed), IngestPolicy{}, "ckpt-unimpl");
  ASSERT_TRUE(fleet.Push("car", TimedPoint(1.0, 0.0, 0.0)).ok());
  state.clear();
  EXPECT_EQ(fleet.SaveState(&state).code(), StatusCode::kUnimplemented);
  EXPECT_TRUE(state.empty());
}

TEST(CheckpointTest, IngestGateResumesHeldFixes) {
  IngestPolicy policy;
  policy.mode = IngestMode::kRepair;
  policy.reorder_window_s = 100.0;  // Everything stays held until Flush.
  IngestGate gate(policy, IngestCounters::ForInstance("ckpt-gate"));
  std::vector<TimedPoint> admitted;
  ASSERT_TRUE(gate.Admit(TimedPoint(1.0, 0.0, 0.0), &admitted).ok());
  ASSERT_TRUE(gate.Admit(TimedPoint(3.0, 1.0, 1.0), &admitted).ok());
  ASSERT_TRUE(gate.Admit(TimedPoint(2.0, 2.0, 2.0), &admitted).ok());
  ASSERT_TRUE(admitted.empty());
  std::string state;
  ASSERT_TRUE(gate.SaveState(&state).ok());

  IngestGate restored(policy, IngestCounters::ForInstance("ckpt-gate-2"));
  ASSERT_TRUE(restored.RestoreState(state).ok());
  EXPECT_EQ(restored.held_points(), 3u);
  std::vector<TimedPoint> flushed;
  restored.Flush(&flushed);
  ASSERT_EQ(flushed.size(), 3u);
  EXPECT_EQ(flushed[0].t, 1.0);
  EXPECT_EQ(flushed[1].t, 2.0);  // Late fix re-sorted, not lost.
  EXPECT_EQ(flushed[2].t, 3.0);

  // Policy echo mismatch refuses.
  IngestPolicy other = policy;
  other.reorder_window_s = 5.0;
  IngestGate wrong(other, IngestCounters::ForInstance("ckpt-gate-3"));
  EXPECT_EQ(wrong.RestoreState(state).code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, FleetCompressorResumesBitIdenticalStore) {
  const auto factory = [] {
    return std::make_unique<OpeningWindowStream>(
        25.0, algo::BreakPolicy::kNormal, StreamCriterion::kSynchronized);
  };
  IngestPolicy policy;
  policy.mode = IngestMode::kRepair;
  policy.reorder_window_s = 15.0;

  // Interleaved two-object feed.
  const std::vector<TimedPoint> walk_a = RandomWalk(40, 5).points();
  const std::vector<TimedPoint> walk_b = RandomWalk(40, 6).points();
  struct Fix {
    std::string id;
    TimedPoint point;
  };
  std::vector<Fix> feed;
  for (size_t i = 0; i < walk_a.size(); ++i) {
    feed.push_back({"bus-a", walk_a[i]});
    feed.push_back({"bus-b", walk_b[i]});
  }

  // Reference: one uninterrupted fleet.
  TrajectoryStore store_ref(Codec::kRaw);
  {
    FleetCompressor fleet(factory, &store_ref, policy, "ckpt-fleet-ref");
    for (const Fix& fix : feed) {
      ASSERT_TRUE(fleet.Push(fix.id, fix.point).ok());
    }
    ASSERT_TRUE(fleet.FinishAll().ok());
  }

  // Interrupted: checkpoint mid-feed, restore into a brand-new fleet.
  TrajectoryStore store_resumed(Codec::kRaw);
  std::string image;
  const size_t split = feed.size() / 2;
  std::vector<FleetCompressor::ObjectInfo> saved_objects;
  {
    FleetCompressor fleet(factory, &store_resumed, policy, "ckpt-fleet-1");
    for (size_t i = 0; i < split; ++i) {
      ASSERT_TRUE(fleet.Push(feed[i].id, feed[i].point).ok());
    }
    ASSERT_TRUE(fleet.SaveState(&image).ok());
    EXPECT_EQ(fleet.active_objects(), 2u);
    saved_objects = fleet.ObjectsSnapshot();
    // Fleet destroyed without FinishAll: the process died here.
  }
  {
    FleetCompressor fleet(factory, &store_resumed, policy, "ckpt-fleet-2");
    ASSERT_TRUE(fleet.RestoreState(image).ok());
    EXPECT_EQ(fleet.active_objects(), 2u);
    // The per-object lifetime counters ride in the image: /objectz after a
    // restart must report the same fixes_in/fixes_out, not zeros.
    const std::vector<FleetCompressor::ObjectInfo> restored_objects =
        fleet.ObjectsSnapshot();
    ASSERT_EQ(restored_objects.size(), saved_objects.size());
    for (size_t i = 0; i < saved_objects.size(); ++i) {
      EXPECT_EQ(restored_objects[i].object_id, saved_objects[i].object_id);
      EXPECT_EQ(restored_objects[i].fixes_in, saved_objects[i].fixes_in);
      EXPECT_GT(restored_objects[i].fixes_in, 0u);
      EXPECT_EQ(restored_objects[i].fixes_out, saved_objects[i].fixes_out);
    }
    for (size_t i = split; i < feed.size(); ++i) {
      ASSERT_TRUE(fleet.Push(feed[i].id, feed[i].point).ok());
    }
    ASSERT_TRUE(fleet.FinishAll().ok());
  }

  const Result<std::string> ref_image = store_ref.SerializeToString();
  const Result<std::string> resumed_image = store_resumed.SerializeToString();
  ASSERT_TRUE(ref_image.ok() && resumed_image.ok());
  EXPECT_EQ(*ref_image, *resumed_image);

  // Restore refuses a fleet that has already seen fixes.
  TrajectoryStore scratch(Codec::kRaw);
  FleetCompressor busy(factory, &scratch, policy, "ckpt-fleet-busy");
  ASSERT_TRUE(busy.Push("bus-a", TimedPoint(1.0, 0.0, 0.0)).ok());
  EXPECT_EQ(busy.RestoreState(image).code(), StatusCode::kFailedPrecondition);
}

// --- Hostile and out-of-order images ---------------------------------------
//
// STCK and STSM carry no CRC, so a corrupt image reaches these readers as
// is. Each reader must refuse it with a Status, never abort.

TEST(CheckpointTest, FleetFinishRefusesOutOfOrderHeldFixes) {
  // No gate holds fixes out of time order, but a corrupt image can: swap
  // two held fixes in a real image. The restore takes it as is; finishing
  // the object then fails at the first fix the compressor refuses, and
  // what reached the sink is still in time order.
  const IngestPolicy policy = RepairPolicy(100.0);
  const TimedPoint late(2.0, 20.0, -30.0);
  const TimedPoint last(3.0, 40.0, 30.0);
  std::vector<TimedPoint> committed;
  std::string image;
  {
    FleetCompressor fleet(MakeOpwTr, CollectInto(&committed), policy,
                          "ckpt-unordered");
    for (const TimedPoint& fix : {TimedPoint(1.0, 0.0, 0.0), late, last}) {
      ASSERT_TRUE(fleet.Push("walker", fix).ok());
    }
    ASSERT_TRUE(fleet.SaveState(&image).ok());
  }
  ASSERT_TRUE(committed.empty());  // All three are held in the gate.
  std::string in_order;
  PutTimedPoint(late, &in_order);
  PutTimedPoint(last, &in_order);
  std::string swapped;
  PutTimedPoint(last, &swapped);
  PutTimedPoint(late, &swapped);
  const size_t at = image.find(in_order);
  ASSERT_NE(at, std::string::npos);
  image.replace(at, in_order.size(), swapped);

  FleetCompressor fleet(MakeOpwTr, CollectInto(&committed), policy,
                        "ckpt-unordered");
  ASSERT_TRUE(fleet.RestoreState(image).ok());
  EXPECT_EQ(fleet.FinishAll().code(), StatusCode::kInvalidArgument);
  ASSERT_FALSE(committed.empty());
  for (size_t i = 1; i < committed.size(); ++i) {
    EXPECT_LT(committed[i - 1].t, committed[i].t) << i;
  }
}

// The checkpoint fuzz seeds that golden_gen writes with one count set to
// 2^62, one per reader that reserves by a count from the image.
std::string ReadHostileSeed(const std::string& name) {
  std::ifstream file(
      std::string(STCOMP_FUZZ_CORPUS_DIR) + "/checkpoint/" + name,
      std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(file)) << "seed missing: " << name;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

TEST(CheckpointTest, HostileHeldCountIsDataLoss) {
  // GetPointVector, behind the gate state of a fleet image; golden_gen
  // writes it under a 30 s reorder window.
  std::vector<TimedPoint> committed;
  FleetCompressor fleet(MakeOpwTr, CollectInto(&committed),
                        RepairPolicy(30.0), "ckpt-hostile");
  EXPECT_EQ(fleet.RestoreState(ReadHostileSeed("hostile_held_count")).code(),
            StatusCode::kDataLoss);
}

TEST(CheckpointTest, HostileShardCountIsDataLoss) {
  const std::string image = ReadHostileSeed("hostile_shard_count");
  EXPECT_EQ(ParseShardManifest(image).status().code(), StatusCode::kDataLoss);
}

TEST(CheckpointTest, HostileSquishNodeCountIsDataLoss) {
  SquishStream squish(8, 0.0);
  EXPECT_EQ(squish.RestoreState(ReadHostileSeed("hostile_squish_nodes")).code(),
            StatusCode::kDataLoss);
}

TEST(CheckpointTest, HostileSquishFreeCountIsDataLoss) {
  SquishStream squish(8, 0.0);
  EXPECT_EQ(squish.RestoreState(ReadHostileSeed("hostile_squish_free")).code(),
            StatusCode::kDataLoss);
}

}  // namespace
}  // namespace stcomp
