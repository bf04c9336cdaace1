// ShardedFleetCompressor (DESIGN.md §16): the differential property the
// whole design rests on — per-object output of the sharded engine equals
// a single FleetCompressor fed the same per-object sequences — plus
// backpressure accounting, async error surfacing, cross-shard /objectz
// aggregation, the STSM checkpoint round trip (including the reshard
// refusal), and durable mode over a PartitionedSegmentStore.

#include "stcomp/stream/sharded_fleet.h"

#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "stcomp/sim/random.h"
#include "stcomp/store/codec.h"
#include "stcomp/store/partitioned_store.h"
#include "stcomp/store/trajectory_store.h"
#include "stcomp/stream/fleet_compressor.h"
#include "stcomp/stream/opening_window_stream.h"
#include "test_util.h"

namespace stcomp {
namespace {

std::unique_ptr<OnlineCompressor> MakeOpw() {
  return std::make_unique<OpeningWindowStream>(
      25.0, algo::BreakPolicy::kNormal, StreamCriterion::kSynchronized);
}

ShardedFleetOptions FourShards(const std::string& instance) {
  ShardedFleetOptions options;
  options.num_shards = 4;
  options.queue_capacity = 64;
  options.max_batch = 16;
  options.instance = instance;
  return options;
}

// One interleaved fleet feed: (object id, fix) in global arrival order,
// per-object subsequences in time order.
using Feed = std::vector<std::pair<std::string, TimedPoint>>;

std::vector<Trajectory> ObjectWalks(size_t objects, size_t fixes,
                                    uint64_t seed) {
  std::vector<Trajectory> walks;
  walks.reserve(objects);
  for (size_t i = 0; i < objects; ++i) {
    walks.push_back(
        testutil::RandomWalk(static_cast<int>(fixes), seed + i));
  }
  return walks;
}

Feed UniformFeed(const std::vector<Trajectory>& walks) {
  Feed feed;
  const size_t fixes = walks.empty() ? 0 : walks[0].size();
  for (size_t k = 0; k < fixes; ++k) {
    for (size_t i = 0; i < walks.size(); ++i) {
      feed.emplace_back("veh-" + std::to_string(i), walks[i].points()[k]);
    }
  }
  return feed;
}

// Seeded Zipf(s=1) arrival order: hot objects dominate the interleaving
// while every object's own fixes stay in time order.
Feed ZipfFeed(const std::vector<Trajectory>& walks, uint64_t seed) {
  std::vector<double> cdf(walks.size());
  double total = 0.0;
  for (size_t i = 0; i < walks.size(); ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cdf[i] = total;
  }
  Rng rng(seed);
  std::vector<size_t> next(walks.size(), 0);
  size_t remaining = 0;
  for (const Trajectory& walk : walks) {
    remaining += walk.size();
  }
  Feed feed;
  feed.reserve(remaining);
  while (remaining > 0) {
    const double u = rng.NextDouble() * total;
    size_t pick = 0;
    while (pick + 1 < cdf.size() && cdf[pick] < u) {
      ++pick;
    }
    // Exhausted objects pass their draw to the next live one.
    size_t scanned = 0;
    while (next[pick] >= walks[pick].size() && scanned < walks.size()) {
      pick = (pick + 1) % walks.size();
      ++scanned;
    }
    if (next[pick] >= walks[pick].size()) {
      break;
    }
    feed.emplace_back("veh-" + std::to_string(pick),
                      walks[pick].points()[next[pick]++]);
    --remaining;
  }
  return feed;
}

// Pushes `feed` through `producers` threads, each owning a disjoint
// object subset (object index mod producers) so per-object order is
// preserved end to end.
void PushConcurrently(ShardedFleetCompressor* engine, const Feed& feed,
                      size_t producers) {
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (size_t p = 0; p < producers; ++p) {
    threads.emplace_back([engine, &feed, p, producers] {
      for (const auto& [id, fix] : feed) {
        // Owner = numeric suffix mod producers (ids are "veh-<n>").
        const size_t index = std::stoul(id.substr(4));
        if (index % producers != p) {
          continue;
        }
        ASSERT_TRUE(engine->Push(id, fix).ok());
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
}

// Committed per-object outputs: id → points, from any TrajectoryStore
// reader. Missing objects simply don't appear.
std::map<std::string, std::vector<TimedPoint>> Committed(
    const std::vector<Trajectory>& walks,
    const std::function<Result<Trajectory>(const std::string&)>& get) {
  std::map<std::string, std::vector<TimedPoint>> out;
  for (size_t i = 0; i < walks.size(); ++i) {
    const std::string id = "veh-" + std::to_string(i);
    const Result<Trajectory> trajectory = get(id);
    if (trajectory.ok()) {
      out[id] = trajectory->points();
    }
  }
  return out;
}

void ExpectSameOutputs(
    const std::map<std::string, std::vector<TimedPoint>>& sharded,
    const std::map<std::string, std::vector<TimedPoint>>& reference) {
  ASSERT_EQ(sharded.size(), reference.size());
  for (const auto& [id, expected] : reference) {
    const auto it = sharded.find(id);
    ASSERT_NE(it, sharded.end()) << id;
    ASSERT_EQ(it->second.size(), expected.size()) << id;
    for (size_t k = 0; k < expected.size(); ++k) {
      // Bitwise equality: both engines run the identical per-object
      // computation, so even the doubles must agree exactly.
      EXPECT_EQ(it->second[k].t, expected[k].t) << id << " point " << k;
      EXPECT_EQ(it->second[k].position.x, expected[k].position.x) << id;
      EXPECT_EQ(it->second[k].position.y, expected[k].position.y) << id;
    }
  }
}

void RunDifferential(const Feed& feed, const std::vector<Trajectory>& walks,
                     const std::string& instance) {
  ShardedFleetCompressor engine(MakeOpw, FourShards(instance));
  PushConcurrently(&engine, feed, 3);
  ASSERT_TRUE(engine.FinishAll().ok());

  TrajectoryStore reference_store;
  FleetCompressor reference(MakeOpw, &reference_store, {},
                            instance + "-reference");
  for (const auto& [id, fix] : feed) {
    ASSERT_TRUE(reference.Push(id, fix).ok());
  }
  ASSERT_TRUE(reference.FinishAll().ok());

  ExpectSameOutputs(
      Committed(walks,
                [&engine](const std::string& id) { return engine.Get(id); }),
      Committed(walks, [&reference_store](const std::string& id) {
        return reference_store.Get(id);
      }));
  EXPECT_EQ(engine.fixes_in(), feed.size());
  EXPECT_EQ(engine.fixes_in(), reference.fixes_in());
  EXPECT_EQ(engine.fixes_out(), reference.fixes_out());
}

TEST(ShardedFleetTest, UniformDifferentialMatchesSingleShard) {
  const std::vector<Trajectory> walks = ObjectWalks(24, 60, 101);
  RunDifferential(UniformFeed(walks), walks, "diff-uniform");
}

TEST(ShardedFleetTest, ZipfSkewDifferentialMatchesSingleShard) {
  // The seeded Zipf property test from ISSUE 8: a skewed interleaving
  // (hot head objects) still yields per-object outputs identical to the
  // single-shard engine.
  const std::vector<Trajectory> walks = ObjectWalks(24, 60, 202);
  RunDifferential(ZipfFeed(walks, 777), walks, "diff-zipf");
}

TEST(ShardedFleetTest, FinishObjectIsSynchronousAndReportsNotFound) {
  ShardedFleetCompressor engine(MakeOpw, FourShards("finish-sync"));
  const Trajectory walk = testutil::RandomWalk(40, 5);
  for (const TimedPoint& fix : walk.points()) {
    ASSERT_TRUE(engine.Push("veh-0", fix).ok());
  }
  EXPECT_EQ(engine.FinishObject("no-such-object").code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(engine.FinishObject("veh-0").ok());
  // The tail is flushed: last input point is committed (opening-window
  // contract), visible immediately after the synchronous finish. The
  // in-memory store uses the delta codec, so compare at its quantum.
  const Result<Trajectory> committed = engine.Get("veh-0");
  ASSERT_TRUE(committed.ok());
  EXPECT_NEAR(committed->points().back().t, walk.points().back().t,
              kTimeQuantumS);
  // Finishing twice: the stream is gone.
  EXPECT_EQ(engine.FinishObject("veh-0").code(), StatusCode::kNotFound);
}

// Passthrough that sleeps per fix: makes the worker measurably slower
// than the producer so a tiny queue must backpressure.
class SlowPassthrough : public OnlineCompressor {
 public:
  Status Push(const TimedPoint& point,
              std::vector<TimedPoint>* out) override {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    out->push_back(point);
    return Status::Ok();
  }
  void Finish(std::vector<TimedPoint>*) override {}
  size_t buffered_points() const override { return 0; }
  std::string_view name() const override { return "slow-passthrough"; }
};

TEST(ShardedFleetTest, BackpressureBoundsQueueAndIsCounted) {
  ShardedFleetOptions options;
  options.num_shards = 1;
  options.queue_capacity = 4;
  options.max_batch = 2;
  options.instance = "backpressure";
  ShardedFleetCompressor engine(
      [] { return std::make_unique<SlowPassthrough>(); }, options);
  const Trajectory walk = testutil::RandomWalk(200, 9);
  for (const TimedPoint& fix : walk.points()) {
    ASSERT_TRUE(engine.Push("veh-0", fix).ok());
  }
  ASSERT_TRUE(engine.FinishAll().ok());
  const std::vector<ShardedFleetCompressor::ShardStats> stats =
      engine.StatsSnapshot();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].enqueued, 200u);
  EXPECT_EQ(stats[0].queue_depth, 0u);
  EXPECT_EQ(stats[0].fixes_in, 200u);
  EXPECT_EQ(stats[0].fixes_out, 200u);  // Passthrough commits everything.
  EXPECT_TRUE(stats[0].error.ok());
  // 200 fixes against a 4-deep queue and a 200µs/fix worker: producers
  // must have waited for space (deterministically many times).
  EXPECT_GT(stats[0].backpressure_waits, 0u);
  EXPECT_GT(stats[0].batches, 1u);
}

TEST(ShardedFleetTest, AsyncErrorsStickAndSurfaceOnFlush) {
  ShardedFleetCompressor engine(MakeOpw, FourShards("async-errors"));
  ASSERT_TRUE(engine.Push("veh-0", {10.0, {0.0, 0.0}}).ok());
  // Out of order under the default kReject policy: the shard records the
  // error asynchronously; the enqueue itself succeeds.
  ASSERT_TRUE(engine.Push("veh-0", {5.0, {1.0, 0.0}}).ok());
  // A sibling object on any shard still processes cleanly.
  ASSERT_TRUE(engine.Push("veh-1", {1.0, {0.0, 0.0}}).ok());
  const Status flushed = engine.Flush();
  EXPECT_EQ(flushed.code(), StatusCode::kInvalidArgument) << flushed;
  // Sticky: a later flush still reports it.
  EXPECT_EQ(engine.Flush().code(), StatusCode::kInvalidArgument);
  const std::vector<ShardedFleetCompressor::ShardStats> stats =
      engine.StatsSnapshot();
  size_t shards_with_errors = 0;
  for (const auto& shard : stats) {
    if (!shard.error.ok()) {
      ++shards_with_errors;
    }
  }
  EXPECT_EQ(shards_with_errors, 1u);  // Only veh-0's shard.
  EXPECT_EQ(engine.fixes_in(), 3u);  // The rejected fix still counted in.
}

TEST(ShardedFleetTest, ObjectsJsonAggregatesAcrossShardsAndLimits) {
  ShardedFleetCompressor engine(MakeOpw, FourShards("objectz-agg"));
  for (int i = 0; i < 10; ++i) {
    const std::string id = "veh-" + std::to_string(i);
    ASSERT_TRUE(engine.Push(id, {1.0, {0.0, 0.0}}).ok());
    ASSERT_TRUE(engine.Push(id, {2.0, {5.0, 0.0}}).ok());
  }
  ASSERT_TRUE(engine.Flush().ok());
  const std::string all = engine.RenderObjectsJson();
  EXPECT_NE(all.find("\"shards\":4"), std::string::npos);
  EXPECT_NE(all.find("\"objects_total\":10"), std::string::npos);
  EXPECT_NE(all.find("\"truncated\":false"), std::string::npos);
  for (int i = 0; i < 10; ++i) {
    EXPECT_NE(all.find("\"object_id\":\"veh-" + std::to_string(i) + "\""),
              std::string::npos);
  }
  const std::string limited = engine.RenderObjectsJson(3);
  EXPECT_NE(limited.find("\"truncated\":true"), std::string::npos);
  EXPECT_NE(limited.find("\"objects_total\":10"), std::string::npos);
  size_t entries = 0;
  for (size_t pos = limited.find("\"object_id\"");
       pos != std::string::npos;
       pos = limited.find("\"object_id\"", pos + 1)) {
    ++entries;
  }
  EXPECT_EQ(entries, 3u);
  // Per-object stats route to the right shard's engine.
  const auto stats = engine.ObjectStats("veh-3");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->fixes_in, 2u);
  EXPECT_FALSE(engine.ObjectStats("veh-99").has_value());
  ASSERT_TRUE(engine.FinishAll().ok());
}

// Satellite regression (ISSUE 9): the cross-shard aggregate goes through
// the shared obs::JsonEscape helper — hostile object ids (quotes,
// newlines, non-ASCII) must render as valid JSON.
TEST(ShardedFleetTest, ObjectsJsonEscapesHostileIds) {
  ShardedFleetCompressor engine(MakeOpw, FourShards("objectz-escape"));
  const std::string hostile = "veh-\"q\"\n\xc3\xa9";
  ASSERT_TRUE(engine.Push(hostile, {1.0, {0.0, 0.0}}).ok());
  ASSERT_TRUE(engine.Push(hostile, {2.0, {5.0, 0.0}}).ok());
  ASSERT_TRUE(engine.Flush().ok());
  const std::string json = engine.RenderObjectsJson();
  EXPECT_NE(json.find("veh-\\\"q\\\"\\n\xc3\xa9"), std::string::npos) << json;
  EXPECT_EQ(json.find(hostile), std::string::npos) << json;
  ASSERT_TRUE(engine.FinishAll().ok());
}

TEST(ShardedFleetTest, CheckpointRoundTripResumesIdentically) {
  const std::vector<Trajectory> walks = ObjectWalks(12, 40, 303);
  const Feed feed = UniformFeed(walks);
  const size_t cut = feed.size() / 2;

  // Uninterrupted run.
  ShardedFleetCompressor full(MakeOpw, FourShards("ckpt-full"));
  for (const auto& [id, fix] : feed) {
    ASSERT_TRUE(full.Push(id, fix).ok());
  }
  ASSERT_TRUE(full.FinishAll().ok());

  // Checkpoint at the cut, restore into a fresh engine, resume.
  std::string image;
  {
    ShardedFleetCompressor first(MakeOpw, FourShards("ckpt-first"));
    for (size_t i = 0; i < cut; ++i) {
      ASSERT_TRUE(first.Push(feed[i].first, feed[i].second).ok());
    }
    ASSERT_TRUE(first.SaveState(&image).ok());
  }
  ShardedFleetCompressor resumed(MakeOpw, FourShards("ckpt-resumed"));
  ASSERT_TRUE(resumed.RestoreState(image).ok());
  for (size_t i = cut; i < feed.size(); ++i) {
    ASSERT_TRUE(resumed.Push(feed[i].first, feed[i].second).ok());
  }
  ASSERT_TRUE(resumed.FinishAll().ok());

  // Caveat: the restored engine's stores only hold post-restore commits
  // (the store is durable separately), so compare only the resumed tail:
  // every object's resumed output must be a suffix of the full run's.
  for (size_t i = 0; i < walks.size(); ++i) {
    const std::string id = "veh-" + std::to_string(i);
    const Result<Trajectory> full_out = full.Get(id);
    const Result<Trajectory> resumed_out = resumed.Get(id);
    ASSERT_TRUE(full_out.ok()) << id;
    if (!resumed_out.ok()) {
      continue;  // Object committed nothing after the cut.
    }
    const std::vector<TimedPoint>& expect = full_out->points();
    const std::vector<TimedPoint>& got = resumed_out->points();
    ASSERT_LE(got.size(), expect.size()) << id;
    const size_t offset = expect.size() - got.size();
    for (size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].t, expect[offset + k].t) << id << " point " << k;
      EXPECT_EQ(got[k].position.x, expect[offset + k].position.x) << id;
      EXPECT_EQ(got[k].position.y, expect[offset + k].position.y) << id;
    }
  }
}

TEST(ShardedFleetTest, RestoreRefusesReshardedManifest) {
  ShardedFleetCompressor four(MakeOpw, FourShards("reshard-four"));
  ASSERT_TRUE(four.Push("veh-0", {1.0, {0.0, 0.0}}).ok());
  std::string image;
  ASSERT_TRUE(four.SaveState(&image).ok());

  ShardedFleetOptions two = FourShards("reshard-two");
  two.num_shards = 2;
  ShardedFleetCompressor resharded(MakeOpw, two);
  const Status status = resharded.RestoreState(image);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(
      status.message().find("resharding requires an explicit migration"),
      std::string_view::npos)
      << status.ToString();
}

TEST(ShardedFleetTest, DurableModeCommitsEveryShardAndRecovers) {
  const std::string dir =
      ::testing::TempDir() + "sharded_fleet_durable";
  std::filesystem::remove_all(dir);
  const std::vector<Trajectory> walks = ObjectWalks(16, 30, 404);
  const Feed feed = UniformFeed(walks);

  {
    PartitionedSegmentStore::Options store_options;
    store_options.num_shards = 4;
    store_options.shard_options.codec = Codec::kRaw;
    PartitionedSegmentStore store(store_options);
    ASSERT_TRUE(store.Open(dir).ok());
    ShardedFleetOptions options = FourShards("durable");
    options.num_shards = 0;  // Adopt the store's layout.
    ShardedFleetCompressor engine(MakeOpw, &store, options);
    EXPECT_EQ(engine.num_shards(), 4u);
    PushConcurrently(&engine, feed, 2);
    ASSERT_TRUE(engine.FinishAll().ok());
    // Engine commits on every batch + FinishAll; nothing staged remains.
    for (size_t i = 0; i < store.num_shards(); ++i) {
      EXPECT_EQ(store.shard(i).staged_records(), 0u) << "shard " << i;
    }
  }

  // Reference: single-shard run over the same feed.
  TrajectoryStore reference_store;
  FleetCompressor reference(MakeOpw, &reference_store, {},
                            "durable-reference");
  for (const auto& [id, fix] : feed) {
    ASSERT_TRUE(reference.Push(id, fix).ok());
  }
  ASSERT_TRUE(reference.FinishAll().ok());

  // Crash-free reopen: parallel recovery lands every object exactly where
  // the single-shard reference puts it.
  PartitionedSegmentStore reopened;
  ASSERT_TRUE(reopened.Open(dir).ok());
  EXPECT_EQ(reopened.num_shards(), 4u);
  EXPECT_TRUE(reopened.recovery_clean()) << reopened.DescribeRecovery();
  ExpectSameOutputs(
      Committed(walks,
                [&reopened](const std::string& id) {
                  return reopened.Get(id);
                }),
      Committed(walks, [&reference_store](const std::string& id) {
        return reference_store.Get(id);
      }));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace stcomp
