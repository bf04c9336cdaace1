// Crash–recover–verify matrix (DESIGN.md §13): a deterministic SegmentStore
// workload is killed at EVERY durable-write boundary, under every crash
// fate (clean kill, short write, torn write), and recovery must come back
// to a bit-identical prefix of the reference run — the state after the
// last acknowledged commit, or one batch later when the crash hit after
// the commit marker already reached the file. Nothing else is acceptable:
// recovery loses at most the last uncommitted batch.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stcomp/store/partitioned_store.h"
#include "stcomp/store/query.h"
#include "stcomp/store/segment_store.h"
#include "stcomp/store/st_index.h"
#include "stcomp/testing/crash_plan.h"
#include "test_util.h"

namespace stcomp {
namespace {

using testing::CrashFate;
using testing::CrashFateToString;
using testing::CrashPlan;
using testing::CrashPoint;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "crash_matrix_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Post-recovery query discipline (DESIGN.md §17): index-accelerated
// range, corridor and nearest answers must equal the brute-force oracle
// bit for bit on the recovered contents.
void ExpectQueryableAfterRecovery(SegmentStore* store) {
  QueryRequest range;
  range.type = QueryType::kRange;
  range.box = {{-1e7, -1e7}, {1e7, 1e7}};
  QueryRequest corridor;
  corridor.type = QueryType::kCorridor;
  corridor.corridor = {{0.0, 0.0}, {300.0, -150.0}};
  corridor.radius_m = 5.0;
  QueryRequest nearest;
  nearest.type = QueryType::kNearest;
  nearest.point = {-2.0, -2.0};
  nearest.k = 2;
  for (const QueryRequest& request : {range, corridor, nearest}) {
    const Result<QueryAnswer> engine = store->Query(request);
    const Result<QueryAnswer> oracle = BruteForceQuery(store->store(), request);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    ASSERT_EQ(engine->hits.size(), oracle->hits.size());
    for (size_t i = 0; i < engine->hits.size(); ++i) {
      EXPECT_EQ(engine->hits[i].id, oracle->hits[i].id);
      EXPECT_EQ(engine->hits[i].first_hit_t, oracle->hits[i].first_hit_t);
      EXPECT_EQ(engine->hits[i].distance_m, oracle->hits[i].distance_m);
    }
  }
}

SegmentStore::Options MatrixOptions(WriteFaultHook hook) {
  SegmentStore::Options options;
  options.codec = Codec::kRaw;  // Bit-exact image comparison.
  options.write_hook = std::move(hook);
  return options;
}

Trajectory WalkTrajectory() {
  Trajectory trajectory =
      testutil::Traj({{0.5, -1.0, -1.0}, {1.5, -2.0, -2.0}, {2.5, -3.0, 1.0}});
  trajectory.set_name("walk");
  return trajectory;
}

// What the workload left behind: one store image per acknowledged
// durability point (Commit or Checkpoint that returned OK), and the first
// error that stopped it (OK when it ran to completion).
struct WorkloadTrace {
  std::vector<std::string> images;
  Status error;
};

// The reference workload: batched appends on two objects, a whole-
// trajectory insert, a checkpoint mid-way, and a remove — every mutation
// kind crosses every durability mechanism. Stops at the first failure
// (the injected crash); deterministic in its ops, so every crashed run is
// a prefix of the uncrashed one.
WorkloadTrace RunWorkload(SegmentStore* store) {
  WorkloadTrace trace;
  const auto snapshot = [&]() -> bool {
    const Result<std::string> image = store->store().SerializeToString();
    if (!image.ok()) {
      trace.error = image.status();
      return false;
    }
    trace.images.push_back(*image);
    return true;
  };
  const auto run = [&](const Status& status) {
    if (!status.ok()) {
      trace.error = status;
      return false;
    }
    return true;
  };

  int tick = 0;
  const auto append_batch = [&]() -> bool {
    for (int i = 0; i < 2; ++i) {
      ++tick;
      if (!run(store->Append(
              "bus-1", TimedPoint(1.0 * tick, 2.0 * tick, -1.0 * tick))) ||
          !run(store->Append(
              "bus-2", TimedPoint(1.0 * tick, -3.0 * tick, 0.5 * tick)))) {
        return false;
      }
    }
    return run(store->Commit()) && snapshot();
  };

  if (!append_batch()) return trace;
  if (!append_batch()) return trace;
  if (!run(store->Insert("walk", WalkTrajectory())) || !run(store->Commit()) ||
      !snapshot()) {
    return trace;
  }
  if (!run(store->Checkpoint()) || !snapshot()) return trace;
  if (!append_batch()) return trace;
  if (!run(store->Remove("walk")) || !run(store->Commit()) || !snapshot()) {
    return trace;
  }
  if (!append_batch()) return trace;
  return trace;
}

std::vector<uint64_t> MatrixSeeds() {
  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv("STCOMP_CRASH_MATRIX_SEEDS")) {
    std::string list(env);
    size_t start = 0;
    while (start < list.size()) {
      const size_t comma = list.find(',', start);
      const std::string token =
          list.substr(start, comma == std::string::npos ? comma : comma - start);
      if (!token.empty()) {
        seeds.push_back(std::strtoull(token.c_str(), nullptr, 10));
      }
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }
  if (seeds.empty()) {
    seeds.push_back(20260805);
  }
  return seeds;
}

TEST(CrashMatrixTest, EveryBoundaryEveryFateRecoversToACommitPoint) {
  for (const uint64_t seed : MatrixSeeds()) {
    // Reference run: a dry-run plan never fires, but counts how many
    // durable-write boundaries the workload crosses.
    CrashPlan reference_plan(seed);
    const std::string reference_dir = FreshDir("reference");
    WorkloadTrace reference;
    {
      SegmentStore store(MatrixOptions(reference_plan.Hook()));
      ASSERT_TRUE(store.Open(reference_dir).ok());
      reference = RunWorkload(&store);
      ASSERT_TRUE(reference.error.ok()) << reference.error;
    }
    const size_t boundaries = reference_plan.boundaries_seen();
    ASSERT_GT(boundaries, 0u);
    ASSERT_FALSE(reference_plan.fired());
    std::string empty_image;
    {
      const TrajectoryStore empty(Codec::kRaw);
      empty_image = empty.SerializeToString().value();
    }

    for (size_t boundary = 0; boundary < boundaries; ++boundary) {
      for (const CrashFate fate :
           {CrashFate::kKill, CrashFate::kShortWrite, CrashFate::kTornWrite}) {
        SCOPED_TRACE(testing::CrashFateToString(fate));
        SCOPED_TRACE("boundary " + std::to_string(boundary) + ", seed " +
                     std::to_string(seed));
        CrashPlan plan(seed ^ (boundary * 31 + static_cast<uint64_t>(fate)),
                       CrashPoint{boundary, fate});
        const std::string dir = FreshDir("run");
        WorkloadTrace crashed;
        {
          SegmentStore store(MatrixOptions(plan.Hook()));
          ASSERT_TRUE(store.Open(dir).ok());
          crashed = RunWorkload(&store);
        }
        ASSERT_TRUE(plan.fired()) << plan.Describe();
        ASSERT_EQ(crashed.error.code(), StatusCode::kUnavailable)
            << crashed.error;
        const size_t commits = crashed.images.size();

        // Recover with no hook: a fresh process on the same directory.
        SegmentStore recovered(MatrixOptions(nullptr));
        ASSERT_TRUE(recovered.Open(dir).ok());
        const Result<std::string> image =
            recovered.store().SerializeToString();
        ASSERT_TRUE(image.ok());

        // The recovered state must be exactly a commit point: the last
        // acknowledged one, or — when the crash landed after the commit
        // marker bytes reached the file (e.g. at the fsync) — the batch
        // that was in flight. Never anything in between, never older.
        std::vector<const std::string*> acceptable;
        acceptable.push_back(commits == 0 ? &empty_image
                                          : &reference.images[commits - 1]);
        if (commits < reference.images.size()) {
          acceptable.push_back(&reference.images[commits]);
        }
        bool matched = false;
        for (const std::string* candidate : acceptable) {
          matched |= (*image == *candidate);
        }
        EXPECT_TRUE(matched)
            << plan.Describe() << "\nacked commits: " << commits
            << "\nrecovery: " << recovered.last_recovery().Describe();
        ExpectQueryableAfterRecovery(&recovered);
      }
    }
  }
}

// Recovery never reads index.stidx. With the sidecar intact, deleted,
// bit-flipped or stale (a WAL-only append after the checkpoint), Open
// succeeds, the answers equal the oracle's, and the next checkpoint
// rewrites the file byte-identical to BuildFromStore's image. Fsck, the
// sidecar's one reader left in the library, still flags the flipped bit.
TEST(CrashMatrixTest, RecoveryNeverReadsTheIndexSidecar) {
  const std::string dir = FreshDir("index_fate");
  {
    SegmentStore store(MatrixOptions(nullptr));
    ASSERT_TRUE(store.Open(dir).ok());
    ASSERT_TRUE(store.Insert("walk", WalkTrajectory()).ok());
    for (int i = 1; i <= 150; ++i) {
      ASSERT_TRUE(
          store.Append("bus-1", TimedPoint(1.0 * i, 2.0 * i, -1.0 * i)).ok());
    }
    ASSERT_TRUE(store.Checkpoint().ok());
  }
  const std::string index_path = dir + "/index.stidx";
  ASSERT_TRUE(std::filesystem::exists(index_path));
  const auto reopen = [&](const std::string& fate) {
    SCOPED_TRACE(fate);
    SegmentStore store(MatrixOptions(nullptr));
    ASSERT_TRUE(store.Open(dir).ok());
    EXPECT_EQ(store.last_recovery().Describe().find("index"),
              std::string::npos)
        << store.last_recovery().Describe();
    ExpectQueryableAfterRecovery(&store);
    ASSERT_TRUE(store.Checkpoint().ok());
    EXPECT_EQ(ReadFileToString(index_path).value(),
              SpatioTemporalIndex::BuildFromStore(store.store())
                  .SerializeToString());
  };

  reopen("intact");

  ASSERT_TRUE(std::filesystem::remove(index_path));
  reopen("deleted");

  {
    std::string bytes = ReadFileToString(index_path).value();
    bytes[bytes.size() / 2] ^= 0x10;
    ASSERT_TRUE(AtomicWriteFile(index_path, bytes).ok());
  }
  {
    const Result<FsckReport> fsck = SegmentStore::Fsck(dir);
    ASSERT_TRUE(fsck.ok()) << fsck.status();
    EXPECT_FALSE(fsck->clean()) << fsck->Describe();
    const auto flagged = std::find_if(
        fsck->files.begin(), fsck->files.end(),
        [](const FsckFileReport& file) { return file.file == "index.stidx"; });
    ASSERT_NE(flagged, fsck->files.end()) << fsck->Describe();
    EXPECT_EQ(flagged->frames_salvaged, 1u) << fsck->Describe();
  }
  reopen("bit-flipped");

  {
    SegmentStore store(MatrixOptions(nullptr));
    ASSERT_TRUE(store.Open(dir).ok());
    ASSERT_TRUE(store.Append("bus-1", TimedPoint(1000.0, 5.0, 5.0)).ok());
    ASSERT_TRUE(store.Commit().ok());  // WAL only; index.stidx now stale.
    EXPECT_NE(ReadFileToString(index_path).value(),
              SpatioTemporalIndex::BuildFromStore(store.store())
                  .SerializeToString());
  }
  reopen("stale");
}

// Sharded crash matrix (DESIGN.md §16): the same discipline applied to a
// PartitionedSegmentStore, with the fault hook wired into exactly ONE
// shard's durable writes while the others commit clean. After every
// boundary × fate, parallel recovery must land the crashed shard on a
// commit point (last acked, or the in-flight batch when the marker
// already hit the file) and every other shard bit-exactly on its own last
// acknowledged commit — shard independence is the whole point of the
// partitioned layout.

constexpr size_t kShardedShards = 3;
constexpr size_t kFaultShard = 1;

PartitionedSegmentStore::Options ShardedMatrixOptions(WriteFaultHook hook) {
  PartitionedSegmentStore::Options options;
  options.num_shards = kShardedShards;
  options.shard_options.codec = Codec::kRaw;  // Bit-exact comparison.
  options.per_shard_hook = [hook = std::move(hook)](size_t shard) {
    return shard == kFaultShard ? hook : WriteFaultHook();
  };
  return options;
}

// Per-shard acked durability points: images[s] holds shard s's store
// image after each acknowledged Commit/Checkpoint, acked[s] their count.
struct ShardedTrace {
  std::vector<std::vector<std::string>> images;
  std::vector<size_t> acked;
  Status error;
};

// Deterministic multi-shard workload: every round appends one fix for
// each of 8 objects (spanning all shards by hash), then commits shard by
// shard — round 2 checkpoints instead, so segment-snapshot boundaries get
// crossed on every shard too. Stops at the first failure; per-shard ack
// counts make every crashed run a per-shard prefix of the reference.
ShardedTrace RunShardedWorkload(PartitionedSegmentStore* store) {
  constexpr int kRounds = 5;
  constexpr int kObjects = 8;
  ShardedTrace trace;
  trace.images.assign(store->num_shards(), {});
  trace.acked.assign(store->num_shards(), 0);
  for (int round = 0; round < kRounds; ++round) {
    for (int object = 0; object < kObjects; ++object) {
      const Status status = store->Append(
          "veh-" + std::to_string(object),
          TimedPoint(round + 1.0, 2.0 * object + round, -1.0 * round));
      if (!status.ok()) {
        trace.error = status;
        return trace;
      }
    }
    for (size_t shard = 0; shard < store->num_shards(); ++shard) {
      const Status status = round == 2 ? store->shard(shard).Checkpoint()
                                       : store->shard(shard).Commit();
      if (!status.ok()) {
        trace.error = status;
        return trace;
      }
      const Result<std::string> image =
          store->shard(shard).store().SerializeToString();
      if (!image.ok()) {
        trace.error = image.status();
        return trace;
      }
      ++trace.acked[shard];
      trace.images[shard].push_back(*image);
    }
  }
  return trace;
}

TEST(CrashMatrixTest, ShardedOneShardCrashLeavesOthersBitExact) {
  std::string empty_image;
  {
    const TrajectoryStore empty(Codec::kRaw);
    empty_image = empty.SerializeToString().value();
  }
  for (const uint64_t seed : MatrixSeeds()) {
    // Dry run: counts the fault shard's durable-write boundaries.
    CrashPlan reference_plan(seed);
    ShardedTrace reference;
    {
      PartitionedSegmentStore store(
          ShardedMatrixOptions(reference_plan.Hook()));
      ASSERT_TRUE(store.Open(FreshDir("sharded_reference")).ok());
      reference = RunShardedWorkload(&store);
      ASSERT_TRUE(reference.error.ok()) << reference.error;
    }
    const size_t boundaries = reference_plan.boundaries_seen();
    ASSERT_GT(boundaries, 0u);
    ASSERT_FALSE(reference_plan.fired());

    for (size_t boundary = 0; boundary < boundaries; ++boundary) {
      for (const CrashFate fate :
           {CrashFate::kKill, CrashFate::kShortWrite, CrashFate::kTornWrite}) {
        SCOPED_TRACE(testing::CrashFateToString(fate));
        SCOPED_TRACE("boundary " + std::to_string(boundary) + ", seed " +
                     std::to_string(seed));
        CrashPlan plan(seed ^ (boundary * 131 + static_cast<uint64_t>(fate)),
                       CrashPoint{boundary, fate});
        const std::string dir = FreshDir("sharded_run");
        ShardedTrace crashed;
        {
          PartitionedSegmentStore store(ShardedMatrixOptions(plan.Hook()));
          ASSERT_TRUE(store.Open(dir).ok());
          crashed = RunShardedWorkload(&store);
        }
        ASSERT_TRUE(plan.fired()) << plan.Describe();
        ASSERT_EQ(crashed.error.code(), StatusCode::kUnavailable)
            << crashed.error;

        // Fresh process: adopt the layout, recover all shards in
        // parallel, no fault hooks.
        PartitionedSegmentStore::Options recover_options;
        recover_options.shard_options.codec = Codec::kRaw;
        PartitionedSegmentStore recovered(recover_options);
        ASSERT_TRUE(recovered.Open(dir).ok());
        ASSERT_EQ(recovered.num_shards(), kShardedShards);

        for (size_t shard = 0; shard < kShardedShards; ++shard) {
          const Result<std::string> image =
              recovered.shard(shard).store().SerializeToString();
          ASSERT_TRUE(image.ok());
          const size_t acked = crashed.acked[shard];
          const std::string* last_acked =
              acked == 0 ? &empty_image : &reference.images[shard][acked - 1];
          if (shard != kFaultShard) {
            // Untouched shards: staged-but-uncommitted appends from the
            // aborted round vanish; everything acked survives, exactly.
            EXPECT_EQ(*image, *last_acked)
                << "shard " << shard << "\n"
                << plan.Describe() << "\nrecovery: "
                << recovered.shard(shard).last_recovery().Describe();
            continue;
          }
          std::vector<const std::string*> acceptable{last_acked};
          if (acked < reference.images[shard].size()) {
            acceptable.push_back(&reference.images[shard][acked]);
          }
          bool matched = false;
          for (const std::string* candidate : acceptable) {
            matched |= (*image == *candidate);
          }
          EXPECT_TRUE(matched)
              << "fault shard, acked " << acked << "\n"
              << plan.Describe() << "\nrecovery: "
              << recovered.shard(shard).last_recovery().Describe();
        }
      }
    }
  }
}

// The end-to-end salvage criterion: corrupt one frame of a committed WAL
// on disk, reopen, and exactly that one record is lost.
TEST(CrashMatrixTest, SingleWalCorruptionCostsOneRecord) {
  const std::string dir = FreshDir("salvage");
  constexpr int kRecords = 10;
  {
    SegmentStore store(MatrixOptions(nullptr));
    ASSERT_TRUE(store.Open(dir).ok());
    for (int i = 0; i < kRecords; ++i) {
      ASSERT_TRUE(store
                      .Append("obj-" + std::to_string(i),
                              TimedPoint(1.0, 1.0 * i, 2.0 * i))
                      .ok());
    }
    ASSERT_TRUE(store.Commit().ok());
  }
  // Flip one byte around the middle of the log.
  const std::string wal_path = dir + "/wal.stwal";
  {
    std::string bytes = ReadFileToString(wal_path).value();
    bytes[bytes.size() / 2] ^= 0x08;
    ASSERT_TRUE(AtomicWriteFile(wal_path, bytes).ok());
  }
  SegmentStore recovered(MatrixOptions(nullptr));
  ASSERT_TRUE(recovered.Open(dir).ok());
  const RecoveryReport& report = recovered.last_recovery();
  EXPECT_EQ(recovered.store().object_count(),
            static_cast<size_t>(kRecords - 1))
      << report.Describe();
  EXPECT_EQ(report.wal_records_replayed, static_cast<size_t>(kRecords - 1));
  EXPECT_GE(report.wal_frames_salvaged, 1u);
}

}  // namespace
}  // namespace stcomp
