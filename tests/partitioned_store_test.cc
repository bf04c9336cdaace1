// PartitionedSegmentStore (DESIGN.md §16): shard routing is stable,
// partitions are laid out and recovered independently (in parallel), a
// resharded reopen refuses with kFailedPrecondition, and Fsck aggregates
// per-partition file reports.

#include "stcomp/store/partitioned_store.h"

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stcomp/common/strings.h"

namespace stcomp {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "partitioned_store_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

PartitionedSegmentStore::Options WithShards(size_t n) {
  PartitionedSegmentStore::Options options;
  options.num_shards = n;
  options.shard_options.codec = Codec::kRaw;
  return options;
}

TEST(PartitionedStoreTest, HashIsStableAndRoutesAllShards) {
  // The id→shard mapping is durable state; lock the reference values so
  // an accidental hash change fails loudly here before it corrupts a
  // layout. (FNV-1a 64 test vectors: empty string and "a".)
  EXPECT_EQ(Fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(Fnv1a64("a"), 12638187200555641996ull);
  std::set<size_t> seen;
  for (int i = 0; i < 64; ++i) {
    const size_t shard = ShardOfObject("veh-" + std::to_string(i), 4);
    ASSERT_LT(shard, 4u);
    seen.insert(shard);
  }
  // 64 ids over 4 shards: every shard takes traffic.
  EXPECT_EQ(seen.size(), 4u);
}

TEST(PartitionedStoreTest, OpenCreatesLayoutAndRoutesAppends) {
  const std::string dir = FreshDir("layout");
  PartitionedSegmentStore store(WithShards(3));
  ASSERT_TRUE(store.Open(dir).ok());
  EXPECT_EQ(store.num_shards(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::filesystem::is_directory(
        dir + StrFormat("/shard-%03zu", i)));
  }
  for (int i = 0; i < 12; ++i) {
    const std::string id = "veh-" + std::to_string(i);
    ASSERT_TRUE(store.Append(id, TimedPoint(1.0, i * 1.0, 0.0)).ok());
    // The routed append landed in exactly the hash-designated partition.
    EXPECT_TRUE(store.shard(store.ShardOf(id)).store().Get(id).ok());
  }
  ASSERT_TRUE(store.Commit().ok());
  EXPECT_EQ(store.object_count(), 12u);
  EXPECT_FALSE(store.dead());
}

TEST(PartitionedStoreTest, ReopenRecoversEveryPartition) {
  const std::string dir = FreshDir("reopen");
  {
    PartitionedSegmentStore store(WithShards(4));
    ASSERT_TRUE(store.Open(dir).ok());
    for (int i = 0; i < 40; ++i) {
      const std::string id = "obj-" + std::to_string(i);
      ASSERT_TRUE(store.Append(id, TimedPoint(1.0, i * 2.0, -i * 1.0)).ok());
      ASSERT_TRUE(store.Append(id, TimedPoint(2.0, i * 2.0 + 1, -i * 1.0)).ok());
    }
    ASSERT_TRUE(store.Commit().ok());
    // Uncommitted tail: recovery must drop it in whichever shard it hit.
    ASSERT_TRUE(store.Append("obj-0", TimedPoint(3.0, 99.0, 99.0)).ok());
  }
  // num_shards = 0 adopts the on-disk layout.
  PartitionedSegmentStore reopened(WithShards(0));
  ASSERT_TRUE(reopened.Open(dir).ok());
  EXPECT_EQ(reopened.num_shards(), 4u);
  EXPECT_TRUE(reopened.recovery_clean())
      << reopened.DescribeRecovery();
  EXPECT_EQ(reopened.object_count(), 40u);
  const Result<Trajectory> obj0 = reopened.Get("obj-0");
  ASSERT_TRUE(obj0.ok());
  EXPECT_EQ(obj0->size(), 2u);  // The uncommitted third point is gone.
}

TEST(PartitionedStoreTest, ReshardedReopenRefuses) {
  const std::string dir = FreshDir("reshard");
  {
    PartitionedSegmentStore store(WithShards(2));
    ASSERT_TRUE(store.Open(dir).ok());
    ASSERT_TRUE(store.Append("veh-1", TimedPoint(1.0, 0.0, 0.0)).ok());
    ASSERT_TRUE(store.Commit().ok());
  }
  PartitionedSegmentStore resharded(WithShards(5));
  const Status status = resharded.Open(dir);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("resharding requires an explicit migration"),
            std::string_view::npos)
      << status.ToString();
}

TEST(PartitionedStoreTest, FsckAggregatesShardFiles) {
  const std::string dir = FreshDir("fsck");
  {
    PartitionedSegmentStore store(WithShards(2));
    ASSERT_TRUE(store.Open(dir).ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(store.Append("f-" + std::to_string(i),
                               TimedPoint(1.0, 1.0, 1.0)).ok());
    }
    ASSERT_TRUE(store.Checkpoint().ok());
  }
  const Result<FsckReport> report = PartitionedSegmentStore::Fsck(dir);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Describe();
  size_t shard0_files = 0;
  size_t shard1_files = 0;
  for (const FsckFileReport& file : report->files) {
    if (file.file.rfind("shard-000/", 0) == 0) ++shard0_files;
    if (file.file.rfind("shard-001/", 0) == 0) ++shard1_files;
  }
  EXPECT_GT(shard0_files, 0u);
  EXPECT_GT(shard1_files, 0u);
  // Fsck on a partitionless directory is a kNotFound, not a misread.
  const std::string empty_dir = FreshDir("fsck_empty");
  std::filesystem::create_directories(empty_dir);
  EXPECT_EQ(PartitionedSegmentStore::Fsck(empty_dir).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace stcomp
