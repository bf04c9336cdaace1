#include "stcomp/store/segment_store.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stcomp/obs/metrics.h"
#include "stcomp/store/durable_file.h"
#include "test_util.h"

namespace stcomp {
namespace {

using testutil::Traj;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "segment_store_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

SegmentStore::Options RawOptions() {
  SegmentStore::Options options;
  options.codec = Codec::kRaw;  // Bit-exact image comparisons below.
  return options;
}

std::string Image(const SegmentStore& store) {
  const Result<std::string> image = store.store().SerializeToString();
  EXPECT_TRUE(image.ok()) << image.status();
  return image.ok() ? *image : std::string();
}

TEST(SegmentStoreTest, AppendCommitSurvivesReopen) {
  const std::string dir = FreshDir("reopen");
  std::string committed_image;
  {
    SegmentStore store(RawOptions());
    ASSERT_TRUE(store.Open(dir).ok());
    EXPECT_TRUE(store.last_recovery().clean());
    ASSERT_TRUE(store.Append("bus-1", TimedPoint(1.0, 0.5, -2.0)).ok());
    ASSERT_TRUE(store.Append("bus-1", TimedPoint(2.0, 1.5, -1.0)).ok());
    ASSERT_TRUE(store.Append("bus-2", TimedPoint(1.0, 9.0, 9.0)).ok());
    ASSERT_TRUE(store.Commit().ok());
    committed_image = Image(store);
    // Appended after the commit: recovery must drop this one.
    ASSERT_TRUE(store.Append("bus-2", TimedPoint(2.0, 10.0, 10.0)).ok());
  }
  SegmentStore reopened(RawOptions());
  ASSERT_TRUE(reopened.Open(dir).ok());
  EXPECT_EQ(Image(reopened), committed_image)
      << reopened.last_recovery().Describe();
  EXPECT_EQ(reopened.last_recovery().wal_records_replayed, 3u);
}

TEST(SegmentStoreTest, InsertAndRemoveReplay) {
  const std::string dir = FreshDir("insert_remove");
  std::string committed_image;
  {
    SegmentStore store(RawOptions());
    ASSERT_TRUE(store.Open(dir).ok());
    Trajectory trajectory = Traj({{1.0, 0.0, 0.0}, {2.0, 3.0, 4.0}});
    trajectory.set_name("walk");
    ASSERT_TRUE(store.Insert("walk", trajectory).ok());
    ASSERT_TRUE(store.Append("doomed", TimedPoint(1.0, 1.0, 1.0)).ok());
    ASSERT_TRUE(store.Remove("doomed").ok());
    ASSERT_TRUE(store.Commit().ok());
    committed_image = Image(store);
  }
  SegmentStore reopened(RawOptions());
  ASSERT_TRUE(reopened.Open(dir).ok());
  EXPECT_EQ(Image(reopened), committed_image);
  EXPECT_EQ(reopened.store().ObjectIds(), std::vector<std::string>{"walk"});
}

TEST(SegmentStoreTest, CheckpointTruncatesWalAndPrunesSegments) {
  const std::string dir = FreshDir("checkpoint");
  std::string checkpoint_image;
  {
    SegmentStore store(RawOptions());
    ASSERT_TRUE(store.Open(dir).ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          store.Append("obj", TimedPoint(1.0 + i, 2.0 * i, -1.0 * i)).ok());
    }
    ASSERT_TRUE(store.Checkpoint().ok());
    ASSERT_TRUE(store.Checkpoint().ok());  // Second one prunes the first.
    checkpoint_image = Image(store);
  }
  // Exactly one segment file remains and the WAL is empty.
  size_t segments = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("seg-", 0) == 0) {
      ++segments;
    }
    if (name == "wal.stwal") {
      EXPECT_EQ(std::filesystem::file_size(entry.path()), 0u);
    }
  }
  EXPECT_EQ(segments, 1u);

  SegmentStore reopened(RawOptions());
  ASSERT_TRUE(reopened.Open(dir).ok());
  EXPECT_TRUE(reopened.last_recovery().clean())
      << reopened.last_recovery().Describe();
  EXPECT_EQ(Image(reopened), checkpoint_image);
}

TEST(SegmentStoreTest, CorruptSegmentFallsBackToWal) {
  const std::string dir = FreshDir("corrupt_segment");
  std::string committed_image;
  {
    SegmentStore store(RawOptions());
    ASSERT_TRUE(store.Open(dir).ok());
    ASSERT_TRUE(store.Append("a", TimedPoint(1.0, 0.0, 0.0)).ok());
    ASSERT_TRUE(store.Checkpoint().ok());
    ASSERT_TRUE(store.Append("a", TimedPoint(2.0, 1.0, 1.0)).ok());
    ASSERT_TRUE(store.Commit().ok());
    committed_image = Image(store);
  }
  // Corrupt one byte of the single segment: recovery salvages what it can
  // from the segment and still replays the WAL tail on top.
  std::string segment_path;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("seg-", 0) == 0) {
      segment_path = entry.path().string();
    }
  }
  ASSERT_FALSE(segment_path.empty());
  {
    Result<std::string> bytes = ReadFileToString(segment_path);
    ASSERT_TRUE(bytes.ok());
    (*bytes)[bytes->size() / 2] ^= 0x20;
    ASSERT_TRUE(AtomicWriteFile(segment_path, *bytes).ok());
  }
  SegmentStore reopened(RawOptions());
  ASSERT_TRUE(reopened.Open(dir).ok());
  const RecoveryReport& report = reopened.last_recovery();
  EXPECT_FALSE(report.clean()) << report.Describe();
  // The single-object segment lost its only frame; the WAL append to the
  // now-missing object recreates it, so the final point is still there.
  const Result<Trajectory> recovered = reopened.store().Get("a");
  ASSERT_TRUE(recovered.ok()) << report.Describe();
  EXPECT_EQ(recovered->points().back().t, 2.0);
}

TEST(SegmentStoreTest, FsckReportsFrameHealth) {
  const std::string dir = FreshDir("fsck");
  {
    SegmentStore store(RawOptions());
    ASSERT_TRUE(store.Open(dir).ok());
    ASSERT_TRUE(store.Append("a", TimedPoint(1.0, 0.0, 0.0)).ok());
    ASSERT_TRUE(store.Checkpoint().ok());
    ASSERT_TRUE(store.Append("a", TimedPoint(2.0, 1.0, 1.0)).ok());
    ASSERT_TRUE(store.Commit().ok());
  }
  const Result<FsckReport> report = SegmentStore::Fsck(dir);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean()) << report->Describe();
  // One segment + the WAL + the checkpointed spatio-temporal index.
  ASSERT_EQ(report->files.size(), 3u);
  for (const FsckFileReport& file : report->files) {
    EXPECT_GT(file.frames_good, 0u) << file.file;
    EXPECT_EQ(file.frames_salvaged, 0u) << file.file;
    EXPECT_FALSE(file.torn_tail) << file.file;
  }
  EXPECT_FALSE(SegmentStore::Fsck(dir + "/nonexistent").ok());
}

#if STCOMP_METRICS_ENABLED
TEST(SegmentStoreTest, EachCheckpointObservesOneLatency) {
  obs::Histogram* const checkpoint_seconds =
      obs::MetricsRegistry::Global().GetHistogram(
          "stcomp_checkpoint_seconds", {}, obs::LatencyBucketsSeconds());
  const std::string dir = FreshDir("checkpoint_metric");
  SegmentStore store(RawOptions());
  ASSERT_TRUE(store.Open(dir).ok());
  const uint64_t before = checkpoint_seconds->count();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store.Append("obj", TimedPoint(1.0 + i, 0.0, 0.0)).ok());
    ASSERT_TRUE(store.Checkpoint().ok());
    EXPECT_EQ(checkpoint_seconds->count(), before + i + 1);
  }
  std::filesystem::remove_all(dir);
}
#endif  // STCOMP_METRICS_ENABLED

TEST(SegmentStoreTest, OpenOnEmptyDirectoryIsClean) {
  const std::string dir = FreshDir("empty");
  SegmentStore store(RawOptions());
  ASSERT_TRUE(store.Open(dir).ok());
  EXPECT_TRUE(store.last_recovery().clean());
  EXPECT_EQ(store.store().object_count(), 0u);
}

// Recovery reads every segment and WAL through ReadFileToString: an empty
// file is an empty image, a missing one kIoError, and a multi-megabyte
// image comes back byte for byte.
TEST(DurableFileTest, ReadFileToStringReadsWholeFiles) {
  const std::string dir = FreshDir("read_file");
  std::filesystem::create_directories(dir);

  const std::string empty = dir + "/empty";
  ASSERT_TRUE(AtomicWriteFile(empty, "").ok());
  const Result<std::string> nothing = ReadFileToString(empty);
  ASSERT_TRUE(nothing.ok()) << nothing.status();
  EXPECT_TRUE(nothing->empty());

  const std::string missing = dir + "/missing";
  const Result<std::string> absent = ReadFileToString(missing);
  ASSERT_FALSE(absent.ok());
  EXPECT_EQ(absent.status().code(), StatusCode::kIoError);
  EXPECT_NE(absent.status().ToString().find("cannot open " + missing),
            std::string::npos)
      << absent.status();

  std::string image((3u << 20) + 123u, '\0');
  std::mt19937_64 bits(20261018);
  for (size_t i = 0; i < image.size(); i += 8) {
    const uint64_t word = bits();
    std::memcpy(image.data() + i, &word, std::min<size_t>(8, image.size() - i));
  }
  const std::string large = dir + "/large";
  ASSERT_TRUE(AtomicWriteFile(large, image).ok());
  const Result<std::string> read = ReadFileToString(large);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_TRUE(*read == image) << "read " << read->size() << " of "
                              << image.size() << " bytes";
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace stcomp
