#include "stcomp/store/wal.h"

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "stcomp/obs/trace.h"
#include "stcomp/store/durable_file.h"
#include "stcomp/store/serialization.h"
#include "stcomp/store/trajectory_store.h"
#include "stcomp/store/varint.h"
#include "test_util.h"

namespace stcomp {
namespace {

using testutil::Traj;

WalRecord AppendRecord(const std::string& id, double t, double x, double y) {
  return WalRecord::Append(id, TimedPoint(t, x, y));
}

TEST(WalFrameTest, RoundTripEveryRecordType) {
  std::vector<WalRecord> records;
  records.push_back(AppendRecord("bus-1", 1.5, -3.25, 7.0));
  records.push_back(WalRecord::Insert("bus-2", "frame-bytes"));
  records.push_back(WalRecord::Remove("bus-3"));
  records.push_back(WalRecord::Commit());
  for (const WalRecord& record : records) {
    const std::string frame = EncodeWalFrame(record);
    std::string_view cursor = frame;
    const Result<WalRecord> decoded = DecodeWalFrame(&cursor);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_TRUE(cursor.empty());
    EXPECT_EQ(decoded->type, record.type);
    EXPECT_EQ(decoded->object_id, record.object_id);
    EXPECT_EQ(decoded->payload, record.payload);
    if (record.type == WalRecordType::kAppend) {
      // Bit-exact: the WAL carries raw doubles, not the quantising codec.
      EXPECT_EQ(decoded->point.t, record.point.t);
      EXPECT_EQ(decoded->point.position.x, record.point.position.x);
      EXPECT_EQ(decoded->point.position.y, record.point.position.y);
    }
  }
}

TEST(WalFrameTest, EveryByteFlipIsDetected) {
  const std::string frame = EncodeWalFrame(AppendRecord("obj", 2.0, 3.0, 4.0));
  for (size_t i = 0; i < frame.size(); ++i) {
    std::string corrupted = frame;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x40);
    std::string_view cursor = corrupted;
    const Result<WalRecord> decoded = DecodeWalFrame(&cursor);
    // Either the decode fails, or the flip hit redundant varint bits —
    // but a silently different record is never acceptable.
    if (decoded.ok()) {
      EXPECT_EQ(decoded->object_id, "obj") << "flip at byte " << i;
      EXPECT_EQ(decoded->point.t, 2.0) << "flip at byte " << i;
    }
  }
}

TEST(WalFrameTest, HugeDeclaredPayloadIsTruncationNotOverflow) {
  // A 10-byte varint declaring a ~2^64 payload, then four bytes; the
  // first case is the fuzz seed wal/overflow_len byte for byte. The
  // length test must not form `payload_size + 4`, which wraps and lets
  // the cursor step past the end of the buffer.
  for (const uint64_t declared :
       {~0ull, ~0ull - 1, ~0ull - 3, ~0ull - 4, 1ull << 63}) {
    std::string hostile = "STWL";
    PutVarint(declared, &hostile);
    hostile += "junk";
    std::string_view input = hostile;
    const Result<WalRecord> decoded = DecodeWalFrame(&input);
    ASSERT_FALSE(decoded.ok()) << "declared " << declared;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);

    WalScanStats stats;
    EXPECT_TRUE(ScanWal(hostile, &stats).empty()) << "declared " << declared;
    EXPECT_TRUE(stats.torn_tail);
    EXPECT_EQ(stats.frames_salvaged_past, 0u);
  }
}

TEST(WalScanTest, OnlyCommittedBatchesReplay) {
  std::string image;
  image += EncodeWalFrame(AppendRecord("a", 1.0, 0.0, 0.0));
  image += EncodeWalFrame(AppendRecord("a", 2.0, 1.0, 1.0));
  image += EncodeWalFrame(WalRecord::Commit());
  image += EncodeWalFrame(AppendRecord("a", 3.0, 2.0, 2.0));  // Uncommitted.
  WalScanStats stats;
  const std::vector<WalRecord> records = ScanWal(image, &stats);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(stats.records_replayed, 2u);
  EXPECT_EQ(stats.records_dropped_uncommitted, 1u);
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_EQ(records[1].point.t, 2.0);
}

TEST(WalScanTest, SingleCorruptFrameCostsExactlyThatRecord) {
  // N records, one corrupted: the scan salvages past it and recovers the
  // other N-1 (the acceptance criterion for salvage recovery).
  constexpr int kRecords = 8;
  std::vector<std::string> frames;
  std::string image;
  for (int i = 0; i < kRecords; ++i) {
    frames.push_back(EncodeWalFrame(
        AppendRecord("obj", 1.0 + i, 10.0 * i, -5.0 * i)));
    image += frames.back();
  }
  image += EncodeWalFrame(WalRecord::Commit());

  // Corrupt one byte in the middle of frame 3's payload.
  size_t offset = 0;
  for (int i = 0; i < 3; ++i) {
    offset += frames[static_cast<size_t>(i)].size();
  }
  std::string corrupted = image;
  corrupted[offset + frames[3].size() / 2] ^= 0x5a;

  WalScanStats stats;
  const std::vector<WalRecord> records = ScanWal(corrupted, &stats);
  EXPECT_EQ(records.size(), static_cast<size_t>(kRecords - 1));
  EXPECT_GE(stats.frames_salvaged_past, 1u);
  EXPECT_FALSE(stats.log.empty());
  // Every survivor decodes to one of the originals, still in order.
  double last_t = 0.0;
  for (const WalRecord& record : records) {
    EXPECT_GT(record.point.t, last_t);
    last_t = record.point.t;
  }
}

TEST(WalScanTest, TornTailIsReportedNotFatal) {
  std::string image;
  image += EncodeWalFrame(AppendRecord("a", 1.0, 0.0, 0.0));
  image += EncodeWalFrame(WalRecord::Commit());
  const std::string tail = EncodeWalFrame(AppendRecord("a", 2.0, 1.0, 1.0));
  image += tail.substr(0, tail.size() / 2);  // Interrupted final write.
  WalScanStats stats;
  const std::vector<WalRecord> records = ScanWal(image, &stats);
  EXPECT_EQ(records.size(), 1u);
  EXPECT_TRUE(stats.torn_tail);
}

TEST(WalScanTest, EmptyAndGarbageImagesNeverFail) {
  WalScanStats stats;
  EXPECT_TRUE(ScanWal("", &stats).empty());
  EXPECT_TRUE(ScanWal("this is not a wal at all", &stats).empty());
  EXPECT_TRUE(stats.torn_tail);
}

TEST(WalWriterTest, CommitMakesBatchDurableAndDeathIsSticky) {
  const std::string dir = ::testing::TempDir() + "wal_writer_test";
  const std::string path = dir + "/test.stwal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  WalWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.Append(AppendRecord("a", 1.0, 0.0, 0.0)).ok());
  EXPECT_EQ(writer.staged_records(), 1u);
  // Staged but uncommitted: nothing on disk yet.
  EXPECT_EQ(ReadFileToString(path)->size(), 0u);
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(writer.staged_records(), 0u);
  {
    const Result<std::string> image = ReadFileToString(path);
    ASSERT_TRUE(image.ok());
    WalScanStats stats;
    EXPECT_EQ(ScanWal(*image, &stats).size(), 1u);
  }

  // Inject a crash at the next write boundary: the writer dies and every
  // later operation returns the same kUnavailable.
  size_t boundary = 0;
  writer.set_write_hook(
      [](size_t, std::string_view) {
        return WriteFault{WriteFault::Action::kCrash, 0, ""};
      },
      &boundary);
  ASSERT_TRUE(writer.Append(AppendRecord("a", 2.0, 1.0, 1.0)).ok());
  const Status died = writer.Commit();
  EXPECT_EQ(died.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(writer.dead());
  EXPECT_EQ(writer.Append(AppendRecord("a", 3.0, 2.0, 2.0)).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(writer.Commit().code(), StatusCode::kUnavailable);

  // The dead batch never reached the log.
  const Result<std::string> image = ReadFileToString(path);
  ASSERT_TRUE(image.ok());
  WalScanStats stats;
  EXPECT_EQ(ScanWal(*image, &stats).size(), 1u);
}

#if STCOMP_METRICS_ENABLED
// A group commit outside any span (a shard worker's) is a head-sampled
// root: 1 in the sampling period records, so commits cannot crowd the
// sampled push trees out of the trace ring. A commit nested in a recorded
// span still records as its child (AdminServerTest covers that tree).
TEST(WalWriterTest, RootCommitsAreHeadSampled) {
  const std::string dir = ::testing::TempDir() + "wal_sampled_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const uint64_t previous_period = obs::TraceBuffer::SetSampledRootPeriod(64);
  // A fresh thread starts its sampling tick at zero: commits 0 and 64
  // record.
  std::thread([&dir] {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(dir + "/sampled.stwal").ok());
    for (int i = 0; i < 128; ++i) {
      ASSERT_TRUE(writer.Append(AppendRecord("a", i, 0.0, 0.0)).ok());
      ASSERT_TRUE(writer.Commit().ok());
    }
  }).join();
  obs::TraceBuffer::SetSampledRootPeriod(previous_period);
  size_t recorded = 0;
  for (const obs::TraceEvent& event : obs::TraceBuffer::Global().Snapshot()) {
    if (event.name == "wal.commit" && event.detail == "sampled.stwal") {
      EXPECT_EQ(event.parent_id, 0u);
      ++recorded;
    }
  }
  EXPECT_EQ(recorded, 2u);
  std::filesystem::remove_all(dir);
}
#endif  // STCOMP_METRICS_ENABLED

TEST(TrajectoryFrameScanTest, SalvagesAllButTheCorruptFrame) {
  TrajectoryStore store(Codec::kRaw);
  constexpr int kObjects = 6;
  for (int i = 0; i < kObjects; ++i) {
    Trajectory trajectory = Traj({{1.0, 1.0 * i, 2.0}, {2.0, 3.0 * i, 4.0}});
    trajectory.set_name("obj-" + std::to_string(i));
    ASSERT_TRUE(store.Insert("obj-" + std::to_string(i), trajectory).ok());
  }
  const Result<std::string> image = store.SerializeToString();
  ASSERT_TRUE(image.ok());

  // Flip a byte about halfway in (inside some middle frame).
  std::string corrupted = *image;
  corrupted[corrupted.size() / 2] ^= 0x11;

  // Strict load refuses (the golden-format contract) ...
  TrajectoryStore strict(Codec::kRaw);
  EXPECT_FALSE(strict.LoadFromBuffer(corrupted).ok());

  // ... salvage recovers every frame but the corrupted one.
  TrajectoryStore salvaged(Codec::kRaw);
  FrameScanStats stats;
  ASSERT_TRUE(salvaged.SalvageFromBuffer(corrupted, &stats).ok());
  EXPECT_EQ(salvaged.ObjectIds().size(), static_cast<size_t>(kObjects - 1));
  EXPECT_GE(stats.frames_salvaged_past + (stats.torn_tail ? 1u : 0u), 1u);
  EXPECT_FALSE(stats.log.empty());
}

}  // namespace
}  // namespace stcomp
