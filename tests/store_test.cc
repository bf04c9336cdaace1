#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stcomp/obs/metrics.h"
#include "stcomp/store/block_summary.h"
#include "stcomp/store/codec.h"
#include "stcomp/store/segment_store.h"
#include "stcomp/store/serialization.h"
#include "stcomp/store/trajectory_store.h"
#include "stcomp/store/varint.h"
#include "test_util.h"

namespace stcomp {
namespace {

using testutil::Line;
using testutil::RandomWalk;
using testutil::Traj;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "store_test_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// To the last bit, sign of zero included.
void ExpectBitwiseEqual(std::span<const TimedPoint> a,
                        std::span<const TimedPoint> b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(Bits(a[i].t), Bits(b[i].t)) << label << " point " << i;
    EXPECT_EQ(Bits(a[i].position.x), Bits(b[i].position.x))
        << label << " point " << i;
    EXPECT_EQ(Bits(a[i].position.y), Bits(b[i].position.y))
        << label << " point " << i;
  }
}

// The resident storage values queries read must be exactly what decoding
// the payload yields, for every object.
void ExpectResidentMatchesPayload(const TrajectoryStore& store,
                                  const std::string& label) {
  ASSERT_GT(store.object_count(), 0u) << label;
  for (const std::string& id : store.ObjectIds()) {
    const Result<std::span<const TimedPoint>> resident =
        store.StoragePoints(id);
    const Result<Trajectory> decoded = store.Get(id);
    ASSERT_TRUE(resident.ok()) << label << " " << id;
    ASSERT_TRUE(decoded.ok()) << label << " " << id << ": "
                              << decoded.status();
    ExpectBitwiseEqual(*resident, decoded->points(), label + " " + id);
  }
}

TEST(VarintTest, RoundTripBoundaries) {
  for (uint64_t value : std::vector<uint64_t>{0, 1, 127, 128, 16383, 16384,
                                              uint64_t{1} << 32,
                                              UINT64_MAX}) {
    std::string buffer;
    PutVarint(value, &buffer);
    std::string_view cursor = buffer;
    EXPECT_EQ(GetVarint(&cursor).value(), value);
    EXPECT_TRUE(cursor.empty());
  }
}

TEST(VarintTest, EncodingLengths) {
  std::string buffer;
  PutVarint(127, &buffer);
  EXPECT_EQ(buffer.size(), 1u);
  buffer.clear();
  PutVarint(128, &buffer);
  EXPECT_EQ(buffer.size(), 2u);
  buffer.clear();
  PutVarint(UINT64_MAX, &buffer);
  EXPECT_EQ(buffer.size(), 10u);
}

TEST(VarintTest, TruncationDetected) {
  std::string buffer;
  PutVarint(1ull << 40, &buffer);
  std::string_view truncated(buffer.data(), buffer.size() - 1);
  EXPECT_FALSE(GetVarint(&truncated).ok());
  std::string_view empty;
  EXPECT_FALSE(GetVarint(&empty).ok());
}

TEST(ZigZagTest, RoundTrip) {
  for (int64_t value : std::vector<int64_t>{0, 1, -1, 63, -64, 1234567,
                                            -1234567, INT64_MAX, INT64_MIN}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(value)), value);
  }
  // Small magnitudes map to small codes.
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

TEST(SignedVarintTest, RoundTrip) {
  for (int64_t value : std::vector<int64_t>{0, -5, 300, -70000, INT64_MAX,
                                            INT64_MIN}) {
    std::string buffer;
    PutSignedVarint(value, &buffer);
    std::string_view cursor = buffer;
    EXPECT_EQ(GetSignedVarint(&cursor).value(), value);
  }
}

TEST(DoubleCodecTest, RoundTripExact) {
  for (double value : {0.0, -0.0, 1.5, -3.25e300, 5e-324}) {
    std::string buffer;
    PutDouble(value, &buffer);
    std::string_view cursor = buffer;
    EXPECT_EQ(GetDouble(&cursor).value(), value);
  }
}

TEST(CodecTest, RawRoundTripBitExact) {
  const Trajectory trajectory = RandomWalk(100, 1);
  std::string buffer;
  ASSERT_TRUE(EncodePoints(trajectory, Codec::kRaw, &buffer).ok());
  EXPECT_EQ(buffer.size(), 24u * trajectory.size());
  std::string_view cursor = buffer;
  const auto points =
      DecodePoints(&cursor, Codec::kRaw, trajectory.size()).value();
  EXPECT_EQ(points, trajectory.points());
}

TEST(CodecTest, DeltaRoundTripWithinQuantum) {
  const Trajectory trajectory = RandomWalk(100, 2);
  std::string buffer;
  ASSERT_TRUE(EncodePoints(trajectory, Codec::kDelta, &buffer).ok());
  std::string_view cursor = buffer;
  const auto points =
      DecodePoints(&cursor, Codec::kDelta, trajectory.size()).value();
  ASSERT_EQ(points.size(), trajectory.size());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_NEAR(points[i].t, trajectory[i].t, kTimeQuantumS / 2 + 1e-12);
    EXPECT_NEAR(points[i].position.x, trajectory[i].position.x,
                kCoordQuantumM / 2 + 1e-12);
    EXPECT_NEAR(points[i].position.y, trajectory[i].position.y,
                kCoordQuantumM / 2 + 1e-12);
  }
}

TEST(CodecTest, DeltaIsIdempotentOnQuantisedData) {
  // Once decoded (quantised), re-encoding and decoding is lossless.
  const Trajectory trajectory = RandomWalk(50, 3);
  std::string buffer;
  ASSERT_TRUE(EncodePoints(trajectory, Codec::kDelta, &buffer).ok());
  std::string_view cursor = buffer;
  const Trajectory quantised = Trajectory::FromPoints(
      DecodePoints(&cursor, Codec::kDelta, trajectory.size()).value()).value();
  std::string buffer2;
  ASSERT_TRUE(EncodePoints(quantised, Codec::kDelta, &buffer2).ok());
  std::string_view cursor2 = buffer2;
  const auto again =
      DecodePoints(&cursor2, Codec::kDelta, quantised.size()).value();
  EXPECT_EQ(again, quantised.points());
}

TEST(CodecTest, DeltaBeatsRawOnRealisticStreams) {
  // 10 s sampling, tens of metres of movement per fix: deltas are small.
  const Trajectory trajectory = Line(500, 10.0, 12.0, 5.0);
  const size_t raw = EncodedSize(trajectory, Codec::kRaw).value();
  const size_t delta = EncodedSize(trajectory, Codec::kDelta).value();
  EXPECT_LT(delta * 2, raw);  // At least 2x smaller.
}

TEST(SerializationTest, RoundTrip) {
  Trajectory trajectory = RandomWalk(80, 4);
  trajectory.set_name("object-7");
  for (Codec codec : {Codec::kRaw, Codec::kDelta}) {
    const std::string frame =
        SerializeTrajectory(trajectory, codec).value();
    std::string_view cursor = frame;
    const Trajectory decoded = DeserializeTrajectory(&cursor).value();
    EXPECT_TRUE(cursor.empty());
    EXPECT_EQ(decoded.name(), "object-7");
    EXPECT_EQ(decoded.size(), trajectory.size());
    if (codec == Codec::kRaw) {
      EXPECT_EQ(decoded.points(), trajectory.points());
    }
  }
}

TEST(SerializationTest, DetectsCorruption) {
  const Trajectory trajectory = RandomWalk(20, 5);
  std::string frame = SerializeTrajectory(trajectory, Codec::kDelta).value();
  frame[frame.size() / 2] = static_cast<char>(frame[frame.size() / 2] ^ 0x40);
  std::string_view cursor = frame;
  EXPECT_FALSE(DeserializeTrajectory(&cursor).ok());
}

TEST(SerializationTest, DetectsTruncationAndBadMagic) {
  const Trajectory trajectory = RandomWalk(20, 6);
  const std::string frame =
      SerializeTrajectory(trajectory, Codec::kRaw).value();
  std::string_view truncated(frame.data(), frame.size() - 5);
  EXPECT_FALSE(DeserializeTrajectory(&truncated).ok());
  std::string bad = frame;
  bad[0] = 'X';
  std::string_view cursor = bad;
  EXPECT_FALSE(DeserializeTrajectory(&cursor).ok());
}

TEST(SerializationTest, MultipleFramesInOneBuffer) {
  const Trajectory a = RandomWalk(10, 7);
  const Trajectory b = RandomWalk(15, 8);
  const std::string buffer = SerializeTrajectory(a, Codec::kRaw).value() +
                             SerializeTrajectory(b, Codec::kRaw).value();
  std::string_view cursor = buffer;
  EXPECT_EQ(DeserializeTrajectory(&cursor).value().size(), 10u);
  EXPECT_EQ(DeserializeTrajectory(&cursor).value().size(), 15u);
  EXPECT_TRUE(cursor.empty());
}

TEST(SerializationTest, FileRoundTrip) {
  const Trajectory trajectory = RandomWalk(30, 9);
  const std::string path = ::testing::TempDir() + "/stcomp_store_test.bin";
  ASSERT_TRUE(WriteTrajectoryFile(trajectory, Codec::kRaw, path).ok());
  EXPECT_EQ(ReadTrajectoryFile(path).value().points(), trajectory.points());
}

TEST(Crc32Test, KnownVector) {
  // The canonical test vector: CRC32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

// Crc32 steps eight bytes at a time; it must equal the bytewise table
// form (kept here as the reference) at every length and alignment, tail
// bytes included.
TEST(Crc32Test, MatchesBytewiseReference) {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xedb88320u : 0u);
    }
    table[i] = crc;
  }
  constexpr size_t kMaxLength = 4096;
  std::mt19937 rng(20261017);
  std::string bytes(kMaxLength + 8, '\0');
  for (char& byte : bytes) {
    byte = static_cast<char>(rng() & 0xffu);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    // The reference register after the first `length` bytes from offset.
    uint32_t reference = 0xffffffffu;
    for (size_t length = 0; length <= kMaxLength; ++length) {
      ASSERT_EQ(Crc32(std::string_view(bytes).substr(offset, length)),
                reference ^ 0xffffffffu)
          << "offset " << offset << " length " << length;
      const auto next = static_cast<uint8_t>(bytes[offset + length]);
      reference = (reference >> 8) ^ table[(reference ^ next) & 0xffu];
    }
  }
}

TEST(TrajectoryStoreTest, InsertGetRemove) {
  TrajectoryStore store;
  const Trajectory trajectory = RandomWalk(40, 10);
  ASSERT_TRUE(store.Insert("car-1", trajectory).ok());
  EXPECT_EQ(store.Insert("car-1", trajectory).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(store.object_count(), 1u);
  const Trajectory loaded = store.Get("car-1").value();
  EXPECT_EQ(loaded.size(), trajectory.size());
  EXPECT_TRUE(store.Remove("car-1").ok());
  EXPECT_EQ(store.Remove("car-1").code(), StatusCode::kNotFound);
  EXPECT_FALSE(store.Get("car-1").ok());
}

TEST(TrajectoryStoreTest, RawCodecIsLossless) {
  TrajectoryStore store(Codec::kRaw);
  const Trajectory trajectory = RandomWalk(40, 11);
  ASSERT_TRUE(store.Insert("x", trajectory).ok());
  EXPECT_EQ(store.Get("x").value().points(), trajectory.points());
}

TEST(TrajectoryStoreTest, AppendBuildsTrajectory) {
  TrajectoryStore store;
  ASSERT_TRUE(store.Append("live", {0.0, 0.0, 0.0}).ok());
  ASSERT_TRUE(store.Append("live", {10.0, 50.0, 0.0}).ok());
  ASSERT_TRUE(store.Append("live", {20.0, 100.0, 25.0}).ok());
  EXPECT_FALSE(store.Append("live", {20.0, 1.0, 1.0}).ok());
  const Trajectory loaded = store.Get("live").value();
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_NEAR(loaded[2].position.y, 25.0, kCoordQuantumM);
}

TEST(TrajectoryStoreTest, AppendMatchesInsertEncoding) {
  // Appending point-by-point must yield the same bytes as inserting whole.
  const Trajectory trajectory = RandomWalk(60, 12);
  TrajectoryStore whole;
  ASSERT_TRUE(whole.Insert("t", trajectory).ok());
  TrajectoryStore incremental;
  for (const TimedPoint& point : trajectory.points()) {
    ASSERT_TRUE(incremental.Append("t", point).ok());
  }
  EXPECT_EQ(whole.StorageBytes(), incremental.StorageBytes());
  EXPECT_EQ(whole.Get("t").value().points(),
            incremental.Get("t").value().points());
}

TEST(TrajectoryStoreTest, PositionAtAndTimeSlice) {
  TrajectoryStore store(Codec::kRaw);
  ASSERT_TRUE(store.Insert("car", Traj({{0, 0, 0}, {10, 100, 0},
                                        {20, 100, 100}})).ok());
  EXPECT_EQ(store.PositionAt("car", 5.0).value(), Vec2(50, 0));
  EXPECT_FALSE(store.PositionAt("car", 25.0).ok());
  const Trajectory slice = store.TimeSlice("car", 5.0, 15.0).value();
  ASSERT_EQ(slice.size(), 3u);
  EXPECT_EQ(slice[0], TimedPoint(5.0, 50.0, 0.0));
  EXPECT_EQ(slice[1], TimedPoint(10.0, 100.0, 0.0));
  EXPECT_EQ(slice[2], TimedPoint(15.0, 100.0, 50.0));
}

TEST(TrajectoryStoreTest, TimeSliceClipsAndRejects) {
  TrajectoryStore store(Codec::kRaw);
  ASSERT_TRUE(store.Insert("car", Traj({{0, 0, 0}, {10, 100, 0}})).ok());
  const Trajectory clipped = store.TimeSlice("car", -5.0, 5.0).value();
  EXPECT_DOUBLE_EQ(clipped.front().t, 0.0);
  EXPECT_DOUBLE_EQ(clipped.back().t, 5.0);
  EXPECT_FALSE(store.TimeSlice("car", 11.0, 12.0).ok());
  EXPECT_FALSE(store.TimeSlice("ghost", 0.0, 1.0).ok());
}

TEST(TrajectoryStoreTest, ObjectsInBox) {
  TrajectoryStore store(Codec::kRaw);
  ASSERT_TRUE(store.Insert("east", Traj({{0, 100, 0}, {10, 200, 0}})).ok());
  ASSERT_TRUE(store.Insert("north", Traj({{0, 0, 100}, {10, 0, 200}})).ok());
  const BoundingBox east_box{{50, -50}, {250, 50}};
  const auto hits = store.ObjectsInBox(east_box);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], "east");
}

TEST(TrajectoryStoreTest, StorageAccounting) {
  TrajectoryStore delta(Codec::kDelta);
  TrajectoryStore raw(Codec::kRaw);
  const Trajectory trajectory = Line(200, 10.0, 12.0, 0.0);
  ASSERT_TRUE(delta.Insert("t", trajectory).ok());
  ASSERT_TRUE(raw.Insert("t", trajectory).ok());
  EXPECT_LT(delta.StorageBytes(), raw.StorageBytes() / 2);
  EXPECT_EQ(raw.StorageBytes(), 24u * trajectory.size());
}

// Fixes whose coordinates round to zero from below: the decoder cannot
// produce -0.0, so neither may the storage value.
const std::vector<TimedPoint> kSignedZeroFixes = {
    {2000.0, -0.004, -0.001}, {2001.0, 0.003, -0.0049}, {2002.0, -1e-9, 7.0}};

void FillStore(TrajectoryStore* store) {
  ASSERT_TRUE(store->Insert("inserted", RandomWalk(150, 17)).ok());
  // 200 appends cross two block boundaries (64 points per block).
  const Trajectory appended = RandomWalk(200, 19);
  for (const TimedPoint& point : appended.points()) {
    ASSERT_TRUE(store->Append("appended", point).ok());
  }
  for (const TimedPoint& point : kSignedZeroFixes) {
    ASSERT_TRUE(store->Append("signs", point).ok());
  }
}

TEST(TrajectoryStoreTest, StoragePointsMatchDecodedPayload) {
  for (const Codec codec : {Codec::kRaw, Codec::kDelta}) {
    const std::string name = codec == Codec::kRaw ? "raw" : "delta";
    TrajectoryStore store(codec);
    FillStore(&store);
    ExpectResidentMatchesPayload(store, name + " in memory");
    EXPECT_EQ(store.StoragePoints("ghost").status().code(),
              StatusCode::kNotFound);

    // Loading the other codec's image: a kRaw frame's off-grid values
    // must still land on a kDelta store's grid.
    TrajectoryStore other(codec == Codec::kRaw ? Codec::kDelta : Codec::kRaw);
    FillStore(&other);
    const Result<std::string> image = other.SerializeToString();
    ASSERT_TRUE(image.ok());
    TrajectoryStore loaded(codec);
    ASSERT_TRUE(loaded.LoadFromBuffer(*image).ok());
    ExpectResidentMatchesPayload(loaded, name + " loaded other codec");
    TrajectoryStore salvaged(codec);
    ASSERT_TRUE(salvaged.SalvageFromBuffer(*image, nullptr).ok());
    ExpectResidentMatchesPayload(salvaged, name + " salvaged other codec");

    SegmentStore::Options options;
    options.codec = codec;
    const std::string dir = FreshDir("resident_" + name);
    {
      SegmentStore durable(options);
      ASSERT_TRUE(durable.Open(dir).ok());
      ASSERT_TRUE(durable.Insert("inserted", RandomWalk(150, 17)).ok());
      const Trajectory appended = RandomWalk(200, 19);
      for (const TimedPoint& point : appended.points()) {
        ASSERT_TRUE(durable.Append("appended", point).ok());
      }
      for (const TimedPoint& point : kSignedZeroFixes) {
        ASSERT_TRUE(durable.Append("signs", point).ok());
      }
      ASSERT_TRUE(durable.Commit().ok());
    }
    {
      SegmentStore replayed(options);
      ASSERT_TRUE(replayed.Open(dir).ok());
      EXPECT_GT(replayed.last_recovery().wal_records_replayed, 0u);
      ExpectResidentMatchesPayload(replayed.store(), name + " WAL replay");
      ASSERT_TRUE(replayed.Checkpoint().ok());
    }
    SegmentStore reloaded(options);
    ASSERT_TRUE(reloaded.Open(dir).ok());
    EXPECT_FALSE(reloaded.last_recovery().segment_loaded.empty());
    ExpectResidentMatchesPayload(reloaded.store(), name + " segment reload");
    // The durable store holds what the in-memory one does, bit for bit.
    for (const std::string& id : store.ObjectIds()) {
      ExpectBitwiseEqual(*reloaded.store().StoragePoints(id),
                         *store.StoragePoints(id), name + " " + id);
    }
    std::filesystem::remove_all(dir);
  }
}

// Every entry holds what EncodeBlocked writes for its storage values: the
// payload and summary table a fresh encode of its resident points gives.
void ExpectEncodedFromStoragePoints(const TrajectoryStore& store,
                                    const std::string& label) {
  ASSERT_GT(store.object_count(), 0u) << label;
  for (size_t rank = 0; rank < store.object_count(); ++rank) {
    const TrajectoryStore::Entry& entry = store.EntryAt(rank);
    const std::string& id = entry.id;
    // The entry's points are StoragePoints' span.
    const std::span<const TimedPoint> points(entry.decoded.points());
    const std::span<const TimedPoint> resident = *store.StoragePoints(id);
    ASSERT_EQ(points.data(), resident.data()) << label << " " << id;
    ASSERT_EQ(points.size(), resident.size()) << label << " " << id;
    std::string encoded;
    const Result<std::vector<BlockSummary>> expected =
        EncodeBlocked(points.data(), points.size(), store.codec(),
                      kDefaultBlockPoints, &encoded);
    ASSERT_TRUE(expected.ok()) << label << " " << id << ": "
                               << expected.status();
    EXPECT_EQ(entry.encoded, encoded) << label << " " << id;
    EXPECT_EQ(entry.blocks, *expected) << label << " " << id;
  }
}

std::string Image(const TrajectoryStore& store) {
  const Result<std::string> image = store.SerializeToString();
  EXPECT_TRUE(image.ok()) << image.status();
  return image.ok() ? *image : std::string();
}

// Loading an image in the store's own codec keeps each frame's block
// payloads, so the loaded store writes the same image back.
TEST(TrajectoryStoreTest, LoadKeepsPayloadsByteForByte) {
  for (const Codec codec : {Codec::kRaw, Codec::kDelta}) {
    const std::string name = codec == Codec::kRaw ? "raw" : "delta";
    TrajectoryStore store(codec);
    FillStore(&store);
    ExpectEncodedFromStoragePoints(store, name + " in memory");
    const std::string image = Image(store);

    TrajectoryStore loaded(codec);
    ASSERT_TRUE(loaded.LoadFromBuffer(image).ok());
    EXPECT_EQ(Image(loaded), image) << name;
    ExpectEncodedFromStoragePoints(loaded, name + " loaded");
    ExpectResidentMatchesPayload(loaded, name + " loaded");

    TrajectoryStore salvaged(codec);
    FrameScanStats stats;
    ASSERT_TRUE(salvaged.SalvageFromBuffer(image, &stats).ok());
    EXPECT_EQ(stats.frames_good, store.object_count());
    EXPECT_EQ(Image(salvaged), image) << name;
    ExpectEncodedFromStoragePoints(salvaged, name + " salvaged");
    ExpectResidentMatchesPayload(salvaged, name + " salvaged");
  }
}

uint64_t EncodeCalls(Codec codec) {
  return obs::MetricsRegistry::Global()
      .GetCounter("stcomp_store_encode_calls_total",
                  {{"codec", codec == Codec::kRaw ? "raw" : "delta"}})
      ->value();
}

// Keeping payloads means loading encodes nothing; a re-encode would count
// one encode call per block.
TEST(TrajectoryStoreTest, LoadingOwnCodecImageEncodesNothing) {
  for (const Codec codec : {Codec::kRaw, Codec::kDelta}) {
    TrajectoryStore store(codec);
    FillStore(&store);
    const std::string image = Image(store);
    const uint64_t before = EncodeCalls(codec);
    TrajectoryStore loaded(codec);
    ASSERT_TRUE(loaded.LoadFromBuffer(image).ok());
    TrajectoryStore salvaged(codec);
    ASSERT_TRUE(salvaged.SalvageFromBuffer(image, nullptr).ok());
    EXPECT_EQ(EncodeCalls(codec), before)
        << (codec == Codec::kRaw ? "raw" : "delta");
  }
}

// Frames the store does not keep as they are load exactly as a re-encode
// of their decoded points would: what Insert of those points holds.
TEST(TrajectoryStoreTest, OtherFramesLoadAsAReencode) {
  Trajectory walk = RandomWalk(150, 29);
  walk.set_name("veh");
  // Cut the store's way, but the table claims wider extents than the
  // points have; the kept payload must still get the true extents.
  std::string payload;
  std::vector<BlockSummary> wide =
      EncodeBlocked(walk.points().data(), walk.size(), Codec::kDelta,
                    kDefaultBlockPoints, &payload)
          .value();
  for (BlockSummary& block : wide) {
    block.t_min -= 60.0;
    block.bounds.max.x += 1000.0;
  }
  struct Case {
    std::string label;
    Codec store_codec;
    std::string frame;
  };
  const std::vector<Case> cases = {
      {"v1 frame", Codec::kDelta,
       SerializeTrajectory(walk, Codec::kDelta).value()},
      {"kRaw frame in a kDelta store", Codec::kDelta,
       SerializeTrajectoryBlocked(walk, Codec::kRaw).value()},
      {"two-point blocks", Codec::kDelta,
       SerializeTrajectoryBlocked(walk, Codec::kDelta, 2).value()},
      {"wide table extents", Codec::kDelta,
       SerializeBlockedFrame("veh", Codec::kDelta, wide, payload).value()},
  };
  for (const Case& c : cases) {
    std::string_view cursor = c.frame;
    const Result<Trajectory> decoded = DeserializeTrajectory(&cursor);
    ASSERT_TRUE(decoded.ok()) << c.label << ": " << decoded.status();
    TrajectoryStore expected(c.store_codec);
    ASSERT_TRUE(expected.Insert("veh", *decoded).ok()) << c.label;
    const std::string expected_image = Image(expected);

    TrajectoryStore loaded(c.store_codec);
    ASSERT_TRUE(loaded.LoadFromBuffer(c.frame).ok()) << c.label;
    TrajectoryStore salvaged(c.store_codec);
    ASSERT_TRUE(salvaged.SalvageFromBuffer(c.frame, nullptr).ok()) << c.label;
    for (const TrajectoryStore* store : {&loaded, &salvaged}) {
      EXPECT_EQ(Image(*store), expected_image) << c.label;
      ExpectEncodedFromStoragePoints(*store, c.label);
      ExpectBitwiseEqual(*store->StoragePoints("veh"),
                         *expected.StoragePoints("veh"), c.label);
    }
  }
}

// Point and slice reads answer from storage values, so a checkpoint and
// reopen (which reloads the quantised payload) moves nothing.
TEST(TrajectoryStoreTest, PositionAtAndTimeSliceSurviveReload) {
  const Trajectory walk = RandomWalk(150, 23);
  std::vector<double> probes;
  for (size_t i = 0; i + 1 < walk.size(); i += 7) {
    probes.push_back(walk[i].t);
    probes.push_back(walk[i].t + 0.37 * (walk[i + 1].t - walk[i].t));
  }
  struct Answers {
    std::vector<Vec2> positions;
    std::vector<Trajectory> slices;
  };
  const auto read = [&probes](const TrajectoryStore& store) {
    Answers answers;
    for (size_t i = 0; i < probes.size(); ++i) {
      const Result<Vec2> at = store.PositionAt("veh", probes[i]);
      EXPECT_TRUE(at.ok()) << at.status();
      answers.positions.push_back(at.ok() ? *at : Vec2());
      const double t1 = probes[(i + 5) % probes.size()];
      const Result<Trajectory> slice = store.TimeSlice(
          "veh", std::min(probes[i], t1), std::max(probes[i], t1));
      EXPECT_TRUE(slice.ok()) << slice.status();
      answers.slices.push_back(slice.ok() ? *slice : Trajectory());
    }
    return answers;
  };
  const std::string dir = FreshDir("reload_reads");
  Answers before;
  {
    SegmentStore durable;  // kDelta.
    ASSERT_TRUE(durable.Open(dir).ok());
    ASSERT_TRUE(durable.Insert("veh", walk).ok());
    before = read(durable.store());
    ASSERT_TRUE(durable.Checkpoint().ok());
  }
  SegmentStore reopened;
  ASSERT_TRUE(reopened.Open(dir).ok());
  const Answers after = read(reopened.store());
  ASSERT_EQ(before.positions.size(), after.positions.size());
  for (size_t i = 0; i < before.positions.size(); ++i) {
    EXPECT_EQ(Bits(before.positions[i].x), Bits(after.positions[i].x))
        << "probe t=" << probes[i];
    EXPECT_EQ(Bits(before.positions[i].y), Bits(after.positions[i].y))
        << "probe t=" << probes[i];
    EXPECT_EQ(before.slices[i].name(), after.slices[i].name());
    ExpectBitwiseEqual(before.slices[i].points(), after.slices[i].points(),
                       "slice from t=" + std::to_string(probes[i]));
  }
  std::filesystem::remove_all(dir);
}

// Get names its result after the object id, whatever the inserted
// trajectory was called, so the name reads the same after a reload, a
// salvage and a WAL replay as it did after the insert.
TEST(TrajectoryStoreTest, GetNamesTheResultAfterItsId) {
  Trajectory trip = RandomWalk(20, 31);
  trip.set_name("trip-7");
  const auto expect_named = [](const TrajectoryStore& store,
                               const std::string& label) {
    const Result<Trajectory> got = store.Get("bus-1");
    ASSERT_TRUE(got.ok()) << label << ": " << got.status();
    EXPECT_EQ(got->name(), "bus-1") << label;
  };
  TrajectoryStore store;
  ASSERT_TRUE(store.Insert("bus-1", trip).ok());
  expect_named(store, "insert");
  const std::string image = store.SerializeToString().value();
  TrajectoryStore reloaded;
  ASSERT_TRUE(reloaded.LoadFromBuffer(image).ok());
  expect_named(reloaded, "reload");
  TrajectoryStore salvaged;
  ASSERT_TRUE(salvaged.SalvageFromBuffer(image, nullptr).ok());
  expect_named(salvaged, "salvage");

  const std::string dir = FreshDir("get_names");
  {
    SegmentStore durable;
    ASSERT_TRUE(durable.Open(dir).ok());
    ASSERT_TRUE(durable.Insert("bus-1", trip).ok());
    ASSERT_TRUE(durable.Commit().ok());
    expect_named(durable.store(), "segment store insert");
  }
  // No checkpoint was taken: the reopen replays the insert from the WAL.
  SegmentStore reopened;
  ASSERT_TRUE(reopened.Open(dir).ok());
  expect_named(reopened.store(), "WAL replay");
  std::filesystem::remove_all(dir);
}

// kDelta keeps time to 1 ms: two fixes inside one quantum would share a
// stored time, leaving the object undecodable. Both write paths refuse the
// second one up front, and the object then survives a checkpoint.
TEST(TrajectoryStoreTest, FixesInsideOneTimeQuantumAreRefused) {
  TrajectoryStore store;  // kDelta.
  ASSERT_TRUE(store.Append("veh", {1.0001, 0.0, 0.0}).ok());
  EXPECT_EQ(store.Append("veh", {1.0004, 1.0, 1.0}).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(store.Append("veh", {2.0, 2.0, 2.0}).ok());
  const Result<Trajectory> veh = store.Get("veh");
  ASSERT_TRUE(veh.ok()) << veh.status();
  EXPECT_EQ(veh->size(), 2u);
  EXPECT_EQ(store.Insert("pair", Traj({{1.0001, 0, 0}, {1.0004, 1, 1}}))
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.Get("pair").status().code(), StatusCode::kNotFound);

  TrajectoryStore raw(Codec::kRaw);  // Keeps time exactly: both fit.
  ASSERT_TRUE(raw.Append("veh", {1.0001, 0.0, 0.0}).ok());
  EXPECT_TRUE(raw.Append("veh", {1.0004, 1.0, 1.0}).ok());

  const std::string dir = FreshDir("one_quantum");
  {
    SegmentStore durable;  // kDelta.
    ASSERT_TRUE(durable.Open(dir).ok());
    ASSERT_TRUE(durable.Append("veh", {1.0001, 0.0, 0.0}).ok());
    EXPECT_EQ(durable.Append("veh", {1.0004, 1.0, 1.0}).code(),
              StatusCode::kInvalidArgument);
    ASSERT_TRUE(durable.Append("veh", {2.0, 2.0, 2.0}).ok());
    EXPECT_EQ(durable.Insert("pair", Traj({{1.0001, 0, 0}, {1.0004, 1, 1}}))
                  .code(),
              StatusCode::kInvalidArgument);
    ASSERT_TRUE(durable.Checkpoint().ok());
  }
  SegmentStore reopened;
  ASSERT_TRUE(reopened.Open(dir).ok());
  EXPECT_EQ(reopened.last_recovery().segment_frames_salvaged, 0u)
      << reopened.last_recovery().Describe();
  const Result<Trajectory> recovered = reopened.store().Get("veh");
  ASSERT_TRUE(recovered.ok()) << reopened.last_recovery().Describe();
  EXPECT_EQ(recovered->size(), 2u);
  EXPECT_EQ(reopened.store().object_count(), 1u);
  std::filesystem::remove_all(dir);
}

// A fix the codec refuses (out of the quantised range, or a NaN time)
// must leave the object exactly as it was, so later valid fixes append.
TEST(TrajectoryStoreTest, RefusedAppendLeavesObjectUsable) {
  TrajectoryStore store;  // kDelta.
  ASSERT_TRUE(store.Append("veh", {1.0, 10.0, 20.0}).ok());
  EXPECT_EQ(store.Append("veh", {2.0, 1e30, 0.0}).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(
      store
          .Append("veh", {std::numeric_limits<double>::quiet_NaN(), 5.0, 5.0})
          .code(),
      StatusCode::kOutOfRange);
  ASSERT_TRUE(store.Append("veh", {2.0, 30.0, 40.0}).ok());
  const Result<Trajectory> veh = store.Get("veh");
  ASSERT_TRUE(veh.ok()) << veh.status();
  EXPECT_EQ(veh->size(), 2u);
  EXPECT_EQ(store.PositionAt("veh", 2.0).value(), Vec2(30.0, 40.0));
  ExpectResidentMatchesPayload(store, "after refused appends");
  // A refused first fix creates nothing.
  EXPECT_EQ(store.Append("ghost", {0.0, 1e30, 0.0}).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(store.Get("ghost").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.object_count(), 1u);
}


// The directory's two invariants: the walk over ranks runs in strictly
// ascending id order, each rank reachable by a lookup of its id, and
// every entry's extents are the union of its block summaries (inverted
// for an entry without blocks).
void ExpectDirectoryConsistent(const TrajectoryStore& store,
                               const std::string& label) {
  std::vector<std::string> walked;
  for (size_t rank = 0; rank < store.object_count(); ++rank) {
    const TrajectoryStore::Entry& entry = store.EntryAt(rank);
    walked.push_back(entry.id);
    if (rank > 0) {
      EXPECT_LT(store.EntryAt(rank - 1).id, entry.id) << label;
    }
    const Result<const std::vector<BlockSummary>*> found =
        store.BlockSummariesOf(entry.id);
    ASSERT_TRUE(found.ok()) << label << " " << entry.id;
    EXPECT_EQ(*found, &entry.blocks) << label << " " << entry.id;
    TrajectoryStore::Entry expected;
    BoundingBox& box = expected.bounds;
    for (const BlockSummary& block : entry.blocks) {
      expected.t_min = std::min(expected.t_min, block.t_min);
      expected.t_max = std::max(expected.t_max, block.t_max);
      box.min = {std::min(box.min.x, block.bounds.min.x),
                 std::min(box.min.y, block.bounds.min.y)};
      box.max = {std::max(box.max.x, block.bounds.max.x),
                 std::max(box.max.y, block.bounds.max.y)};
    }
    EXPECT_EQ(entry.t_min, expected.t_min) << label << " " << entry.id;
    EXPECT_EQ(entry.t_max, expected.t_max) << label << " " << entry.id;
    EXPECT_EQ(entry.bounds, expected.bounds) << label << " " << entry.id;
  }
  EXPECT_EQ(walked, store.ObjectIds()) << label;
}

// Every mutation kind keeps the directory sorted and the extents exact,
// with ids arriving out of order: insert (an empty trajectory too),
// append (to a known object across a block boundary, and creating new
// objects), remove (the newest, a middle and the smallest entry), load
// and salvage of an image whose frames are not in id order, and WAL
// replay.
TEST(TrajectoryStoreTest, DirectoryStaysSortedWithExactExtents) {
  TrajectoryStore store;
  ExpectDirectoryConsistent(store, "empty");
  uint64_t seed = 30;
  for (const std::string id : {"m", "c", "x", "a", "q"}) {
    ASSERT_TRUE(store.Insert(id, RandomWalk(40 + 20 * (seed % 5), seed)).ok());
    ++seed;
    ExpectDirectoryConsistent(store, "insert " + id);
  }
  ASSERT_TRUE(store.Insert("e", Trajectory()).ok());
  ExpectDirectoryConsistent(store, "insert of an empty trajectory");
  for (int i = 0; i < 70; ++i) {
    ASSERT_TRUE(
        store.Append("c", {1e4 + i, 3.0 * i, -2.0 * (i % 7)}).ok());
    ExpectDirectoryConsistent(store, "append " + std::to_string(i) + " to c");
  }
  for (const std::string id : {"k", "b", "z", "d"}) {
    ASSERT_TRUE(store.Append(id, {5.0, -10.0, 4.0}).ok());
    ASSERT_TRUE(store.Append(id, {6.0, 12.0, -8.0}).ok());
    ExpectDirectoryConsistent(store, "appends creating " + id);
  }
  for (const std::string id : {"d", "m", "a"}) {
    ASSERT_TRUE(store.Remove(id).ok());
    ExpectDirectoryConsistent(store, "remove " + id);
  }
  EXPECT_EQ(store.ObjectIds(),
            (std::vector<std::string>{"b", "c", "e", "k", "q", "x", "z"}));

  // The store's own frames in reverse id order: loading keeps their
  // payloads.
  std::string reversed;
  for (size_t rank = 0; rank < store.object_count(); ++rank) {
    const TrajectoryStore::Entry& entry = store.EntryAt(rank);
    reversed.insert(0, *SerializeBlockedFrame(entry.id, Codec::kDelta,
                                              entry.blocks, entry.encoded));
  }
  TrajectoryStore loaded;
  ASSERT_TRUE(loaded.Insert("stale", RandomWalk(10, 1)).ok());
  ASSERT_TRUE(loaded.LoadFromBuffer(reversed).ok());
  ExpectDirectoryConsistent(loaded, "load");
  EXPECT_EQ(loaded.ObjectIds(), store.ObjectIds());
  // Then v1 frames, which loading re-encodes: a duplicate of "b" and a
  // new id between the others.
  Trajectory walk = RandomWalk(100, 2);
  walk.set_name("n");
  const std::string mixed =
      reversed + *SerializeTrajectory(*store.Get("b"), Codec::kDelta) +
      *SerializeTrajectory(walk, Codec::kDelta);
  EXPECT_EQ(loaded.LoadFromBuffer(mixed).code(), StatusCode::kDataLoss);
  ExpectDirectoryConsistent(loaded, "refused load");
  FrameScanStats stats;
  ASSERT_TRUE(loaded.SalvageFromBuffer(mixed, &stats).ok());
  ExpectDirectoryConsistent(loaded, "salvage");
  EXPECT_EQ(loaded.ObjectIds(), (std::vector<std::string>{
                                    "b", "c", "e", "k", "n", "q", "x", "z"}));

  const std::string dir = FreshDir("directory_replay");
  {
    SegmentStore durable;
    ASSERT_TRUE(durable.Open(dir).ok());
    for (const std::string id : {"t", "f", "w"}) {
      ASSERT_TRUE(durable.Insert(id, RandomWalk(90, ++seed)).ok());
    }
    for (int i = 0; i < 80; ++i) {
      ASSERT_TRUE(durable.Append("g", {1.0 * i, 1.0 * i, -1.0 * i}).ok());
      ASSERT_TRUE(durable.Append("a", {2.0 * i, -3.0 * i, 0.5 * i}).ok());
    }
    ASSERT_TRUE(durable.Remove("t").ok());
    ASSERT_TRUE(durable.Commit().ok());
  }
  SegmentStore replayed;
  ASSERT_TRUE(replayed.Open(dir).ok());
  EXPECT_EQ(replayed.last_recovery().wal_records_replayed, 164u);
  ExpectDirectoryConsistent(replayed.store(), "wal replay");
  EXPECT_EQ(replayed.store().ObjectIds(),
            (std::vector<std::string>{"a", "f", "g", "w"}));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace stcomp
