// Focused round-trip edge cases for store/varint and store/codec: the
// byte-length boundaries of the LEB128 coding, the extreme encodable
// values, and the zero-point / one-point trajectory paths of the codecs
// and the CRC frame.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stcomp/store/codec.h"
#include "stcomp/store/serialization.h"
#include "stcomp/store/varint.h"
#include "test_util.h"

namespace stcomp {
namespace {

using testutil::Traj;

TEST(VarintEdgeTest, EveryByteLengthBoundaryRoundTrips) {
  // 2^(7k) - 1 is the largest k-byte varint; 2^(7k) needs k+1 bytes.
  for (int k = 1; k <= 9; ++k) {
    const uint64_t last_k_byte = (uint64_t{1} << (7 * k)) - 1;
    const uint64_t first_k1_byte = uint64_t{1} << (7 * k);
    for (const uint64_t value : {last_k_byte, first_k1_byte}) {
      std::string buffer;
      PutVarint(value, &buffer);
      EXPECT_EQ(buffer.size(),
                value == last_k_byte ? static_cast<size_t>(k)
                                     : static_cast<size_t>(k) + 1)
          << "value=" << value;
      std::string_view cursor = buffer;
      EXPECT_EQ(GetVarint(&cursor).value(), value);
      EXPECT_TRUE(cursor.empty());
    }
  }
}

TEST(VarintEdgeTest, ZeroAndMaxRoundTrip) {
  std::string buffer;
  PutVarint(0, &buffer);
  EXPECT_EQ(buffer.size(), 1u);
  std::string_view cursor = buffer;
  EXPECT_EQ(GetVarint(&cursor).value(), 0u);

  buffer.clear();
  PutVarint(UINT64_MAX, &buffer);
  EXPECT_EQ(buffer.size(), 10u);
  cursor = buffer;
  EXPECT_EQ(GetVarint(&cursor).value(), UINT64_MAX);
}

TEST(VarintEdgeTest, OverlongEncodingRejected) {
  // 11 continuation bytes never terminate within the 10-byte cap.
  const std::string overlong(11, '\x80');
  std::string_view cursor = overlong;
  EXPECT_EQ(GetVarint(&cursor).status().code(), StatusCode::kDataLoss);
}

// A lenient reader decodes each of these to a value, but none is the
// encoding PutVarint writes for it.
TEST(VarintEdgeTest, NonCanonicalEncodingsRejected) {
  std::string high_bits(9, '\xff');
  high_bits.push_back('\x7f');  // UINT64_MAX plus bits above 63.
  std::string bit_64(9, '\x80');
  bit_64.push_back('\x02');  // 2^64 does not fit.
  const std::vector<std::string> non_canonical = {
      std::string("\x80\x00", 2),      // 0 padded with a zero group.
      std::string("\x81\x80\x00", 3),  // 1 padded with two.
      high_bits,
      bit_64,
  };
  for (const std::string& bytes : non_canonical) {
    std::string_view cursor = bytes;
    EXPECT_EQ(GetVarint(&cursor).status().code(), StatusCode::kDataLoss)
        << bytes.size() << " bytes";
    EXPECT_EQ(cursor.size(), bytes.size()) << "consumed input on failure";
    cursor = bytes;
    EXPECT_EQ(GetSignedVarint(&cursor).status().code(),
              StatusCode::kDataLoss);
  }
  // The canonical 10-byte form of UINT64_MAX ends in 01.
  std::string max(9, '\xff');
  max.push_back('\x01');
  std::string_view cursor = max;
  EXPECT_EQ(GetVarint(&cursor).value(), UINT64_MAX);
  EXPECT_TRUE(cursor.empty());
}

// A trajectory frame whose only fault is a padded varint: every other
// byte is what the writer emits, and the CRC is re-stamped over it.
TEST(VarintEdgeTest, FrameWithPaddedVarintIsDataLoss) {
  Trajectory trajectory = Traj({{0.0, 0.0, 0.0}, {1.0, 2.0, 3.0}});
  trajectory.set_name("veh");
  const std::string frame =
      SerializeTrajectory(trajectory, Codec::kDelta).value();
  // "STCT" | version | codec | name length | name | ... | crc32.
  ASSERT_EQ(frame[6], '\x03');
  std::string padded = frame.substr(0, 6) + std::string("\x83\x00", 2) +
                       frame.substr(7, frame.size() - 7 - 4);
  const uint32_t crc = Crc32(padded);
  for (int shift = 0; shift < 32; shift += 8) {
    padded.push_back(static_cast<char>((crc >> shift) & 0xff));
  }
  std::string_view cursor = padded;
  EXPECT_EQ(DeserializeTrajectory(&cursor).status().code(),
            StatusCode::kDataLoss);
  cursor = frame;
  EXPECT_TRUE(DeserializeTrajectory(&cursor).ok());
}

TEST(VarintEdgeTest, SignedExtremesRoundTrip) {
  for (const int64_t value : {int64_t{0}, int64_t{1}, int64_t{-1}, INT64_MAX,
                              INT64_MIN, INT64_MIN + 1}) {
    std::string buffer;
    PutSignedVarint(value, &buffer);
    std::string_view cursor = buffer;
    EXPECT_EQ(GetSignedVarint(&cursor).value(), value);
    EXPECT_TRUE(cursor.empty());
  }
}

TEST(CodecEdgeTest, EmptyTrajectoryEncodesToNothing) {
  for (const Codec codec : {Codec::kRaw, Codec::kDelta}) {
    std::string buffer;
    ASSERT_TRUE(EncodePoints(Trajectory(), codec, &buffer).ok());
    EXPECT_TRUE(buffer.empty());
    std::string_view cursor = buffer;
    EXPECT_EQ(DecodePoints(&cursor, codec, 0).value().size(), 0u);
  }
}

TEST(CodecEdgeTest, SinglePointRoundTrips) {
  const Trajectory one = Traj({{12.5, -3.75, 1e6}});
  for (const Codec codec : {Codec::kRaw, Codec::kDelta}) {
    std::string buffer;
    ASSERT_TRUE(EncodePoints(one, codec, &buffer).ok());
    std::string_view cursor = buffer;
    const auto points = DecodePoints(&cursor, codec, 1).value();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_NEAR(points[0].t, 12.5, kTimeQuantumS / 2);
    EXPECT_NEAR(points[0].position.x, -3.75, kCoordQuantumM / 2);
    EXPECT_NEAR(points[0].position.y, 1e6, kCoordQuantumM / 2);
  }
}

TEST(CodecEdgeTest, DecodeFromEmptyInputFails) {
  for (const Codec codec : {Codec::kRaw, Codec::kDelta}) {
    std::string_view empty;
    EXPECT_FALSE(DecodePoints(&empty, codec, 1).ok());
  }
}

TEST(CodecEdgeTest, DeltaRejectsUnquantisableMagnitudes) {
  // |x| / 1 cm would exceed the int64 quantisation guard.
  const Trajectory huge = Traj({{0.0, 1e18, 0.0}, {1.0, 1e18, 1.0}});
  std::string buffer;
  EXPECT_EQ(EncodePoints(huge, Codec::kDelta, &buffer).code(),
            StatusCode::kOutOfRange);
  // The raw codec stores doubles verbatim and must accept the same input.
  EXPECT_TRUE(EncodePoints(huge, Codec::kRaw, &buffer).ok());
}

TEST(CodecEdgeTest, DeltaLargestQuantisableCoordinateRoundTrips) {
  // Just inside the 9.0e18 quantisation guard: 8.9e18 cm = 8.9e16 m.
  const double x = 8.9e16;
  const Trajectory edge = Traj({{0.0, x, -x}, {1.0, x, -x}});
  std::string buffer;
  ASSERT_TRUE(EncodePoints(edge, Codec::kDelta, &buffer).ok());
  std::string_view cursor = buffer;
  const auto points = DecodePoints(&cursor, Codec::kDelta, 2).value();
  ASSERT_EQ(points.size(), 2u);
  // At this magnitude double spacing dwarfs the 0.5 cm quantum; the bound
  // is the relative representation error.
  EXPECT_NEAR(points[1].position.x, x, 1e-10 * x);
  EXPECT_NEAR(points[1].position.y, -x, 1e-10 * x);
}

TEST(SerializationEdgeTest, EmptyTrajectoryFrameRoundTrips) {
  for (const Codec codec : {Codec::kRaw, Codec::kDelta}) {
    Trajectory empty;
    empty.set_name("nothing-here");
    const std::string frame = SerializeTrajectory(empty, codec).value();
    std::string_view cursor = frame;
    const Trajectory decoded = DeserializeTrajectory(&cursor).value();
    EXPECT_TRUE(cursor.empty());
    EXPECT_EQ(decoded.size(), 0u);
    EXPECT_EQ(decoded.name(), "nothing-here");
  }
}

}  // namespace
}  // namespace stcomp
