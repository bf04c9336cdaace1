// SpatioTemporalIndex (DESIGN.md §17): STIX round trip, candidate
// exactness at summary granularity (the per-object bisection on time must
// return exactly what a test of every summary returns, at unbounded
// windows and at windows that start or end on a block boundary), stale-
// index detection via payload CRCs and summary tables, and corruption
// hardening — a full single-bit-flip sweep over the serialized image must
// come back as kDataLoss, never a crash or a silently-wrong index.

#include "stcomp/store/st_index.h"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stcomp/store/serialization.h"
#include "stcomp/store/trajectory_store.h"
#include "stcomp/store/varint.h"
#include "test_util.h"

namespace stcomp {
namespace {

TrajectoryStore FleetStore(size_t objects, uint64_t seed) {
  TrajectoryStore store;
  for (size_t i = 0; i < objects; ++i) {
    STCOMP_CHECK_OK(store.Insert("veh-" + std::to_string(i),
                                 testutil::RandomWalk(120, seed + i)));
  }
  return store;
}

// Re-stamps the trailing CRC after an in-place edit, so only the edit
// differs from a valid image.
void RestampCrc(std::string* image) {
  const uint32_t crc =
      Crc32(std::string_view(*image).substr(0, image->size() - 4));
  for (int i = 0; i < 4; ++i) {
    (*image)[image->size() - 4 + static_cast<size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xff);
  }
}

// Byte offset of objects()[0].blocks[0].t_max in `index`'s image: the
// header, the object count, the first object's id, point count, CRC and
// block count, then the block's two size varints and its t_min.
size_t FirstBlockTMaxOffset(const SpatioTemporalIndex& index) {
  const auto& object = index.objects().front();
  std::string prefix(13, '\0');  // magic, version, cell size
  PutVarint(index.objects().size(), &prefix);
  PutVarint(object.id.size(), &prefix);
  prefix += object.id;
  PutVarint(object.num_points, &prefix);
  prefix.append(4, '\0');  // payload crc
  PutVarint(object.blocks.size(), &prefix);
  PutVarint(object.blocks[0].count, &prefix);
  PutVarint(object.blocks[0].byte_length, &prefix);
  return prefix.size() + 8;
}

std::vector<SpatioTemporalIndex::Posting> BruteForceCandidates(
    const SpatioTemporalIndex& index, const BoundingBox& box, double t0,
    double t1) {
  std::vector<SpatioTemporalIndex::Posting> expected;
  for (uint32_t object = 0; object < index.objects().size(); ++object) {
    const auto& blocks = index.objects()[object].blocks;
    for (uint32_t block = 0; block < blocks.size(); ++block) {
      if (blocks[block].OverlapsTime(t0, t1) &&
          blocks[block].bounds.Intersects(box)) {
        expected.push_back({object, block});
      }
    }
  }
  return expected;
}

TEST(StIndexTest, BuildCoversEveryBlock) {
  const TrajectoryStore store = FleetStore(6, 100);
  const SpatioTemporalIndex index = SpatioTemporalIndex::BuildFromStore(store);
  ASSERT_EQ(index.objects().size(), 6u);
  size_t blocks = 0;
  for (const auto& object : index.objects()) {
    EXPECT_EQ(object.num_points, 120u);
    blocks += object.blocks.size();
  }
  EXPECT_EQ(blocks, 12u);  // 120 points => 2 blocks of 64/56 per object.
  // An all-covering query returns every block exactly once.
  const BoundingBox everything{{-1e9, -1e9}, {1e9, 1e9}};
  EXPECT_EQ(index.CandidateBlocks(everything, -1e18, 1e18).size(), blocks);
}

// The bisection is a narrowing device, never a filter: candidates must
// equal a test of every summary, for any box and any window — unbounded,
// or starting or ending exactly on a block's t_min or t_max.
TEST(StIndexTest, CandidatesMatchSummaryScan) {
  TrajectoryStore store = FleetStore(8, 500);
  // One block 100 km across (two fixes) and a single-point object.
  ASSERT_TRUE(store.Insert("wide", testutil::Traj({{0.0, 0.0, 0.0},
                                                   {10.0, 100000.0, 100000.0}}))
                  .ok());
  ASSERT_TRUE(store.Insert("lone", testutil::Traj({{250.0, 40.0, -30.0}})).ok());
  const SpatioTemporalIndex index = SpatioTemporalIndex::BuildFromStore(store);
  std::vector<double> edges;
  for (const auto& object : index.objects()) {
    for (const BlockSummary& block : object.blocks) {
      edges.push_back(block.t_min);
      edges.push_back(block.t_max);
    }
  }
  constexpr double kLowest = std::numeric_limits<double>::lowest();
  constexpr double kMax = std::numeric_limits<double>::max();
  Rng rng(77);
  const auto edge = [&] { return edges[rng.NextBelow(edges.size())]; };
  for (int q = 0; q < 400; ++q) {
    // Alternate boxes around the fleet with boxes along the wide block.
    const bool far = q % 2 == 1;
    const Vec2 corner{rng.NextUniform(far ? -1000.0 : -2000.0,
                                      far ? 100000.0 : 2000.0),
                      rng.NextUniform(far ? -1000.0 : -2000.0,
                                      far ? 100000.0 : 2000.0)};
    const double size = far ? 500.0 : rng.NextUniform(10.0, 3000.0);
    const BoundingBox box{corner, corner + Vec2{size, size}};
    double t0 = rng.NextUniform(0.0, 600.0);
    double t1 = t0 + rng.NextUniform(0.0, 600.0);
    switch (q / 2 % 5) {
      case 0:
        break;
      case 1:  // Unbounded on one or both sides.
        t0 = kLowest;
        t1 = rng.NextBool(0.5) ? kMax : t1;
        break;
      case 2:
        t1 = kMax;
        break;
      case 3:  // Starts on a block boundary.
        t0 = edge();
        t1 = std::max(t0, t1);
        break;
      case 4:  // Ends on a block boundary, sometimes an instant.
        t1 = edge();
        t0 = rng.NextBool(0.5) ? t1 : std::min(t0, t1);
        break;
    }
    EXPECT_EQ(index.CandidateBlocks(box, t0, t1),
              BruteForceCandidates(index, box, t0, t1))
        << "query " << q;
  }
}

// A block whose bounds span 100 km is still one summary: the scan must
// return it for every box it meets, near the fleet or far from it, and for
// bounded as well as unbounded windows.
TEST(StIndexTest, OversizeBlocksStayExact) {
  TrajectoryStore store;
  // Two fixes 100 km apart inside one block.
  ASSERT_TRUE(store.Insert("wide", testutil::Traj({{0.0, 0.0, 0.0},
                                                   {10.0, 100000.0, 100000.0}}))
                  .ok());
  ASSERT_TRUE(store.Insert("near", testutil::RandomWalk(40, 8)).ok());
  const SpatioTemporalIndex index = SpatioTemporalIndex::BuildFromStore(store);
  ASSERT_EQ(index.objects().front().blocks.size(), 1u);
  Rng rng(5);
  for (int q = 0; q < 20; ++q) {
    const Vec2 corner{rng.NextUniform(-1000.0, 100000.0),
                      rng.NextUniform(-1000.0, 100000.0)};
    const BoundingBox box{corner, corner + Vec2{500.0, 500.0}};
    EXPECT_EQ(index.CandidateBlocks(box, -1e18, 1e18),
              BruteForceCandidates(index, box, -1e18, 1e18));
    const double t0 = rng.NextUniform(-5.0, 15.0);
    const double t1 = t0 + rng.NextUniform(0.0, 10.0);
    EXPECT_EQ(index.CandidateBlocks(box, t0, t1),
              BruteForceCandidates(index, box, t0, t1));
  }
}

TEST(StIndexTest, SerializeRoundTrips) {
  const TrajectoryStore store = FleetStore(5, 900);
  const SpatioTemporalIndex index = SpatioTemporalIndex::BuildFromStore(store);
  const std::string image = index.SerializeToString();
  Result<SpatioTemporalIndex> loaded =
      SpatioTemporalIndex::LoadFromBuffer(image);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->objects().size(), index.objects().size());
  for (size_t i = 0; i < index.objects().size(); ++i) {
    EXPECT_EQ(loaded->objects()[i].id, index.objects()[i].id);
    EXPECT_EQ(loaded->objects()[i].num_points, index.objects()[i].num_points);
    EXPECT_EQ(loaded->objects()[i].payload_crc,
              index.objects()[i].payload_crc);
    EXPECT_EQ(loaded->objects()[i].blocks, index.objects()[i].blocks);
  }
  EXPECT_TRUE(loaded->Matches(store));
  // Same candidates from the parsed summaries.
  const BoundingBox box{{-500.0, -500.0}, {1500.0, 1500.0}};
  EXPECT_EQ(loaded->CandidateBlocks(box, 0.0, 400.0),
            index.CandidateBlocks(box, 0.0, 400.0));
  // Deterministic bytes for a given logical content.
  EXPECT_EQ(loaded->SerializeToString(), image);
}

TEST(StIndexTest, EmptyIndexRoundTrips) {
  const TrajectoryStore store;
  const SpatioTemporalIndex index = SpatioTemporalIndex::BuildFromStore(store);
  Result<SpatioTemporalIndex> loaded =
      SpatioTemporalIndex::LoadFromBuffer(index.SerializeToString());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->objects().empty());
  EXPECT_TRUE(loaded->Matches(store));
}

// A stale index must be detected even when object ids and point counts
// all still agree — the payload CRC is what catches a same-shape rewrite.
TEST(StIndexTest, MatchesDetectsStaleness) {
  TrajectoryStore store = FleetStore(3, 40);
  const SpatioTemporalIndex index = SpatioTemporalIndex::BuildFromStore(store);
  ASSERT_TRUE(index.Matches(store));

  // New object.
  ASSERT_TRUE(store.Insert("veh-9", testutil::RandomWalk(30, 1)).ok());
  EXPECT_FALSE(index.Matches(store));
  ASSERT_TRUE(store.Remove("veh-9").ok());
  EXPECT_TRUE(index.Matches(store));

  // Appended fix (count changes).
  ASSERT_TRUE(store.Append("veh-0", {1e7, 0.0, 0.0}).ok());
  EXPECT_FALSE(index.Matches(store));

  // Same id, same point count, different data (CRC changes).
  TrajectoryStore rewritten;
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(rewritten
                    .Insert("veh-" + std::to_string(i),
                            testutil::RandomWalk(120, 4000 + i))
                    .ok());
  }
  EXPECT_FALSE(index.Matches(rewritten));

  // Removed object.
  TrajectoryStore smaller = FleetStore(2, 40);
  EXPECT_FALSE(index.Matches(smaller));
}

// Same ids, counts and payload CRCs but one summary changed: the scan
// trusts the summaries, so an index whose table differs from the store's
// must not be adopted.
TEST(StIndexTest, MatchesComparesSummaryTables) {
  const TrajectoryStore store = FleetStore(2, 70);
  const SpatioTemporalIndex index = SpatioTemporalIndex::BuildFromStore(store);
  ASSERT_TRUE(index.Matches(store));
  const auto& blocks = index.objects().front().blocks;
  ASSERT_GT(blocks.size(), 1u);
  std::string image = index.SerializeToString();
  const size_t offset = FirstBlockTMaxOffset(index);
  std::string t_max;
  PutDouble(blocks[0].t_max, &t_max);
  ASSERT_EQ(image.substr(offset, 8), t_max);
  // Still ordered (block 1 ends later), so the image stays loadable.
  std::string later;
  PutDouble(blocks[0].t_max + 0.5, &later);
  image.replace(offset, 8, later);
  RestampCrc(&image);
  Result<SpatioTemporalIndex> loaded =
      SpatioTemporalIndex::LoadFromBuffer(image);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->objects().front().blocks[0].t_max, blocks[0].t_max + 0.5);
  EXPECT_FALSE(loaded->Matches(store));
}

// A table whose t_max decreases would break the bisection; no store
// produces one, so loading refuses it.
TEST(StIndexTest, RejectsSummariesOutOfTimeOrder) {
  const TrajectoryStore store = FleetStore(1, 71);
  const SpatioTemporalIndex index = SpatioTemporalIndex::BuildFromStore(store);
  const auto& blocks = index.objects().front().blocks;
  ASSERT_GT(blocks.size(), 1u);
  std::string image = index.SerializeToString();
  std::string past_next;
  PutDouble(blocks[1].t_max + 1.0, &past_next);
  image.replace(FirstBlockTMaxOffset(index), 8, past_next);
  RestampCrc(&image);
  Result<SpatioTemporalIndex> loaded =
      SpatioTemporalIndex::LoadFromBuffer(image);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

// Corruption hardening: CRC32 detects every single-bit error, so flipping
// any one bit of the image must yield kDataLoss.
TEST(StIndexTest, EverySingleBitFlipIsDataLoss) {
  const TrajectoryStore store = FleetStore(2, 60);
  const SpatioTemporalIndex index = SpatioTemporalIndex::BuildFromStore(store);
  const std::string image = index.SerializeToString();
  ASSERT_TRUE(SpatioTemporalIndex::LoadFromBuffer(image).ok());
  for (size_t byte = 0; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = image;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      Result<SpatioTemporalIndex> loaded =
          SpatioTemporalIndex::LoadFromBuffer(mutated);
      ASSERT_FALSE(loaded.ok())
          << "bit " << bit << " of byte " << byte << " accepted";
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
    }
  }
}

// A future format version must be refused even with a valid CRC.
TEST(StIndexTest, RejectsUnknownVersion) {
  const TrajectoryStore store = FleetStore(1, 2);
  std::string image =
      SpatioTemporalIndex::BuildFromStore(store).SerializeToString();
  ASSERT_GT(image.size(), 9u);
  image[4] = 2;  // version byte follows the 4-byte magic
  RestampCrc(&image);
  Result<SpatioTemporalIndex> loaded =
      SpatioTemporalIndex::LoadFromBuffer(image);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(StIndexTest, RejectsTruncationAndTrailingBytes) {
  const TrajectoryStore store = FleetStore(2, 3);
  const std::string image =
      SpatioTemporalIndex::BuildFromStore(store).SerializeToString();
  for (const size_t keep : {size_t{0}, size_t{3}, size_t{8}, image.size() - 1}) {
    EXPECT_FALSE(
        SpatioTemporalIndex::LoadFromBuffer(image.substr(0, keep)).ok())
        << "accepted a " << keep << "-byte prefix";
  }
  EXPECT_FALSE(SpatioTemporalIndex::LoadFromBuffer(image + "x").ok());
}

}  // namespace
}  // namespace stcomp
