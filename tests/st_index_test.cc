// SpatioTemporalIndex (DESIGN.md §17): the entry as the query's one
// per-object record (its resident points and table extents), the binding
// to the store it was built from, the candidate scan's exactness at
// summary granularity (RunQuery's per-object bisection on time must
// consider exactly the blocks a test of every summary finds, at unbounded
// windows and at windows that start or end on a block boundary), the STIX
// round trip, and corruption hardening — a full single-bit-flip sweep
// over the serialized image must come back as kDataLoss, never a crash or
// a silently-wrong index.

#include "stcomp/store/st_index.h"

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "stcomp/store/query.h"
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

// RunQuery's range query over `box` and [t0, t1] considers exactly the
// blocks a test of every summary in `store` finds: those overlapping the
// window whose box meets the query box inflated by the error bound.
void ExpectConsideredMatchesSummaryScan(const TrajectoryStore& store,
                                        const SpatioTemporalIndex& index,
                                        const BoundingBox& box, double t0,
                                        double t1, const std::string& label) {
  QueryRequest request;
  request.type = QueryType::kRange;
  request.box = box;
  request.t0 = t0;
  request.t1 = t1;
  const double by = QueryErrorBound(request, store.codec());
  const BoundingBox inflated{{box.min.x - by, box.min.y - by},
                             {box.max.x + by, box.max.y + by}};
  uint64_t expected = 0;
  for (const std::string& id : store.ObjectIds()) {
    for (const BlockSummary& block : **store.BlockSummariesOf(id)) {
      if (block.OverlapsTime(t0, t1) && block.bounds.Intersects(inflated)) {
        ++expected;
      }
    }
  }
  const Result<QueryAnswer> answer = RunQuery(store, index, request);
  ASSERT_TRUE(answer.ok()) << label << ": " << answer.status();
  EXPECT_EQ(answer->stats.blocks_considered, expected) << label;
  EXPECT_LE(answer->stats.blocks_decoded, expected) << label;
}

// Each entry is the object's record: its table, its resident storage
// values (the very span StoragePoints returns) and extents that cover
// every block.
TEST(StIndexTest, BuildCoversEveryBlock) {
  const TrajectoryStore store = FleetStore(6, 100);
  const SpatioTemporalIndex index = SpatioTemporalIndex::BuildFromStore(store);
  ASSERT_TRUE(index.BoundTo(store));
  ASSERT_EQ(index.objects().size(), 6u);
  size_t blocks = 0;
  for (const auto& object : index.objects()) {
    EXPECT_EQ(object.num_points, 120u);
    blocks += object.blocks.size();
    const std::span<const TimedPoint> resident = *store.StoragePoints(object.id);
    EXPECT_EQ(object.points.data(), resident.data()) << object.id;
    EXPECT_EQ(object.points.size(), resident.size()) << object.id;
    EXPECT_EQ(object.t_min, object.blocks.front().t_min) << object.id;
    EXPECT_EQ(object.t_max, object.blocks.back().t_max) << object.id;
    for (const BlockSummary& block : object.blocks) {
      EXPECT_LE(object.bounds.min.x, block.bounds.min.x) << object.id;
      EXPECT_LE(object.bounds.min.y, block.bounds.min.y) << object.id;
      EXPECT_GE(object.bounds.max.x, block.bounds.max.x) << object.id;
      EXPECT_GE(object.bounds.max.y, block.bounds.max.y) << object.id;
    }
  }
  EXPECT_EQ(blocks, 12u);  // 120 points => 2 blocks of 64/56 per object.
  // An all-covering query considers every block exactly once.
  QueryRequest everything;
  everything.type = QueryType::kRange;
  everything.box = {{-1e9, -1e9}, {1e9, 1e9}};
  everything.t0 = -1e18;
  everything.t1 = 1e18;
  const Result<QueryAnswer> answer = RunQuery(store, index, everything);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->stats.blocks_total, blocks);
  EXPECT_EQ(answer->stats.blocks_considered, blocks);
}

// The extents and the bisection are narrowing devices, never filters: the
// blocks a range query considers must equal a test of every summary, for
// any box and any window — unbounded, or starting or ending exactly on a
// block's t_min or t_max.
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
    ExpectConsideredMatchesSummaryScan(store, index, box, t0, t1,
                                       "query " + std::to_string(q));
  }
}

// A block whose bounds span 100 km is still one summary: the scan must
// consider it for every box it meets, near the fleet or far from it, and
// for bounded as well as unbounded windows.
TEST(StIndexTest, OversizeBlocksStayExact) {
  TrajectoryStore store;
  // Two fixes 100 km apart inside one block.
  ASSERT_TRUE(store.Insert("wide", testutil::Traj({{0.0, 0.0, 0.0},
                                                   {10.0, 100000.0, 100000.0}}))
                  .ok());
  ASSERT_TRUE(store.Insert("near", testutil::RandomWalk(40, 8)).ok());
  const SpatioTemporalIndex index = SpatioTemporalIndex::BuildFromStore(store);
  ASSERT_EQ(index.objects().back().id, "wide");
  ASSERT_EQ(index.objects().back().blocks.size(), 1u);
  Rng rng(5);
  for (int q = 0; q < 20; ++q) {
    const Vec2 corner{rng.NextUniform(-1000.0, 100000.0),
                      rng.NextUniform(-1000.0, 100000.0)};
    const BoundingBox box{corner, corner + Vec2{500.0, 500.0}};
    ExpectConsideredMatchesSummaryScan(store, index, box, -1e18, 1e18,
                                       "unbounded " + std::to_string(q));
    const double t0 = rng.NextUniform(-5.0, 15.0);
    const double t1 = t0 + rng.NextUniform(0.0, 10.0);
    ExpectConsideredMatchesSummaryScan(store, index, box, t0, t1,
                                       "bounded " + std::to_string(q));
  }
}

// An index stays bound while its store is unchanged. Every successful
// mutation unbinds it; a refused one leaves the store, and so the
// binding, as it was.
TEST(StIndexTest, BoundUntilTheStoreChanges) {
  TrajectoryStore store = FleetStore(3, 40);
  const std::string image = store.SerializeToString().value();
  SpatioTemporalIndex index = SpatioTemporalIndex::BuildFromStore(store);
  ASSERT_TRUE(index.BoundTo(store));
  const auto expect_unbound_then_rebind = [&](const Status& status,
                                              const std::string& what) {
    ASSERT_TRUE(status.ok()) << what << ": " << status;
    EXPECT_FALSE(index.BoundTo(store)) << what;
    index = SpatioTemporalIndex::BuildFromStore(store);
    ASSERT_TRUE(index.BoundTo(store)) << what;
  };
  const auto expect_still_bound = [&](const Status& status,
                                      const std::string& what) {
    ASSERT_FALSE(status.ok()) << what;
    EXPECT_TRUE(index.BoundTo(store)) << what;
  };

  expect_unbound_then_rebind(
      store.Insert("veh-9", testutil::RandomWalk(30, 1)), "insert");
  expect_unbound_then_rebind(store.Append("veh-0", {1e7, 0.0, 0.0}),
                             "append to an existing object");
  expect_unbound_then_rebind(store.Append("veh-new", {5.0, 1.0, 2.0}),
                             "append creating an object");
  expect_unbound_then_rebind(store.Remove("veh-9"), "remove");
  expect_unbound_then_rebind(store.LoadFromBuffer(image), "load");
  expect_unbound_then_rebind(store.SalvageFromBuffer(image, nullptr),
                             "salvage");

  expect_still_bound(store.Append("veh-0", {0.0, 0.0, 0.0}),
                     "refused append (time not after the last fix)");
  expect_still_bound(store.Insert("veh-1", testutil::RandomWalk(5, 2)),
                     "refused insert (duplicate id)");
  expect_still_bound(store.Remove("ghost"), "refused remove (unknown id)");
  expect_still_bound(store.LoadFromBuffer(image.substr(0, image.size() - 1)),
                     "refused load (truncated image)");
}

// Copies and moves draw fresh stamps, at both ends of a move: no index is
// bound to a copy, and none survives being moved from or assigned over.
TEST(StIndexTest, CopiesAndMovesUnbind) {
  const TrajectoryStore source = FleetStore(2, 50);
  const SpatioTemporalIndex of_source =
      SpatioTemporalIndex::BuildFromStore(source);

  const TrajectoryStore copy(source);
  EXPECT_FALSE(of_source.BoundTo(copy));
  EXPECT_TRUE(of_source.BoundTo(source));  // Copying leaves the source be.

  TrajectoryStore assigned = FleetStore(1, 60);
  const SpatioTemporalIndex of_assigned =
      SpatioTemporalIndex::BuildFromStore(assigned);
  assigned = source;
  EXPECT_FALSE(of_assigned.BoundTo(assigned));

  TrajectoryStore from = FleetStore(2, 70);
  const SpatioTemporalIndex of_from = SpatioTemporalIndex::BuildFromStore(from);
  TrajectoryStore to(std::move(from));
  EXPECT_FALSE(of_from.BoundTo(from));
  EXPECT_FALSE(of_from.BoundTo(to));

  const SpatioTemporalIndex of_to = SpatioTemporalIndex::BuildFromStore(to);
  TrajectoryStore target = FleetStore(1, 80);
  const SpatioTemporalIndex of_target =
      SpatioTemporalIndex::BuildFromStore(target);
  target = std::move(to);
  EXPECT_FALSE(of_to.BoundTo(to));
  EXPECT_FALSE(of_to.BoundTo(target));
  EXPECT_FALSE(of_target.BoundTo(target));
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
    EXPECT_TRUE(loaded->objects()[i].points.empty());
  }
  // Bytes carry no points, so a loaded index is bound to no store.
  EXPECT_FALSE(loaded->BoundTo(store));
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
  EXPECT_EQ(loaded->SerializeToString(), index.SerializeToString());
  EXPECT_FALSE(loaded->BoundTo(store));
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
