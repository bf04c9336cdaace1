// Blocked codec stream invariants (DESIGN.md §17): incremental per-point
// append produces byte- and summary-identical state to bulk EncodeBlocked;
// every decoded point stays inside its block's declared extents; every
// polyline segment lies within exactly one block's summary (the junction
// invariant that makes query-time block skipping sound); and
// ParseSummaryTable rejects every malformed table with kDataLoss.

#include "stcomp/store/block_summary.h"

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stcomp/store/codec.h"
#include "stcomp/store/trajectory_store.h"
#include "test_util.h"

namespace stcomp {
namespace {

std::vector<BlockSummary> Encode(const Trajectory& trajectory, Codec codec,
                                 size_t block_points, std::string* out) {
  Result<std::vector<BlockSummary>> blocks = EncodeBlocked(
      trajectory.points().data(), trajectory.size(), codec, block_points, out);
  EXPECT_TRUE(blocks.ok()) << blocks.status().ToString();
  return *blocks;
}

TEST(BlockSummaryTest, BulkEncodingSplitsIntoBlocks) {
  const Trajectory walk = testutil::RandomWalk(150, 7);
  std::string payload;
  const std::vector<BlockSummary> blocks =
      Encode(walk, Codec::kDelta, kDefaultBlockPoints, &payload);
  ASSERT_EQ(blocks.size(), 3u);  // ceil(150 / 64)
  EXPECT_EQ(blocks[0].count, 64u);
  EXPECT_EQ(blocks[1].count, 64u);
  EXPECT_EQ(blocks[2].count, 22u);
  size_t points = 0;
  size_t bytes = 0;
  for (const BlockSummary& block : blocks) {
    EXPECT_EQ(block.first_point, points);
    EXPECT_EQ(block.byte_offset, bytes);
    points += block.count;
    bytes += block.byte_length;
  }
  EXPECT_EQ(points, walk.size());
  EXPECT_EQ(bytes, payload.size());
}

// The incremental store append path must be indistinguishable from a bulk
// insert: same payload bytes, same summary table. The store's recovery
// and golden-format stability both lean on this.
TEST(BlockSummaryTest, IncrementalAppendMatchesBulkInsert) {
  const Trajectory walk = testutil::RandomWalk(200, 11);
  for (const Codec codec : {Codec::kRaw, Codec::kDelta}) {
    TrajectoryStore bulk(codec);
    ASSERT_TRUE(bulk.Insert("veh", walk).ok());
    TrajectoryStore incremental(codec);
    for (const TimedPoint& point : walk.points()) {
      ASSERT_TRUE(incremental.Append("veh", point).ok());
    }
    std::string bulk_payload;
    std::string incremental_payload;
    std::vector<BlockSummary> bulk_blocks;
    std::vector<BlockSummary> incremental_blocks;
    bulk.VisitBlocks([&](const std::string&, size_t,
                         const std::vector<BlockSummary>& blocks,
                         std::string_view payload) {
      bulk_blocks = blocks;
      bulk_payload = std::string(payload);
    });
    incremental.VisitBlocks([&](const std::string&, size_t,
                                const std::vector<BlockSummary>& blocks,
                                std::string_view payload) {
      incremental_blocks = blocks;
      incremental_payload = std::string(payload);
    });
    EXPECT_EQ(bulk_payload, incremental_payload);
    ASSERT_EQ(bulk_blocks.size(), incremental_blocks.size());
    for (size_t i = 0; i < bulk_blocks.size(); ++i) {
      EXPECT_EQ(bulk_blocks[i].count, incremental_blocks[i].count);
      EXPECT_EQ(bulk_blocks[i].byte_length, incremental_blocks[i].byte_length);
      EXPECT_EQ(bulk_blocks[i].t_min, incremental_blocks[i].t_min);
      EXPECT_EQ(bulk_blocks[i].t_max, incremental_blocks[i].t_max);
      EXPECT_EQ(bulk_blocks[i].bounds.min.x, incremental_blocks[i].bounds.min.x);
      EXPECT_EQ(bulk_blocks[i].bounds.min.y, incremental_blocks[i].bounds.min.y);
      EXPECT_EQ(bulk_blocks[i].bounds.max.x, incremental_blocks[i].bounds.max.x);
      EXPECT_EQ(bulk_blocks[i].bounds.max.y, incremental_blocks[i].bounds.max.y);
    }
  }
}

// Storage-value containment: a decoded point never escapes the extents of
// the block that owns it, and neither does the junction point after it.
TEST(BlockSummaryTest, DecodedPointsStayInsideBlockExtents) {
  const Trajectory walk = testutil::RandomWalk(180, 3);
  for (const Codec codec : {Codec::kRaw, Codec::kDelta}) {
    TrajectoryStore store(codec);
    ASSERT_TRUE(store.Insert("veh", walk).ok());
    Result<const std::vector<BlockSummary>*> blocks =
        store.BlockSummariesOf("veh");
    ASSERT_TRUE(blocks.ok());
    const Result<Trajectory> decoded = store.Get("veh");
    ASSERT_TRUE(decoded.ok());
    const std::vector<TimedPoint>& points = decoded->points();
    for (size_t b = 0; b < (*blocks)->size(); ++b) {
      const BlockSummary& summary = (**blocks)[b];
      const bool has_junction = b + 1 < (*blocks)->size();
      const size_t end =
          summary.first_point + summary.count + (has_junction ? 1u : 0u);
      ASSERT_LE(end, points.size());
      for (size_t i = summary.first_point; i < end; ++i) {
        EXPECT_GE(points[i].t, summary.t_min);
        EXPECT_LE(points[i].t, summary.t_max);
        EXPECT_TRUE(summary.bounds.Contains(points[i].position));
      }
    }
    EXPECT_EQ(store.StoragePoints("nope").status().code(),
              StatusCode::kNotFound);
  }
}

// The junction invariant: block b's extents also cover the first point of
// block b+1, so the segment crossing the boundary lies entirely inside
// block b's summary. This is what makes skipping non-candidate blocks
// sound for segment-based predicates.
TEST(BlockSummaryTest, JunctionPointCoveredByPrecedingBlock) {
  const Trajectory walk = testutil::RandomWalk(200, 29);
  TrajectoryStore store;  // kDelta
  ASSERT_TRUE(store.Insert("veh", walk).ok());
  Result<const std::vector<BlockSummary>*> blocks =
      store.BlockSummariesOf("veh");
  ASSERT_TRUE(blocks.ok());
  ASSERT_GT((*blocks)->size(), 1u);
  const Result<Trajectory> decoded = store.Get("veh");
  ASSERT_TRUE(decoded.ok());
  for (size_t b = 0; b + 1 < (*blocks)->size(); ++b) {
    const BlockSummary& summary = (**blocks)[b];
    const BlockSummary& next = (**blocks)[b + 1];
    ASSERT_EQ(summary.first_point + summary.count, next.first_point);
    const TimedPoint& junction = (*decoded)[next.first_point];
    EXPECT_GE(junction.t, summary.t_min);
    EXPECT_LE(junction.t, summary.t_max);
    EXPECT_EQ(junction.t, summary.t_max);
    EXPECT_TRUE(summary.bounds.Contains(junction.position));
  }
}

// Every segment of the decoded polyline lies inside at least one block's
// extents (specifically the block owning its start point).
TEST(BlockSummaryTest, EverySegmentLiesInOneBlock) {
  const Trajectory walk = testutil::RandomWalk(130, 41);
  TrajectoryStore store;
  ASSERT_TRUE(store.Insert("veh", walk).ok());
  Result<Trajectory> decoded = store.Get("veh");
  ASSERT_TRUE(decoded.ok());
  Result<const std::vector<BlockSummary>*> blocks =
      store.BlockSummariesOf("veh");
  ASSERT_TRUE(blocks.ok());
  for (size_t i = 0; i + 1 < decoded->size(); ++i) {
    const TimedPoint& p = decoded->points()[i];
    const TimedPoint& q = decoded->points()[i + 1];
    bool covered = false;
    for (const BlockSummary& summary : **blocks) {
      if (i >= summary.first_point && i < summary.first_point + summary.count &&
          p.t >= summary.t_min && q.t <= summary.t_max &&
          summary.bounds.Contains(p.position) &&
          summary.bounds.Contains(q.position)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "segment " << i << " escapes its block's extents";
  }
}

TEST(BlockSummaryTest, SummaryTableRoundTrips) {
  const Trajectory walk = testutil::RandomWalk(100, 5);
  std::string payload;
  const std::vector<BlockSummary> blocks =
      Encode(walk, Codec::kDelta, 16, &payload);
  std::string table;
  AppendSummaryTable(blocks, &table);
  std::string_view input(table);
  Result<std::vector<BlockSummary>> parsed =
      ParseSummaryTable(&input, blocks.size(), walk.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(input.empty());
  ASSERT_EQ(parsed->size(), blocks.size());
  for (size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ((*parsed)[i].count, blocks[i].count);
    EXPECT_EQ((*parsed)[i].byte_length, blocks[i].byte_length);
    EXPECT_EQ((*parsed)[i].t_min, blocks[i].t_min);
    EXPECT_EQ((*parsed)[i].t_max, blocks[i].t_max);
    EXPECT_EQ((*parsed)[i].first_point, blocks[i].first_point);
    EXPECT_EQ((*parsed)[i].byte_offset, blocks[i].byte_offset);
  }
}

// Malformed tables must come back as kDataLoss — the parser sits on the
// recovery and fuzz paths, where any other outcome is a bug.
TEST(BlockSummaryTest, ParseRejectsMalformedTables) {
  const Trajectory walk = testutil::RandomWalk(40, 13);
  std::string payload;
  const std::vector<BlockSummary> good =
      Encode(walk, Codec::kDelta, 16, &payload);
  std::string table;
  AppendSummaryTable(good, &table);

  const auto expect_rejected = [&](const std::vector<BlockSummary>& blocks,
                                   uint64_t block_count,
                                   uint64_t expected_points,
                                   const char* label) {
    std::string bytes;
    AppendSummaryTable(blocks, &bytes);
    std::string_view input(bytes);
    Result<std::vector<BlockSummary>> parsed =
        ParseSummaryTable(&input, block_count, expected_points);
    EXPECT_FALSE(parsed.ok()) << label;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss) << label;
    }
  };

  // Point counts that do not sum to the expected total.
  expect_rejected(good, good.size(), walk.size() + 1, "sum mismatch");

  // A zero-count block.
  std::vector<BlockSummary> zero_count = good;
  zero_count[0].count = 0;
  expect_rejected(zero_count, zero_count.size(), walk.size(),
                  "zero point count");

  // A zero-length payload slice.
  std::vector<BlockSummary> zero_bytes = good;
  zero_bytes[1].byte_length = 0;
  expect_rejected(zero_bytes, zero_bytes.size(), walk.size(),
                  "zero byte length");

  // Inverted time extents.
  std::vector<BlockSummary> inverted = good;
  std::swap(inverted[0].t_min, inverted[0].t_max);
  inverted[0].t_min += 1.0;
  expect_rejected(inverted, inverted.size(), walk.size(),
                  "t_min > t_max");

  // Non-finite extents.
  std::vector<BlockSummary> nan_bounds = good;
  nan_bounds[0].bounds.min.x = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(nan_bounds, nan_bounds.size(), walk.size(), "NaN extent");

  // Truncated input: a block count larger than the table holds.
  std::string_view truncated(table);
  Result<std::vector<BlockSummary>> parsed =
      ParseSummaryTable(&truncated, good.size() + 4, walk.size());
  EXPECT_FALSE(parsed.ok());

  // An absurd block count must fail cleanly (no pre-reserve explosion).
  std::string_view huge(table);
  parsed = ParseSummaryTable(&huge, uint64_t{1} << 60, walk.size());
  EXPECT_FALSE(parsed.ok());
}

}  // namespace
}  // namespace stcomp
