// The query differential suite (DESIGN.md §17): index-accelerated
// RunQuery must produce BITWISE-identical answers to the brute-force
// decode-everything oracle — across every query type, every registered
// compression algorithm's output, both codecs, seeded uniform and Zipf
// fleets, and shard counts {1, 4} through PartitionedSegmentStore. Plus
// the request-validation and CLI-spec-parsing contracts and the
// error-bound accounting.

#include "stcomp/store/query.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stcomp/algo/registry.h"
#include "stcomp/sim/random.h"
#include "stcomp/store/partitioned_store.h"
#include "stcomp/store/segment_store.h"
#include "stcomp/store/st_index.h"
#include "stcomp/store/trajectory_store.h"
#include "test_util.h"

namespace stcomp {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "query_oracle_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// A seeded fleet: `uniform` gives every object the same length; Zipf
// skews lengths so block counts vary from one block to many.
std::vector<Trajectory> Fleet(size_t objects, uint64_t seed, bool uniform) {
  std::vector<Trajectory> walks;
  walks.reserve(objects);
  for (size_t i = 0; i < objects; ++i) {
    const int fixes =
        uniform ? 150
                : std::max(2, static_cast<int>(300.0 / static_cast<double>(i + 1)));
    walks.push_back(testutil::RandomWalk(fixes, seed + i));
  }
  return walks;
}

// Deterministic request mix covering every type; parameters are drawn
// around the RandomWalk envelope (a few km around the origin, t in
// [0, ~1500]) so queries land empty, partial and saturated.
std::vector<QueryRequest> RequestMix(uint64_t seed, double declared_error_m) {
  Rng rng(seed);
  std::vector<QueryRequest> requests;
  for (int i = 0; i < 12; ++i) {
    const double t0 = rng.NextUniform(-100.0, 1200.0);
    const double t1 = t0 + rng.NextUniform(0.0, 800.0);

    QueryRequest window;
    window.type = QueryType::kTimeWindow;
    window.t0 = t0;
    window.t1 = t1;
    window.declared_error_m = declared_error_m;
    requests.push_back(window);

    QueryRequest range;
    range.type = QueryType::kRange;
    range.t0 = t0;
    range.t1 = t1;
    const Vec2 corner{rng.NextUniform(-4000.0, 3000.0),
                      rng.NextUniform(-4000.0, 3000.0)};
    const double edge = rng.NextUniform(50.0, 3000.0);
    range.box = {corner, corner + Vec2{edge, edge}};
    range.declared_error_m = declared_error_m;
    requests.push_back(range);

    QueryRequest corridor;
    corridor.type = QueryType::kCorridor;
    corridor.t0 = t0;
    corridor.t1 = t1;
    corridor.radius_m = rng.NextUniform(10.0, 500.0);
    const int waypoints = 1 + (i % 3);
    Vec2 at{rng.NextUniform(-3000.0, 3000.0), rng.NextUniform(-3000.0, 3000.0)};
    for (int w = 0; w < waypoints; ++w) {
      corridor.corridor.push_back(at);
      at += Vec2{rng.NextUniform(-1500.0, 1500.0),
                 rng.NextUniform(-1500.0, 1500.0)};
    }
    corridor.declared_error_m = declared_error_m;
    requests.push_back(corridor);

    QueryRequest nearest;
    nearest.type = QueryType::kNearest;
    nearest.t0 = t0;
    nearest.t1 = t1;
    nearest.point = {rng.NextUniform(-3000.0, 3000.0),
                     rng.NextUniform(-3000.0, 3000.0)};
    nearest.k = 1 + static_cast<size_t>(i % 5);
    nearest.declared_error_m = declared_error_m;
    requests.push_back(nearest);
  }
  // The unbounded-window degenerate of each type.
  QueryRequest all;
  all.type = QueryType::kTimeWindow;
  requests.push_back(all);
  QueryRequest everywhere;
  everywhere.type = QueryType::kRange;
  everywhere.box = {{-1e7, -1e7}, {1e7, 1e7}};
  requests.push_back(everywhere);
  return requests;
}

// Requests whose window starts or ends exactly on a bisection edge of
// `store` — a stored point's time, a block's t_min or t_max — or is that
// single instant, with boxes, corridors and query points placed at the
// stored position there; plus nearest requests asking for more objects
// than the store holds.
std::vector<QueryRequest> EdgeRequests(const TrajectoryStore& store,
                                       uint64_t seed,
                                       double declared_error_m) {
  Rng rng(seed);
  std::vector<TimedPoint> anchors;
  for (const std::string& id : store.ObjectIds()) {
    const std::span<const TimedPoint> points = *store.StoragePoints(id);
    for (const BlockSummary& block : **store.BlockSummariesOf(id)) {
      const size_t last =
          std::min<size_t>(block.first_point + block.count, points.size() - 1);
      anchors.push_back(points[block.first_point]);  // t_min.
      anchors.push_back(points[last]);                // t_max.
    }
    if (!points.empty()) {
      anchors.push_back(points[rng.NextBelow(points.size())]);
    }
  }
  std::vector<QueryRequest> requests;
  for (int i = 0; i < 24 && !anchors.empty(); ++i) {
    const TimedPoint& anchor = anchors[rng.NextBelow(anchors.size())];
    const double span = rng.NextUniform(1.0, 400.0);
    QueryRequest request;
    request.declared_error_m = declared_error_m;
    switch (i % 3) {
      case 0:
        request.t0 = anchor.t;
        request.t1 = anchor.t + span;
        break;
      case 1:
        request.t0 = anchor.t - span;
        request.t1 = anchor.t;
        break;
      default:
        request.t0 = anchor.t;
        request.t1 = anchor.t;
        break;
    }
    const Vec2 offset{rng.NextUniform(-300.0, 300.0),
                      rng.NextUniform(-300.0, 300.0)};
    const Vec2 at = anchor.position + offset;
    const double half = rng.NextUniform(1.0, 400.0);
    QueryRequest range = request;
    range.type = QueryType::kRange;
    range.box = {at - Vec2{half, half}, at + Vec2{half, half}};
    requests.push_back(range);
    QueryRequest corridor = request;
    corridor.type = QueryType::kCorridor;
    corridor.radius_m = rng.NextUniform(1.0, 300.0);
    corridor.corridor = {at, at + Vec2{rng.NextUniform(-800.0, 800.0),
                                       rng.NextUniform(-800.0, 800.0)}};
    requests.push_back(corridor);
    QueryRequest nearest = request;
    nearest.type = QueryType::kNearest;
    nearest.point = at;
    nearest.k = 1 + static_cast<size_t>(i % 4);
    requests.push_back(nearest);
  }
  QueryRequest crowd;
  crowd.type = QueryType::kNearest;
  crowd.k = store.object_count() + 3;
  crowd.declared_error_m = declared_error_m;
  requests.push_back(crowd);
  if (!anchors.empty()) {
    crowd.t0 = anchors.front().t;
    crowd.t1 = anchors.front().t + 250.0;
    crowd.point = anchors.back().position;
    requests.push_back(crowd);
  }
  return requests;
}

void ExpectSameAnswer(const QueryAnswer& engine, const QueryAnswer& oracle,
                      const QueryRequest& request, const std::string& label) {
  EXPECT_EQ(engine.error_bound_m, oracle.error_bound_m) << label;
  ASSERT_EQ(engine.hits.size(), oracle.hits.size())
      << label << " type=" << QueryTypeName(request.type);
  for (size_t i = 0; i < engine.hits.size(); ++i) {
    EXPECT_EQ(engine.hits[i].id, oracle.hits[i].id) << label << " hit " << i;
    // Bitwise, not approximate: both sides decode the same storage values
    // through the same clipping helpers.
    EXPECT_EQ(engine.hits[i].first_hit_t, oracle.hits[i].first_hit_t)
        << label << " hit " << i;
    EXPECT_EQ(engine.hits[i].distance_m, oracle.hits[i].distance_m)
        << label << " hit " << i;
  }
  // The index must never decode more blocks than a full scan holds.
  EXPECT_LE(engine.stats.blocks_decoded, engine.stats.blocks_total) << label;
  EXPECT_LE(engine.stats.blocks_considered, engine.stats.blocks_total) << label;
}

void RunDifferential(const TrajectoryStore& store, uint64_t request_seed,
                     double declared_error_m, const std::string& label) {
  const SpatioTemporalIndex index = SpatioTemporalIndex::BuildFromStore(store);
  ASSERT_TRUE(index.Matches(store));
  std::vector<QueryRequest> requests =
      RequestMix(request_seed, declared_error_m);
  for (QueryRequest& request :
       EdgeRequests(store, request_seed + 1, declared_error_m)) {
    requests.push_back(std::move(request));
  }
  for (const QueryRequest& request : requests) {
    const Result<QueryAnswer> engine = RunQuery(store, index, request);
    const Result<QueryAnswer> oracle = BruteForceQuery(store, request);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    ExpectSameAnswer(*engine, *oracle, request, label);
  }
}

TEST(QueryOracleTest, UniformFleetMatchesOracle) {
  for (const Codec codec : {Codec::kRaw, Codec::kDelta}) {
    TrajectoryStore store(codec);
    const std::vector<Trajectory> walks = Fleet(10, 2000, /*uniform=*/true);
    for (size_t i = 0; i < walks.size(); ++i) {
      ASSERT_TRUE(store.Insert("veh-" + std::to_string(i), walks[i]).ok());
    }
    RunDifferential(store, 31, 0.0,
                    codec == Codec::kRaw ? "uniform/raw" : "uniform/delta");
  }
}

TEST(QueryOracleTest, ZipfFleetMatchesOracle) {
  TrajectoryStore store;
  const std::vector<Trajectory> walks = Fleet(12, 6000, /*uniform=*/false);
  for (size_t i = 0; i < walks.size(); ++i) {
    ASSERT_TRUE(store.Insert("veh-" + std::to_string(i), walks[i]).ok());
  }
  RunDifferential(store, 47, 25.0, "zipf/delta");
}

// Single-fix objects exercise the degenerate-segment paths on both sides.
TEST(QueryOracleTest, SinglePointObjectsMatchOracle) {
  TrajectoryStore store;
  Rng rng(9);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(store
                    .Insert("dot-" + std::to_string(i),
                            testutil::Traj({{rng.NextUniform(0.0, 1000.0),
                                             rng.NextUniform(-2000.0, 2000.0),
                                             rng.NextUniform(-2000.0, 2000.0)}}))
                    .ok());
  }
  RunDifferential(store, 53, 0.0, "single-point");
}

// Every registered algorithm's output lands in the store and must stay
// queryable: simplified trajectories have irregular gaps, which is
// exactly where block extents and clipping earn their keep.
TEST(QueryOracleTest, AllRegisteredAlgorithmsMatchOracle) {
  const std::vector<Trajectory> walks = Fleet(6, 12000, /*uniform=*/true);
  for (const algo::AlgorithmInfo& info : algo::AllAlgorithms()) {
    TrajectoryStore store;
    algo::AlgorithmParams params;
    params.epsilon_m = 40.0;
    for (size_t i = 0; i < walks.size(); ++i) {
      const Trajectory simplified =
          walks[i].Subset(testutil::RunAlgorithm(info, walks[i], params));
      ASSERT_TRUE(
          store.Insert("veh-" + std::to_string(i), simplified).ok());
    }
    RunDifferential(store, 61, params.epsilon_m, "algo=" + info.name);
  }
}

// The cross-shard fan-out must be indistinguishable from an unsharded
// store with the same contents, for shard counts 1 and 4, uniform and
// Zipf fleets.
TEST(QueryOracleTest, ShardedQueryMatchesUnshardedOracle) {
  for (const bool uniform : {true, false}) {
    const std::vector<Trajectory> walks =
        Fleet(10, uniform ? 20000 : 30000, uniform);
    TrajectoryStore reference;
    for (size_t i = 0; i < walks.size(); ++i) {
      ASSERT_TRUE(
          reference.Insert("veh-" + std::to_string(i), walks[i]).ok());
    }
    for (const size_t shards : {size_t{1}, size_t{4}}) {
      const std::string dir =
          FreshDir((uniform ? "uniform_" : "zipf_") + std::to_string(shards));
      PartitionedSegmentStore::Options options;
      options.num_shards = shards;
      PartitionedSegmentStore partitioned(options);
      ASSERT_TRUE(partitioned.Open(dir).ok());
      for (size_t i = 0; i < walks.size(); ++i) {
        ASSERT_TRUE(
            partitioned.Insert("veh-" + std::to_string(i), walks[i]).ok());
      }
      for (const QueryRequest& request : RequestMix(71, 10.0)) {
        const Result<QueryAnswer> engine = partitioned.Query(request);
        const Result<QueryAnswer> oracle =
            BruteForceQuery(reference, request);
        ASSERT_TRUE(engine.ok()) << engine.status().ToString();
        ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
        ExpectSameAnswer(*engine, *oracle, request,
                         (uniform ? "uniform" : "zipf") + std::string("/") +
                             std::to_string(shards) + " shards");
      }
      std::filesystem::remove_all(dir);
    }
  }
}

// Mutations through the segment store must be visible to the next query —
// the lazily-rebuilt index may never serve stale candidates.
TEST(QueryOracleTest, SegmentStoreQueryTracksMutations) {
  const std::string dir = FreshDir("mutations");
  SegmentStore store;
  ASSERT_TRUE(store.Open(dir).ok());
  QueryRequest everywhere;
  everywhere.type = QueryType::kRange;
  everywhere.box = {{-1e7, -1e7}, {1e7, 1e7}};

  ASSERT_TRUE(store.Insert("a", testutil::RandomWalk(80, 1)).ok());
  Result<QueryAnswer> answer = store.Query(everywhere);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->hits.size(), 1u);

  ASSERT_TRUE(store.Insert("b", testutil::RandomWalk(80, 2)).ok());
  ASSERT_TRUE(store.Append("a", {1e6, 50.0, 50.0}).ok());
  answer = store.Query(everywhere);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->hits.size(), 2u);

  ASSERT_TRUE(store.Remove("a").ok());
  answer = store.Query(everywhere);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->hits.size(), 1u);
  EXPECT_EQ(answer->hits[0].id, "b");

  const Result<QueryAnswer> oracle = BruteForceQuery(store.store(), everywhere);
  ASSERT_TRUE(oracle.ok());
  ExpectSameAnswer(*answer, *oracle, everywhere, "post-mutation");
  std::filesystem::remove_all(dir);
}

// RunQuery's precondition is an index that describes the store. One that
// describes longer objects than the store holds must come back as an
// error, never as a read past the resident points.
TEST(QueryOracleTest, StaleIndexIsAnError) {
  TrajectoryStore longer;
  ASSERT_TRUE(longer.Insert("veh", testutil::RandomWalk(200, 3)).ok());
  const SpatioTemporalIndex index = SpatioTemporalIndex::BuildFromStore(longer);
  TrajectoryStore shorter;
  ASSERT_TRUE(shorter.Insert("veh", testutil::RandomWalk(10, 3)).ok());
  ASSERT_FALSE(index.Matches(shorter));
  QueryRequest range;
  range.type = QueryType::kRange;
  range.box = {{-1e7, -1e7}, {1e7, 1e7}};
  QueryRequest nearest;
  nearest.type = QueryType::kNearest;
  for (const QueryRequest& request : {range, nearest}) {
    EXPECT_EQ(RunQuery(shorter, index, request).status().code(),
              StatusCode::kOutOfRange);
    EXPECT_EQ(RunQuery(TrajectoryStore(), index, request).status().code(),
              StatusCode::kNotFound);
  }
}

TEST(QueryOracleTest, ErrorBoundAccountsForCodecQuantisation) {
  QueryRequest request;
  request.declared_error_m = 30.0;
  EXPECT_EQ(QueryErrorBound(request, Codec::kRaw), 30.0);
  EXPECT_EQ(QueryErrorBound(request, Codec::kDelta), 30.0 + kCoordQuantumM);

  TrajectoryStore store;  // kDelta
  ASSERT_TRUE(store.Insert("veh", testutil::RandomWalk(40, 4)).ok());
  const SpatioTemporalIndex index = SpatioTemporalIndex::BuildFromStore(store);
  request.type = QueryType::kRange;
  request.box = {{-100.0, -100.0}, {100.0, 100.0}};
  const Result<QueryAnswer> answer = RunQuery(store, index, request);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->error_bound_m, 30.0 + kCoordQuantumM);
}

// The widened predicate really widens: an object hugging the box at a
// distance inside the declared error must be reported.
TEST(QueryOracleTest, DeclaredErrorWidensMatches) {
  TrajectoryStore store(Codec::kRaw);
  // A straight run along y = 105, outside a box whose max y is 100.
  ASSERT_TRUE(
      store.Insert("edge", testutil::Line(10, 10.0, 20.0, 0.0, 0.0, 105.0))
          .ok());
  const SpatioTemporalIndex index = SpatioTemporalIndex::BuildFromStore(store);
  QueryRequest request;
  request.type = QueryType::kRange;
  request.box = {{0.0, 0.0}, {2000.0, 100.0}};
  Result<QueryAnswer> answer = RunQuery(store, index, request);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->hits.empty());
  request.declared_error_m = 10.0;
  answer = RunQuery(store, index, request);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->hits.size(), 1u);
  const Result<QueryAnswer> oracle = BruteForceQuery(store, request);
  ASSERT_TRUE(oracle.ok());
  ExpectSameAnswer(*answer, *oracle, request, "widened");
}

// A segment 3,156 m from a corridor leg on nearly the same line: every
// orientation sign of the crossing test comes from rounding. Without the
// bounding-box check in SegmentsIntersect the oracle's predicate reported
// the pair as intersecting, while the engine's block tightening (exact
// against axis-aligned box edges) dropped the block, so the two disagreed.
TEST(QueryOracleTest, FarApartNearlyCollinearSegmentIsNoCorridorHit) {
  TrajectoryStore store(Codec::kRaw);
  ASSERT_TRUE(store
                  .Insert("veh",
                          testutil::Traj(
                              {{0.0, -4916.6883744880261, -1691.179513080715},
                               {10.0, -3837.8248405584513,
                                1479.7326689710667}}))
                  .ok());
  const SpatioTemporalIndex index = SpatioTemporalIndex::BuildFromStore(store);
  QueryRequest request;
  request.type = QueryType::kCorridor;
  request.t0 = 0.0;
  request.t1 = 10.0;
  request.radius_m = 50.0;
  request.corridor = {{-2821.1565090990844, 4467.8455265710936},
                      {-1916.6883744880261, 7126.1882512247848}};
  const Result<QueryAnswer> engine = RunQuery(store, index, request);
  const Result<QueryAnswer> oracle = BruteForceQuery(store, request);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_TRUE(engine->hits.empty());
  EXPECT_TRUE(oracle->hits.empty());
}

TEST(QueryValidationTest, RejectsMalformedRequests) {
  QueryRequest request;
  EXPECT_TRUE(ValidateQuery(request).ok());

  request.t0 = 10.0;
  request.t1 = 5.0;
  EXPECT_EQ(ValidateQuery(request).code(), StatusCode::kInvalidArgument);
  request.t1 = 20.0;
  EXPECT_TRUE(ValidateQuery(request).ok());

  request.declared_error_m = -1.0;
  EXPECT_EQ(ValidateQuery(request).code(), StatusCode::kInvalidArgument);
  request.declared_error_m = 0.0;

  request.type = QueryType::kRange;
  request.box = {{10.0, 0.0}, {0.0, 10.0}};  // min.x > max.x
  EXPECT_EQ(ValidateQuery(request).code(), StatusCode::kInvalidArgument);
  request.box = {{0.0, 0.0}, {10.0, 10.0}};
  EXPECT_TRUE(ValidateQuery(request).ok());

  request.type = QueryType::kCorridor;
  EXPECT_EQ(ValidateQuery(request).code(),
            StatusCode::kInvalidArgument);  // empty corridor
  request.corridor = {{0.0, 0.0}, {100.0, 100.0}};
  request.radius_m = -5.0;
  EXPECT_EQ(ValidateQuery(request).code(), StatusCode::kInvalidArgument);
  request.radius_m = 50.0;
  EXPECT_TRUE(ValidateQuery(request).ok());

  request.type = QueryType::kNearest;
  request.k = 0;
  EXPECT_EQ(ValidateQuery(request).code(), StatusCode::kInvalidArgument);
  request.k = 3;
  request.point = {std::nan(""), 0.0};
  EXPECT_EQ(ValidateQuery(request).code(), StatusCode::kInvalidArgument);
  request.point = {0.0, 0.0};
  EXPECT_TRUE(ValidateQuery(request).ok());
}

TEST(QuerySpecTest, ParsesEveryType) {
  Result<QueryRequest> request = ParseQuerySpec("window:10:20");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->type, QueryType::kTimeWindow);
  EXPECT_EQ(request->t0, 10.0);
  EXPECT_EQ(request->t1, 20.0);

  request = ParseQuerySpec("window:-:-");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->t0, std::numeric_limits<double>::lowest());
  EXPECT_EQ(request->t1, std::numeric_limits<double>::max());

  request = ParseQuerySpec("range:0:100:-50:-60:70:80");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->type, QueryType::kRange);
  EXPECT_EQ(request->box.min.x, -50.0);
  EXPECT_EQ(request->box.min.y, -60.0);
  EXPECT_EQ(request->box.max.x, 70.0);
  EXPECT_EQ(request->box.max.y, 80.0);

  request = ParseQuerySpec("corridor:0:600:25:0,0;100,50;200,0");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->type, QueryType::kCorridor);
  EXPECT_EQ(request->radius_m, 25.0);
  ASSERT_EQ(request->corridor.size(), 3u);
  EXPECT_EQ(request->corridor[1].x, 100.0);
  EXPECT_EQ(request->corridor[1].y, 50.0);

  request = ParseQuerySpec("nearest:-:-:5:1000:2000");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->type, QueryType::kNearest);
  EXPECT_EQ(request->k, 5u);
  EXPECT_EQ(request->point.x, 1000.0);
  EXPECT_EQ(request->point.y, 2000.0);
}

TEST(QuerySpecTest, RejectsMalformedSpecs) {
  for (const char* spec :
       {"", "bogus:1:2", "window:1", "window:abc:2", "window:20:10",
        "range:0:1:2:3:4", "range:0:1:50:0:10:10", "corridor:0:1:-5:0,0",
        "corridor:0:1:10:", "corridor:0:1:10:0;1", "nearest:0:1:0:0:0",
        "nearest:0:1:x:0:0", "nearest:0:1:2:0"}) {
    const Result<QueryRequest> request = ParseQuerySpec(spec);
    EXPECT_FALSE(request.ok()) << "accepted: " << spec;
    if (!request.ok()) {
      EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument)
          << spec;
    }
  }
}

TEST(QueryJsonTest, RenderEscapesIdsAndReportsStats) {
  TrajectoryStore store(Codec::kRaw);
  const std::string hostile_id = "veh-\"quoted\"\nnon-ascii-\xc3\xa9";
  ASSERT_TRUE(store.Insert(hostile_id, testutil::RandomWalk(10, 6)).ok());
  const SpatioTemporalIndex index = SpatioTemporalIndex::BuildFromStore(store);
  QueryRequest request;
  request.type = QueryType::kRange;
  request.box = {{-1e6, -1e6}, {1e6, 1e6}};
  const Result<QueryAnswer> answer = RunQuery(store, index, request);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->hits.size(), 1u);
  const std::string json = RenderQueryAnswerJson(request, *answer);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos) << json;
  EXPECT_NE(json.find("\\n"), std::string::npos) << json;
  // The raw quote and newline must not survive unescaped inside the id.
  EXPECT_EQ(json.find(hostile_id), std::string::npos) << json;
  EXPECT_NE(json.find("\"type\":\"range\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"blocks_decoded\""), std::string::npos) << json;
}

}  // namespace
}  // namespace stcomp
