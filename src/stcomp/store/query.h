// Queries over the compressed store (DESIGN.md §17): the store's own
// directory (trajectory_store.h) holds one entry per object — its block
// summaries (block_summary.h), their extents and its resident storage
// values — and the engine walks it in id order, narrowing the search to
// candidate blocks, whose points alone are read, bisected on time,
// without decoding the payload. Four query types:
//
//   kTimeWindow — objects whose motion overlaps [t0, t1] (extents only;
//                 no points read at all).
//   kRange      — objects whose motion during [t0, t1] enters an axis-
//                 aligned box.
//   kCorridor   — objects whose motion during [t0, t1] comes within
//                 radius_m of a waypoint polyline.
//   kNearest    — the k objects closest to a point during [t0, t1]
//                 (best-first over block lower bounds).
//
// Error-bound-aware semantics: the store holds lossily-compressed
// trajectories, so geometric predicates are evaluated against extents
// inflated by error_bound = declared_error_m (the SED tolerance the data
// was simplified with, supplied by the caller) + the codec quantisation
// bound (kDelta). An object whose *original* motion satisfied the
// predicate is therefore never missed; the answer reports the bound it
// used.
//
// RunQuery (summary-accelerated) and BruteForceQuery (decode everything;
// the oracle) produce bitwise-identical hits for the same store and
// request: the resident storage values equal the decoded payload bit for
// bit, both sides walk them through the same clipping and predicate
// helpers, and skipped blocks and segments provably contain no hits (a
// block's summary covers its points plus the junction point, so every
// polyline segment lies within exactly one block's extents). The
// differential test suite holds this equality across algorithms, shard
// counts and seeded fleets.

#ifndef STCOMP_STORE_QUERY_H_
#define STCOMP_STORE_QUERY_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "stcomp/common/result.h"
#include "stcomp/geom/geometry.h"
#include "stcomp/store/trajectory_store.h"

namespace stcomp {

enum class QueryType : uint8_t {
  kTimeWindow = 0,
  kRange = 1,
  kCorridor = 2,
  kNearest = 3,
};

// "time_window" | "range" | "corridor" | "nearest".
std::string_view QueryTypeName(QueryType type);

struct QueryRequest {
  QueryType type = QueryType::kTimeWindow;
  // Closed time window; the defaults cover all of time.
  double t0 = std::numeric_limits<double>::lowest();
  double t1 = std::numeric_limits<double>::max();
  BoundingBox box;            // kRange.
  std::vector<Vec2> corridor; // kCorridor waypoints (>= 1; 1 = a point).
  double radius_m = 0.0;      // kCorridor.
  Vec2 point;                 // kNearest.
  size_t k = 1;               // kNearest.
  // SED tolerance the stored trajectories were simplified with (metres);
  // widens the match predicates so originally-matching objects are never
  // missed.
  double declared_error_m = 0.0;
};

struct QueryHit {
  std::string id;
  // Set queries: time of the earliest matching (clipped) segment start.
  // kTimeWindow/kRange/kCorridor only.
  double first_hit_t = 0.0;
  // kNearest only: the object's minimum distance to the query point over
  // the window, on the decoded (storage-value) polyline.
  double distance_m = 0.0;
};

struct QueryStats {
  uint64_t objects_considered = 0;
  uint64_t blocks_total = 0;      // Blocks owned by considered objects.
  uint64_t blocks_considered = 0; // Candidates after the summary filter.
  // Candidate blocks whose points were scanned (the name predates the
  // resident points; nothing is decoded any more).
  uint64_t blocks_decoded = 0;
};

struct QueryAnswer {
  // Set queries: ascending by id. kNearest: ascending by (distance, id),
  // exactly min(k, matching objects) entries.
  std::vector<QueryHit> hits;
  double error_bound_m = 0.0;
  QueryStats stats;
};

// kInvalidArgument unless the request is well-formed: t0 <= t1 and finite
// parameters for the chosen type (box min <= max, non-empty finite
// corridor, radius >= 0, k >= 1, declared_error_m >= 0).
Status ValidateQuery(const QueryRequest& request);

// The inflation applied to match predicates: declared_error_m plus the
// codec's quantisation bound (kCoordQuantumM for kDelta, 0 for kRaw).
double QueryErrorBound(const QueryRequest& request, Codec codec);

// Summary-accelerated evaluation over the store's directory. Increments
// the query metrics (/queryz).
Result<QueryAnswer> RunQuery(const TrajectoryStore& store,
                             const QueryRequest& request);

// The oracle: decodes every object in full and evaluates the predicate on
// every segment. Same answers as RunQuery, bit for bit; O(total points)
// always. Does not touch the query metrics.
Result<QueryAnswer> BruteForceQuery(const TrajectoryStore& store,
                                    const QueryRequest& request);

// Parses the CLI query mini-language (trajectory_tool --query):
//
//   window:T0:T1
//   range:T0:T1:MIN_X:MIN_Y:MAX_X:MAX_Y
//   corridor:T0:T1:RADIUS:X0,Y0;X1,Y1;...
//   nearest:T0:T1:K:X:Y
//
// T0/T1 may be "-" for an unbounded end. kInvalidArgument with a usage
// message on malformed specs.
Result<QueryRequest> ParseQuerySpec(std::string_view spec);

// One-line JSON summary of a query answer (ids escaped via
// obs::JsonEscape).
std::string RenderQueryAnswerJson(const QueryRequest& request,
                                  const QueryAnswer& answer);

// The /queryz document: cumulative per-type query counts, block
// considered/decoded totals and the latency histogram summary.
std::string RenderQueryzJson();

}  // namespace stcomp

#endif  // STCOMP_STORE_QUERY_H_
