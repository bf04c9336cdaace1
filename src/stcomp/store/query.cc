#include "stcomp/store/query.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <span>
#include <tuple>
#include <utility>

#include "stcomp/common/strings.h"
#include "stcomp/obs/exposition.h"
#include "stcomp/obs/metrics.h"
#include "stcomp/obs/timer.h"

namespace stcomp {

namespace {

constexpr double kUnboundedLow = std::numeric_limits<double>::lowest();
constexpr double kUnboundedHigh = std::numeric_limits<double>::max();

struct QueryMetricsSet {
  obs::Counter* by_type[4];
  obs::Counter* blocks_considered;
  obs::Counter* blocks_decoded;
  obs::Histogram* seconds;
};

const QueryMetricsSet& Metrics() {
  static const QueryMetricsSet* const kMetrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    auto counter = [&registry](const char* type) {
      return registry.GetCounter("stcomp_query_total", {{"type", type}});
    };
    return new QueryMetricsSet{
        {counter("time_window"), counter("range"), counter("corridor"),
         counter("nearest")},
        registry.GetCounter("stcomp_query_blocks_considered_total"),
        registry.GetCounter("stcomp_query_blocks_decoded_total"),
        registry.GetHistogram("stcomp_query_seconds", {},
                              obs::LatencyBucketsSeconds())};
  }();
  return *kMetrics;
}

BoundingBox Inflate(const BoundingBox& box, double by) {
  return BoundingBox{{box.min.x - by, box.min.y - by},
                     {box.max.x + by, box.max.y + by}};
}

// A polyline segment clipped to the query window, positions interpolated
// at the clipped endpoints. RunQuery and BruteForceQuery feed identical
// storage-value points through this, so both see identical doubles — the
// bitwise engine/oracle equality starts here.
struct ClippedSegment {
  double ta = 0.0;
  double tb = 0.0;
  Vec2 pa;
  Vec2 pb;
};

bool ClipSegmentToWindow(const TimedPoint& p, const TimedPoint& q, double t0,
                         double t1, ClippedSegment* out) {
  if (q.t < t0 || p.t > t1) {
    return false;
  }
  out->ta = std::max(p.t, t0);
  out->tb = std::min(q.t, t1);
  const double span = q.t - p.t;
  if (span <= 0.0) {
    out->pa = p.position;
    out->pb = q.position;
    return true;
  }
  out->pa = out->ta == p.t ? p.position
                           : Lerp(p.position, q.position, (out->ta - p.t) / span);
  out->pb = out->tb == q.t ? q.position
                           : Lerp(p.position, q.position, (out->tb - p.t) / span);
  return true;
}

// The match predicate of a set query (time-window / range / corridor),
// with the error bound already folded into `box` / `corridor_radius`.
struct SetPredicate {
  QueryType type = QueryType::kTimeWindow;
  BoundingBox box;
  const std::vector<Vec2>* corridor = nullptr;
  double corridor_radius = 0.0;
  // Bounding box of each corridor leg, the waypoint itself for a
  // one-waypoint corridor: a leg provably farther than the radius from a
  // segment's box (BoxesFartherThan) is skipped without its exact test.
  std::vector<BoundingBox> legs;

  bool Matches(const ClippedSegment& seg) const {
    switch (type) {
      case QueryType::kTimeWindow:
        return true;
      case QueryType::kRange:
        return SegmentIntersectsBox(seg.pa, seg.pb, box);
      case QueryType::kCorridor: {
        const std::vector<Vec2>& w = *corridor;
        const BoundingBox bounds = SegmentBounds(seg.pa, seg.pb);
        if (w.size() == 1) {
          return !BoxesFartherThan(legs[0], bounds, corridor_radius) &&
                 PointToSegmentDistance(w[0], seg.pa, seg.pb) <=
                     corridor_radius;
        }
        for (size_t i = 0; i + 1 < w.size(); ++i) {
          if (!BoxesFartherThan(legs[i], bounds, corridor_radius) &&
              SegmentToSegmentDistance(seg.pa, seg.pb, w[i], w[i + 1]) <=
                  corridor_radius) {
            return true;
          }
        }
        return false;
      }
      case QueryType::kNearest:
        return false;  // kNearest has no boolean predicate.
    }
    return false;
  }
};

// The set predicate of `request` widened by `error_bound_m`; RunQuery and
// BruteForceQuery both evaluate this one.
SetPredicate MakeSetPredicate(const QueryRequest& request,
                              double error_bound_m) {
  SetPredicate pred;
  pred.type = request.type;
  if (request.type == QueryType::kRange) {
    pred.box = Inflate(request.box, error_bound_m);
  } else if (request.type == QueryType::kCorridor) {
    const std::vector<Vec2>& w = request.corridor;
    pred.corridor = &w;
    pred.corridor_radius = request.radius_m + error_bound_m;
    const size_t leg_count = w.size() == 1 ? 1 : w.size() - 1;
    for (size_t i = 0; i < leg_count; ++i) {
      pred.legs.push_back(SegmentBounds(w[i], w[w.size() == 1 ? i : i + 1]));
    }
  }
  return pred;
}

// Scans `points` (a full object, or one block plus its junction) for the
// first predicate match; a single point is tested as a degenerate
// segment. Returns true and the clipped start time of the first matching
// segment.
bool FirstHitInSpan(std::span<const TimedPoint> points, double t0, double t1,
                    const SetPredicate& pred, double* first_hit_t) {
  if (points.size() == 1) {
    const TimedPoint& p = points[0];
    if (p.t < t0 || p.t > t1) {
      return false;
    }
    const ClippedSegment seg{p.t, p.t, p.position, p.position};
    if (!pred.Matches(seg)) {
      return false;
    }
    *first_hit_t = p.t;
    return true;
  }
  for (size_t i = 0; i + 1 < points.size(); ++i) {
    ClippedSegment seg;
    if (!ClipSegmentToWindow(points[i], points[i + 1], t0, t1, &seg)) {
      continue;
    }
    if (pred.Matches(seg)) {
      *first_hit_t = seg.ta;
      return true;
    }
  }
  return false;
}

// Minimum distance from `query` to the clipped polyline over `points`;
// false when no segment overlaps the window.
bool MinDistanceInSpan(std::span<const TimedPoint> points, double t0,
                       double t1, Vec2 query, double* min_distance) {
  bool any = false;
  double best = kUnboundedHigh;
  if (points.size() == 1) {
    const TimedPoint& p = points[0];
    if (p.t >= t0 && p.t <= t1) {
      any = true;
      best = Distance(query, p.position);
    }
  } else {
    for (size_t i = 0; i + 1 < points.size(); ++i) {
      ClippedSegment seg;
      if (!ClipSegmentToWindow(points[i], points[i + 1], t0, t1, &seg)) {
        continue;
      }
      any = true;
      best = std::min(best, PointToSegmentDistance(query, seg.pa, seg.pb));
    }
  }
  if (any) {
    *min_distance = best;
  }
  return any;
}

// The part of a block's points whose segments overlap [t0, t1]. Segment
// i runs from points[i] to points[i + 1]; times strictly increase, so the
// overlapping segments run from the first one ending at or after t0 to
// the last one starting at or before t1. Fewer than two points come back
// unchanged, and an empty span means no segment overlaps, so the span
// helpers above test exactly the segments their window clip would keep.
std::span<const TimedPoint> SegmentsInWindow(std::span<const TimedPoint> points,
                                             double t0, double t1) {
  if (points.size() < 2) {
    return points;
  }
  const auto first =
      std::partition_point(points.begin() + 1, points.end(),
                           [t0](const TimedPoint& p) { return p.t < t0; }) -
      1;
  const auto stop =
      std::partition_point(first, points.end() - 1,
                           [t1](const TimedPoint& p) { return p.t <= t1; });
  if (stop == first) {
    return {};
  }
  return {first, stop + 1};
}

// The blocks of one object's summary table whose time spans overlap
// [t0, t1], as a [begin, end) index range. Timestamps strictly increase
// and a block's t_max is its junction point's time, so t_min and t_max
// are both nondecreasing along a table and those blocks form one run:
// from the first block ending at or after t0 to the last starting at or
// before t1. Two bisections find it.
std::pair<size_t, size_t> BlocksOverlappingTime(
    const std::vector<BlockSummary>& blocks, double t0, double t1) {
  const auto begin = std::partition_point(
      blocks.begin(), blocks.end(),
      [t0](const BlockSummary& block) { return block.t_max < t0; });
  const auto end = std::partition_point(
      begin, blocks.end(),
      [t1](const BlockSummary& block) { return block.t_min <= t1; });
  return {static_cast<size_t>(begin - blocks.begin()),
          static_cast<size_t>(end - blocks.begin())};
}

// One block's points plus its junction (the next block's first point,
// where the block's last segment ends), sliced from the object's
// resident storage values. The store keeps each summary table in step
// with its points, so the slice never reaches past them.
std::span<const TimedPoint> BlockPoints(const TrajectoryStore::Entry& object,
                                        const BlockSummary& block) {
  const std::span<const TimedPoint> points(object.decoded.points());
  return points.subspan(
      block.first_point,
      std::min<size_t>(block.count + size_t{1},
                       points.size() - block.first_point));
}

// A k-nearest candidate block: EntryAt(object).blocks[block], with the
// distance lower bound of its summary box. Ordered by the full key, so a
// min-heap pops candidates in exactly the order a sort would give.
struct NearestCandidate {
  double lower_bound;
  uint32_t object;
  uint32_t block;
  friend bool operator>(const NearestCandidate& a, const NearestCandidate& b) {
    return std::tie(a.lower_bound, a.object, a.block) >
           std::tie(b.lower_bound, b.object, b.block);
  }
};

// Keeps `top` the k smallest (distance, object ordinal) pairs offered so
// far, ascending, with one entry per object holding its smallest distance.
// O(k) per offer; once full, top->back() is the k-th best distance.
void OfferNearest(std::pair<double, uint32_t> offer, size_t k,
                  std::vector<std::pair<double, uint32_t>>* top) {
  auto it = std::find_if(top->begin(), top->end(), [&offer](const auto& e) {
    return e.second == offer.second;
  });
  if (it != top->end()) {
    if (offer.first >= it->first) {
      return;
    }
    it->first = offer.first;
  } else if (top->size() < k) {
    top->push_back(offer);
    it = top->end() - 1;
  } else if (offer < top->back()) {
    top->back() = offer;
    it = top->end() - 1;
  } else {
    return;
  }
  for (; it != top->begin() && *it < *(it - 1); --it) {
    std::iter_swap(it, it - 1);
  }
}

Status ValidateWindow(const QueryRequest& request) {
  if (std::isnan(request.t0) || std::isnan(request.t1)) {
    return InvalidArgumentError("query window bounds must not be NaN");
  }
  if (request.t0 > request.t1) {
    return InvalidArgumentError("query window start after its end");
  }
  return Status::Ok();
}

bool FiniteVec(Vec2 v) { return std::isfinite(v.x) && std::isfinite(v.y); }

}  // namespace

std::string_view QueryTypeName(QueryType type) {
  switch (type) {
    case QueryType::kTimeWindow:
      return "time_window";
    case QueryType::kRange:
      return "range";
    case QueryType::kCorridor:
      return "corridor";
    case QueryType::kNearest:
      return "nearest";
  }
  return "unknown";
}

Status ValidateQuery(const QueryRequest& request) {
  STCOMP_RETURN_IF_ERROR(ValidateWindow(request));
  if (!std::isfinite(request.declared_error_m) ||
      request.declared_error_m < 0.0) {
    return InvalidArgumentError("declared error must be finite and >= 0");
  }
  switch (request.type) {
    case QueryType::kTimeWindow:
      return Status::Ok();
    case QueryType::kRange:
      if (!FiniteVec(request.box.min) || !FiniteVec(request.box.max)) {
        return InvalidArgumentError("range box must be finite");
      }
      if (request.box.min.x > request.box.max.x ||
          request.box.min.y > request.box.max.y) {
        return InvalidArgumentError("range box min exceeds its max");
      }
      return Status::Ok();
    case QueryType::kCorridor:
      if (request.corridor.empty()) {
        return InvalidArgumentError("corridor needs at least one waypoint");
      }
      for (Vec2 waypoint : request.corridor) {
        if (!FiniteVec(waypoint)) {
          return InvalidArgumentError("corridor waypoints must be finite");
        }
      }
      if (!std::isfinite(request.radius_m) || request.radius_m < 0.0) {
        return InvalidArgumentError(
            "corridor radius must be finite and >= 0");
      }
      return Status::Ok();
    case QueryType::kNearest:
      if (!FiniteVec(request.point)) {
        return InvalidArgumentError("nearest query point must be finite");
      }
      if (request.k == 0) {
        return InvalidArgumentError("nearest k must be >= 1");
      }
      return Status::Ok();
  }
  return InvalidArgumentError("unknown query type");
}

double QueryErrorBound(const QueryRequest& request, Codec codec) {
  return request.declared_error_m +
         (codec == Codec::kDelta ? kCoordQuantumM : 0.0);
}

Result<QueryAnswer> RunQuery(const TrajectoryStore& store,
                             const QueryRequest& request) {
  STCOMP_RETURN_IF_ERROR(ValidateQuery(request));
  STCOMP_SCOPED_TIMER(Metrics().seconds);
  Metrics().by_type[static_cast<size_t>(request.type)]->Increment();
  QueryAnswer answer;
  answer.error_bound_m = QueryErrorBound(request, store.codec());
  const double t0 = request.t0;
  const double t1 = request.t1;
  const size_t object_count = store.object_count();
  answer.stats.objects_considered = object_count;
  // Each pass below walks every object once and adds its blocks to
  // blocks_total. An object whose table extents miss the window has no
  // block in it.
  const auto overlaps_window = [t0, t1](const TrajectoryStore::Entry& object) {
    return object.t_min <= t1 && object.t_max >= t0;
  };

  if (request.type == QueryType::kTimeWindow) {
    // Extents only: block time spans are exact (summaries are built from
    // storage values and time is monotone), so no point is read.
    for (size_t o = 0; o < object_count; ++o) {
      const TrajectoryStore::Entry& object = store.EntryAt(o);
      answer.stats.blocks_total += object.blocks.size();
      if (overlaps_window(object)) {
        answer.hits.push_back(
            QueryHit{object.id, std::max(t0, object.t_min), 0.0});
      }
    }
    Metrics().blocks_considered->Increment(answer.stats.blocks_considered);
    return answer;
  }

  if (request.type == QueryType::kNearest) {
    // Best-first over block distance lower bounds: a block's polyline
    // (points + junction) lies inside its summary box, so
    // PointToBoxDistance never overestimates. Processing in ascending
    // lower-bound order and stopping once the bound strictly exceeds the
    // current k-th best distance is exact, ties included. The min-heap
    // pops in the order a sort of every candidate would give, and only
    // the popped ones pay for their ordering.
    std::vector<NearestCandidate> candidates;
    for (uint32_t o = 0; o < object_count; ++o) {
      const TrajectoryStore::Entry& object = store.EntryAt(o);
      answer.stats.blocks_total += object.blocks.size();
      if (!overlaps_window(object)) {
        continue;
      }
      const std::vector<BlockSummary>& blocks = object.blocks;
      const auto [begin, end] = BlocksOverlappingTime(blocks, t0, t1);
      for (size_t b = begin; b < end; ++b) {
        candidates.push_back(NearestCandidate{
            PointToBoxDistance(request.point, blocks[b].bounds), o,
            static_cast<uint32_t>(b)});
      }
    }
    answer.stats.blocks_considered = candidates.size();
    std::priority_queue<NearestCandidate, std::vector<NearestCandidate>,
                        std::greater<>>
        heap(std::greater<>(), std::move(candidates));
    std::vector<std::pair<double, uint32_t>> top;
    for (; !heap.empty(); heap.pop()) {
      const NearestCandidate& candidate = heap.top();
      if (top.size() == request.k && candidate.lower_bound > top.back().first) {
        break;
      }
      const TrajectoryStore::Entry& object = store.EntryAt(candidate.object);
      const std::span<const TimedPoint> block =
          BlockPoints(object, object.blocks[candidate.block]);
      ++answer.stats.blocks_decoded;
      double distance = 0.0;
      if (MinDistanceInSpan(SegmentsInWindow(block, t0, t1), t0, t1,
                            request.point, &distance)) {
        OfferNearest({distance, candidate.object}, request.k, &top);
      }
    }
    for (const auto& [distance, object] : top) {
      answer.hits.push_back(QueryHit{store.EntryAt(object).id, 0.0, distance});
    }
    Metrics().blocks_considered->Increment(answer.stats.blocks_considered);
    Metrics().blocks_decoded->Increment(answer.stats.blocks_decoded);
    return answer;
  }

  // Range / corridor: one pass per object. Its extents, then a bisection
  // of its table on time, then each block's box against the reach of the
  // query (and, for a corridor, against each leg) pick the candidate
  // blocks; only those blocks' points are scanned, ascending. Skipped
  // blocks provably hold no hits, so the first match found is the
  // object's earliest.
  const SetPredicate pred = MakeSetPredicate(request, answer.error_bound_m);
  BoundingBox reach = pred.box;
  if (request.type == QueryType::kCorridor) {
    reach = pred.legs.front();
    for (const BoundingBox& leg : pred.legs) {
      reach.min = {std::min(reach.min.x, leg.min.x),
                   std::min(reach.min.y, leg.min.y)};
      reach.max = {std::max(reach.max.x, leg.max.x),
                   std::max(reach.max.y, leg.max.y)};
    }
    reach = Inflate(reach, pred.corridor_radius);
  }
  // Corridor tightening: a block is a candidate only if it actually comes
  // within the effective radius of some corridor segment. Coming that
  // close implies meeting that segment's inflated bounding box, so the
  // candidates are those of one box query per segment. A leg whose box is
  // provably farther than the radius from the block's box is skipped
  // first.
  const auto near_corridor = [&pred, &request](const BoundingBox& bounds) {
    const std::vector<Vec2>& w = request.corridor;
    for (size_t i = 0; i < pred.legs.size(); ++i) {
      if (BoxesFartherThan(pred.legs[i], bounds, pred.corridor_radius)) {
        continue;
      }
      const Vec2 a = w[i];
      const Vec2 b = w[w.size() == 1 ? i : i + 1];
      if (SegmentToBoxDistance(a, b, bounds) <= pred.corridor_radius) {
        return true;
      }
    }
    return false;
  };
  const bool corridor = request.type == QueryType::kCorridor;
  for (size_t o = 0; o < object_count; ++o) {
    const TrajectoryStore::Entry& object = store.EntryAt(o);
    answer.stats.blocks_total += object.blocks.size();
    if (!overlaps_window(object) || !object.bounds.Intersects(reach)) {
      continue;
    }
    const std::vector<BlockSummary>& blocks = object.blocks;
    const auto [begin, end] = BlocksOverlappingTime(blocks, t0, t1);
    bool hit = false;
    double first_hit_t = 0.0;
    for (size_t b = begin; b < end; ++b) {
      if (!blocks[b].bounds.Intersects(reach) ||
          (corridor && !near_corridor(blocks[b].bounds))) {
        continue;
      }
      // Every candidate counts, also those after the object's first hit,
      // which cannot beat it and are not scanned.
      ++answer.stats.blocks_considered;
      if (hit) {
        continue;
      }
      const std::span<const TimedPoint> block = BlockPoints(object, blocks[b]);
      ++answer.stats.blocks_decoded;
      hit = FirstHitInSpan(SegmentsInWindow(block, t0, t1), t0, t1, pred,
                           &first_hit_t);
    }
    if (hit) {
      answer.hits.push_back(QueryHit{object.id, first_hit_t, 0.0});
    }
  }
  Metrics().blocks_considered->Increment(answer.stats.blocks_considered);
  Metrics().blocks_decoded->Increment(answer.stats.blocks_decoded);
  return answer;
}

Result<QueryAnswer> BruteForceQuery(const TrajectoryStore& store,
                                    const QueryRequest& request) {
  STCOMP_RETURN_IF_ERROR(ValidateQuery(request));
  QueryAnswer answer;
  answer.error_bound_m = QueryErrorBound(request, store.codec());
  const double t0 = request.t0;
  const double t1 = request.t1;
  const SetPredicate pred = MakeSetPredicate(request, answer.error_bound_m);
  std::vector<std::pair<double, std::string>> nearest;
  for (const std::string& id : store.ObjectIds()) {
    STCOMP_ASSIGN_OR_RETURN(const Trajectory trajectory, store.Get(id));
    const std::vector<TimedPoint>& points = trajectory.points();
    ++answer.stats.objects_considered;
    STCOMP_ASSIGN_OR_RETURN(const std::vector<BlockSummary>* blocks,
                            store.BlockSummariesOf(id));
    answer.stats.blocks_total += blocks->size();
    answer.stats.blocks_considered += blocks->size();
    answer.stats.blocks_decoded += blocks->size();
    if (points.empty()) {
      continue;
    }
    if (request.type == QueryType::kNearest) {
      double distance = 0.0;
      if (MinDistanceInSpan(points, t0, t1, request.point, &distance)) {
        nearest.emplace_back(distance, id);
      }
      continue;
    }
    double first_hit_t = 0.0;
    if (FirstHitInSpan(points, t0, t1, pred, &first_hit_t)) {
      answer.hits.push_back(QueryHit{id, first_hit_t, 0.0});
    }
  }
  if (request.type == QueryType::kNearest) {
    std::sort(nearest.begin(), nearest.end());
    if (nearest.size() > request.k) {
      nearest.resize(request.k);
    }
    for (const auto& [distance, id] : nearest) {
      answer.hits.push_back(QueryHit{id, 0.0, distance});
    }
  }
  return answer;
}

namespace {

Result<double> ParseWindowBound(std::string_view field, bool low) {
  if (StripWhitespace(field) == "-") {
    return low ? kUnboundedLow : kUnboundedHigh;
  }
  return ParseDouble(field);
}

constexpr std::string_view kQueryUsage =
    "expected window:T0:T1 | range:T0:T1:MIN_X:MIN_Y:MAX_X:MAX_Y | "
    "corridor:T0:T1:RADIUS:X0,Y0;X1,Y1;... | nearest:T0:T1:K:X:Y "
    "(T0/T1 may be '-' for unbounded)";

}  // namespace

Result<QueryRequest> ParseQuerySpec(std::string_view spec) {
  const std::vector<std::string_view> fields = Split(spec, ':');
  if (fields.size() < 3) {
    return InvalidArgumentError("bad query '" + std::string(spec) + "': " +
                                std::string(kQueryUsage));
  }
  QueryRequest request;
  const std::string_view kind = StripWhitespace(fields[0]);
  STCOMP_ASSIGN_OR_RETURN(request.t0, ParseWindowBound(fields[1], true));
  STCOMP_ASSIGN_OR_RETURN(request.t1, ParseWindowBound(fields[2], false));
  if (kind == "window") {
    request.type = QueryType::kTimeWindow;
    if (fields.size() != 3) {
      return InvalidArgumentError(std::string(kQueryUsage));
    }
  } else if (kind == "range") {
    request.type = QueryType::kRange;
    if (fields.size() != 7) {
      return InvalidArgumentError(std::string(kQueryUsage));
    }
    STCOMP_ASSIGN_OR_RETURN(request.box.min.x, ParseDouble(fields[3]));
    STCOMP_ASSIGN_OR_RETURN(request.box.min.y, ParseDouble(fields[4]));
    STCOMP_ASSIGN_OR_RETURN(request.box.max.x, ParseDouble(fields[5]));
    STCOMP_ASSIGN_OR_RETURN(request.box.max.y, ParseDouble(fields[6]));
  } else if (kind == "corridor") {
    request.type = QueryType::kCorridor;
    if (fields.size() != 5) {
      return InvalidArgumentError(std::string(kQueryUsage));
    }
    STCOMP_ASSIGN_OR_RETURN(request.radius_m, ParseDouble(fields[3]));
    for (std::string_view waypoint : Split(fields[4], ';')) {
      const std::vector<std::string_view> coords = Split(waypoint, ',');
      if (coords.size() != 2) {
        return InvalidArgumentError("bad corridor waypoint '" +
                                    std::string(waypoint) + "': " +
                                    std::string(kQueryUsage));
      }
      Vec2 position;
      STCOMP_ASSIGN_OR_RETURN(position.x, ParseDouble(coords[0]));
      STCOMP_ASSIGN_OR_RETURN(position.y, ParseDouble(coords[1]));
      request.corridor.push_back(position);
    }
  } else if (kind == "nearest") {
    request.type = QueryType::kNearest;
    if (fields.size() != 6) {
      return InvalidArgumentError(std::string(kQueryUsage));
    }
    STCOMP_ASSIGN_OR_RETURN(const long long k, ParseInt(fields[3]));
    if (k < 1) {
      return InvalidArgumentError("nearest k must be >= 1");
    }
    request.k = static_cast<size_t>(k);
    STCOMP_ASSIGN_OR_RETURN(request.point.x, ParseDouble(fields[4]));
    STCOMP_ASSIGN_OR_RETURN(request.point.y, ParseDouble(fields[5]));
  } else {
    return InvalidArgumentError("unknown query type '" + std::string(kind) +
                                "': " + std::string(kQueryUsage));
  }
  STCOMP_RETURN_IF_ERROR(ValidateQuery(request));
  return request;
}

std::string RenderQueryAnswerJson(const QueryRequest& request,
                                  const QueryAnswer& answer) {
  std::string out = "{\"type\":\"";
  out += QueryTypeName(request.type);
  out += StrFormat("\",\"error_bound_m\":%.17g,\"hits\":[",
                   answer.error_bound_m);
  bool first = true;
  for (const QueryHit& hit : answer.hits) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "{\"id\":\"" + obs::JsonEscape(hit.id) + "\"";
    if (request.type == QueryType::kNearest) {
      out += StrFormat(",\"distance_m\":%.17g", hit.distance_m);
    } else {
      out += StrFormat(",\"first_hit_t\":%.17g", hit.first_hit_t);
    }
    out += "}";
  }
  out += StrFormat(
      "],\"stats\":{\"objects_considered\":%llu,\"blocks_total\":%llu,"
      "\"blocks_considered\":%llu,\"blocks_decoded\":%llu}}",
      static_cast<unsigned long long>(answer.stats.objects_considered),
      static_cast<unsigned long long>(answer.stats.blocks_total),
      static_cast<unsigned long long>(answer.stats.blocks_considered),
      static_cast<unsigned long long>(answer.stats.blocks_decoded));
  return out;
}

std::string RenderQueryzJson() {
  const QueryMetricsSet& metrics = Metrics();
  obs::HistogramSample latency;
  latency.upper_bounds = metrics.seconds->upper_bounds();
  latency.buckets = metrics.seconds->bucket_counts();
  latency.count = metrics.seconds->count();
  latency.sum = metrics.seconds->sum();
  const double mean =
      latency.count == 0 ? 0.0 : latency.sum / static_cast<double>(latency.count);
  std::string out = "{\"queries\":{";
  static constexpr QueryType kTypes[] = {
      QueryType::kTimeWindow, QueryType::kRange, QueryType::kCorridor,
      QueryType::kNearest};
  bool first = true;
  for (QueryType type : kTypes) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "\"";
    out += QueryTypeName(type);
    out += StrFormat("\":%llu",
                     static_cast<unsigned long long>(
                         metrics.by_type[static_cast<size_t>(type)]->value()));
  }
  out += StrFormat(
      "},\"blocks_considered\":%llu,\"blocks_decoded\":%llu,"
      "\"latency_seconds\":{\"count\":%llu,\"mean\":%.9g,\"p50\":%.9g,"
      "\"p95\":%.9g,\"p99\":%.9g}}",
      static_cast<unsigned long long>(metrics.blocks_considered->value()),
      static_cast<unsigned long long>(metrics.blocks_decoded->value()),
      static_cast<unsigned long long>(latency.count), mean,
      obs::ApproximateQuantile(latency, 0.5),
      obs::ApproximateQuantile(latency, 0.95),
      obs::ApproximateQuantile(latency, 0.99));
  return out;
}

}  // namespace stcomp
