#include "stcomp/algo/douglas_peucker.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "stcomp/common/check.h"
#include "stcomp/geom/kernels.h"

namespace stcomp::algo {

namespace {

// The interior point of (first, last) farthest from the range's
// approximation under `criterion`, with that distance. The segment is
// built once per range. The argmax starts from -1.0 and keeps the earliest
// strict maximum, so ties split at the earlier point and a NaN distance
// never wins. Requires last > first + 1.
std::pair<int, double> FarthestInterior(TrajectoryView trajectory, int first,
                                        int last, SplitCriterion criterion) {
  const TimedPoint& a = trajectory[static_cast<size_t>(first)];
  const TimedPoint& b = trajectory[static_cast<size_t>(last)];
  int best_index = first + 1;
  double best_distance = -1.0;
  if (criterion == SplitCriterion::kSynchronized) {
    const kernels::SedSegment seg{a.position.x, a.position.y, a.t,
                                  b.position.x, b.position.y, b.t};
    for (int i = first + 1; i < last; ++i) {
      const TimedPoint& p = trajectory[static_cast<size_t>(i)];
      const double d =
          kernels::SedDistancePoint(p.position.x, p.position.y, p.t, seg);
      if (d > best_distance) {
        best_distance = d;
        best_index = i;
      }
    }
  } else {
    const kernels::LineSegment seg{a.position.x, a.position.y, b.position.x,
                                   b.position.y};
    for (int i = first + 1; i < last; ++i) {
      const TimedPoint& p = trajectory[static_cast<size_t>(i)];
      const double d =
          kernels::PerpDistancePoint(p.position.x, p.position.y, seg);
      if (d > best_distance) {
        best_distance = d;
        best_index = i;
      }
    }
  }
  return {best_index, best_distance};
}

// Max-heap order for the best-first ranges; ties break to the earlier
// range for deterministic output (same order std::priority_queue<Range>
// produced before the workspace refactor).
bool RangeLess(const detail::RangeEntry& a, const detail::RangeEntry& b) {
  if (a.key != b.key) {
    return a.key < b.key;
  }
  return a.first > b.first;
}

}  // namespace

void TopDown(TrajectoryView trajectory, double epsilon,
             SplitCriterion criterion, Workspace& workspace, IndexList& out) {
  STCOMP_CHECK(epsilon >= 0.0);
  RunTopDown(
      trajectory,
      [&](int first, int last) {
        const auto [split, max_distance] =
            FarthestInterior(trajectory, first, last, criterion);
        return max_distance > epsilon ? split : -1;
      },
      workspace, out);
}

void DouglasPeucker(TrajectoryView trajectory, double epsilon_m,
                    Workspace& workspace, IndexList& out) {
  TopDown(trajectory, epsilon_m, SplitCriterion::kPerpendicular, workspace,
          out);
}

void TopDownMaxPoints(TrajectoryView trajectory, int max_points,
                      SplitCriterion criterion, Workspace& workspace,
                      IndexList& out) {
  STCOMP_CHECK(max_points >= 2);
  const int n = static_cast<int>(trajectory.size());
  if (n <= 2 || n <= max_points) {
    KeepAll(trajectory, out);
    return;
  }
  // Best-first refinement: repeatedly split the pending range with the
  // globally largest deviation until the point budget is exhausted. The
  // workspace-owned binary heap replicates std::priority_queue<Range>.
  auto make_range = [&](int first, int last) {
    const auto [split, max_distance] =
        FarthestInterior(trajectory, first, last, criterion);
    return detail::RangeEntry{max_distance, first, last, split};
  };

  std::vector<detail::RangeEntry>& queue = workspace.range_heap;
  queue.clear();
  queue.push_back(make_range(0, n - 1));
  std::vector<char>& keep = workspace.keep;
  keep.assign(static_cast<size_t>(n), 0);
  keep[0] = 1;
  keep[static_cast<size_t>(n) - 1] = 1;
  int kept_count = 2;
  while (kept_count < max_points && !queue.empty()) {
    std::pop_heap(queue.begin(), queue.end(), RangeLess);
    const detail::RangeEntry range = queue.back();
    queue.pop_back();
    keep[static_cast<size_t>(range.split)] = 1;
    ++kept_count;
    if (range.split - range.first >= 2) {
      queue.push_back(make_range(range.first, range.split));
      std::push_heap(queue.begin(), queue.end(), RangeLess);
    }
    if (range.last - range.split >= 2) {
      queue.push_back(make_range(range.split, range.last));
      std::push_heap(queue.begin(), queue.end(), RangeLess);
    }
  }

  CollectKept(keep, kept_count, out);
}

void DouglasPeuckerMaxPoints(TrajectoryView trajectory, int max_points,
                             Workspace& workspace, IndexList& out) {
  TopDownMaxPoints(trajectory, max_points, SplitCriterion::kPerpendicular,
                   workspace, out);
}

}  // namespace stcomp::algo
