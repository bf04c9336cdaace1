#include "stcomp/algo/douglas_peucker.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "stcomp/common/check.h"
#include "stcomp/core/trajectory_view_soa.h"
#include "stcomp/geom/kernels.h"

namespace stcomp::algo {

namespace {

// Index of the interior point of (first, last) maximising `distance`,
// lowest index on ties, together with that maximum. Requires last >
// first + 1.
std::pair<int, double> FarthestInteriorPoint(TrajectoryView trajectory,
                                             int first, int last,
                                             const SplitDistanceFn& distance) {
  int best_index = first + 1;
  double best_distance = -1.0;
  for (int i = first + 1; i < last; ++i) {
    const double d = distance(trajectory, first, last, i);
    if (d > best_distance) {
      best_distance = d;
      best_index = i;
    }
  }
  return {best_index, best_distance};
}

// The same query via one batched kernel argmax over the SoA repack. The
// kernel scan (strict >, earliest index, -1.0 initial best) replicates
// FarthestInteriorPoint exactly, so both forms return identical pairs.
struct KernelFarthest {
  const double* x;
  const double* y;
  const double* t;
  SplitCriterion criterion;

  std::pair<int, double> operator()(int first, int last) const {
    const size_t base = static_cast<size_t>(first) + 1;
    const size_t count = static_cast<size_t>(last - first - 1);
    const size_t a = static_cast<size_t>(first);
    const size_t b = static_cast<size_t>(last);
    kernels::MaxResult r;
    if (criterion == SplitCriterion::kSynchronized) {
      const kernels::SedSegment seg{x[a], y[a], t[a], x[b], y[b], t[b]};
      r = kernels::SedMax(x + base, y + base, t + base, count, seg);
    } else {
      const kernels::LineSegment seg{x[a], y[a], x[b], y[b]};
      r = kernels::PerpMax(x + base, y + base, count, seg);
    }
    return {first + 1 + static_cast<int>(r.index), r.value};
  }
};

// Max-heap order for the best-first ranges; ties break to the earlier
// range for deterministic output (same order std::priority_queue<Range>
// produced before the workspace refactor).
bool RangeLess(const detail::RangeEntry& a, const detail::RangeEntry& b) {
  if (a.key != b.key) {
    return a.key < b.key;
  }
  return a.first > b.first;
}

// Copies the set-bit indices of `keep` into `out` (exact-size reserve).
void CollectKept(const std::vector<char>& keep, int kept_count,
                 IndexList& out) {
  out.clear();
  out.reserve(static_cast<size_t>(kept_count));
  const int n = static_cast<int>(keep.size());
  for (int i = 0; i < n; ++i) {
    if (keep[static_cast<size_t>(i)]) {
      out.push_back(i);
    }
  }
}

// The top-down skeleton, parameterised over the farthest-interior query
// ((first, last) -> (split index, max distance)) so the generic
// SplitDistanceFn path and the kernelised criterion path share one
// control flow.
template <typename FarthestFn>
void TopDownImpl(TrajectoryView trajectory, double epsilon,
                 const FarthestFn& farthest, Workspace& workspace,
                 IndexList& out) {
  const int n = static_cast<int>(trajectory.size());
  std::vector<char>& keep = workspace.keep;
  keep.assign(static_cast<size_t>(n), 0);
  keep[0] = 1;
  keep[static_cast<size_t>(n) - 1] = 1;
  int kept_count = 2;

  // Explicit stack instead of recursion: GPS traces can be long and
  // adversarial splits would otherwise risk stack exhaustion.
  std::vector<std::pair<int, int>>& stack = workspace.ranges;
  stack.clear();
  stack.emplace_back(0, n - 1);
  while (!stack.empty()) {
    const auto [first, last] = stack.back();
    stack.pop_back();
    if (last - first < 2) {
      continue;
    }
    const auto [split, max_distance] = farthest(first, last);
    if (max_distance > epsilon) {
      keep[static_cast<size_t>(split)] = 1;
      ++kept_count;
      // Push the right half first so the left half is processed first;
      // order does not affect the result, only reproducibility of traces.
      stack.emplace_back(split, last);
      stack.emplace_back(first, split);
    }
  }

  CollectKept(keep, kept_count, out);
}

template <typename FarthestFn>
void TopDownMaxPointsImpl(TrajectoryView trajectory, int max_points,
                          const FarthestFn& farthest, Workspace& workspace,
                          IndexList& out) {
  const int n = static_cast<int>(trajectory.size());
  // Best-first refinement: repeatedly split the pending range with the
  // globally largest deviation until the point budget is exhausted. The
  // workspace-owned binary heap replicates std::priority_queue<Range>.
  auto make_range = [&farthest](int first, int last) {
    const auto [split, max_distance] = farthest(first, last);
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

KernelFarthest MakeKernelFarthest(const TrajectoryViewSoA& soa,
                                  SplitCriterion criterion) {
  return KernelFarthest{soa.x(), soa.y(), soa.t(), criterion};
}

}  // namespace

double PerpendicularSplitDistance(TrajectoryView trajectory, int first,
                                  int last, int i) {
  return PointToLineDistance(trajectory[static_cast<size_t>(i)].position,
                             trajectory[static_cast<size_t>(first)].position,
                             trajectory[static_cast<size_t>(last)].position);
}

void TopDown(TrajectoryView trajectory, double epsilon,
             const SplitDistanceFn& distance, Workspace& workspace,
             IndexList& out) {
  STCOMP_CHECK(epsilon >= 0.0);
  if (trajectory.size() <= 2) {
    KeepAll(trajectory, out);
    return;
  }
  const auto farthest = [&trajectory, &distance](int first, int last) {
    return FarthestInteriorPoint(trajectory, first, last, distance);
  };
  TopDownImpl(trajectory, epsilon, farthest, workspace, out);
}

IndexList TopDown(TrajectoryView trajectory, double epsilon,
                  const SplitDistanceFn& distance) {
  Workspace workspace;
  IndexList kept;
  TopDown(trajectory, epsilon, distance, workspace, kept);
  return kept;
}

void TopDown(TrajectoryView trajectory, double epsilon,
             SplitCriterion criterion, Workspace& workspace, IndexList& out) {
  STCOMP_CHECK(epsilon >= 0.0);
  if (trajectory.size() <= 2) {
    KeepAll(trajectory, out);
    return;
  }
  const TrajectoryViewSoA soa =
      TrajectoryViewSoA::Repack(trajectory, workspace.soa);
  TopDownImpl(trajectory, epsilon, MakeKernelFarthest(soa, criterion),
              workspace, out);
}

void DouglasPeucker(TrajectoryView trajectory, double epsilon_m,
                    Workspace& workspace, IndexList& out) {
  TopDown(trajectory, epsilon_m, SplitCriterion::kPerpendicular, workspace,
          out);
}

IndexList DouglasPeucker(TrajectoryView trajectory, double epsilon_m) {
  Workspace workspace;
  IndexList kept;
  DouglasPeucker(trajectory, epsilon_m, workspace, kept);
  return kept;
}

void TopDownMaxPoints(TrajectoryView trajectory, int max_points,
                      const SplitDistanceFn& distance, Workspace& workspace,
                      IndexList& out) {
  STCOMP_CHECK(max_points >= 2);
  const int n = static_cast<int>(trajectory.size());
  if (n <= 2 || n <= max_points) {
    KeepAll(trajectory, out);
    return;
  }
  const auto farthest = [&trajectory, &distance](int first, int last) {
    return FarthestInteriorPoint(trajectory, first, last, distance);
  };
  TopDownMaxPointsImpl(trajectory, max_points, farthest, workspace, out);
}

IndexList TopDownMaxPoints(TrajectoryView trajectory, int max_points,
                           const SplitDistanceFn& distance) {
  Workspace workspace;
  IndexList kept;
  TopDownMaxPoints(trajectory, max_points, distance, workspace, kept);
  return kept;
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
  const TrajectoryViewSoA soa =
      TrajectoryViewSoA::Repack(trajectory, workspace.soa);
  TopDownMaxPointsImpl(trajectory, max_points, MakeKernelFarthest(soa, criterion),
                       workspace, out);
}

void DouglasPeuckerMaxPoints(TrajectoryView trajectory, int max_points,
                             Workspace& workspace, IndexList& out) {
  TopDownMaxPoints(trajectory, max_points, SplitCriterion::kPerpendicular,
                   workspace, out);
}

IndexList DouglasPeuckerMaxPoints(TrajectoryView trajectory, int max_points) {
  Workspace workspace;
  IndexList kept;
  DouglasPeuckerMaxPoints(trajectory, max_points, workspace, kept);
  return kept;
}

}  // namespace stcomp::algo
