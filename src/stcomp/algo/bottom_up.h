// Bottom-up compression (paper Sec. 2 taxonomy, [Keogh et al. 2001]):
// start from the finest representation and greedily remove the point whose
// removal hurts least, until the halting condition would be violated.
// A batch algorithm; on short series it typically beats the windowed
// heuristics on the error/compression trade-off. Visvalingam-Whyatt
// (visvalingam.h) runs on the same engine with a triangle-area cost.

#ifndef STCOMP_ALGO_BOTTOM_UP_H_
#define STCOMP_ALGO_BOTTOM_UP_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "stcomp/algo/compression.h"
#include "stcomp/algo/workspace.h"

namespace stcomp::algo {

// The bottom-up engine. Survivors form a doubly-linked list; candidates
// sit in a min-heap whose entries are invalidated lazily (a per-point
// generation counter), so a removal re-prices only its two neighbours.
// `cost(a, b, c)` prices the removal of survivor b between survivors a and
// c; the cheapest survivor goes first, the lowest index on ties, while
// `may_remove(cost, kept_count)` allows. Endpoints always survive (all
// points of a trajectory of <= 2). An algorithm of the family supplies
// only its cost rule and its halting predicate, both template arguments so
// that they inline. All scratch lives in the caller's Workspace.
template <typename Cost, typename Predicate>
void RunBottomUp(TrajectoryView trajectory, const Cost& cost,
                 const Predicate& may_remove, Workspace& workspace,
                 IndexList& out) {
  const int n = static_cast<int>(trajectory.size());
  if (n <= 2) {
    KeepAll(trajectory, out);
    return;
  }
  std::vector<int>& prev = workspace.prev;
  std::vector<int>& next = workspace.next;
  std::vector<int>& generation = workspace.generation;
  std::vector<char>& alive = workspace.alive;
  std::vector<detail::HeapEntry>& heap = workspace.heap;
  // Min-heap order on (cost, index) for std::push_heap/pop_heap.
  const auto cost_greater = [](const detail::HeapEntry& x,
                               const detail::HeapEntry& y) {
    if (x.key != y.key) {
      return x.key > y.key;
    }
    return x.index > y.index;
  };
  const auto push = [&](int b) {
    heap.push_back(detail::HeapEntry{
        cost(prev[static_cast<size_t>(b)], b, next[static_cast<size_t>(b)]),
        b, generation[static_cast<size_t>(b)]});
    std::push_heap(heap.begin(), heap.end(), cost_greater);
  };

  prev.resize(static_cast<size_t>(n));
  next.resize(static_cast<size_t>(n));
  generation.assign(static_cast<size_t>(n), 0);
  alive.assign(static_cast<size_t>(n), 1);
  heap.clear();
  for (int i = 0; i < n; ++i) {
    prev[static_cast<size_t>(i)] = i - 1;
    next[static_cast<size_t>(i)] = i + 1 < n ? i + 1 : -1;
  }
  for (int i = 1; i + 1 < n; ++i) {
    push(i);
  }
  int kept_count = n;
  while (!heap.empty()) {
    const detail::HeapEntry top = heap.front();
    std::pop_heap(heap.begin(), heap.end(), cost_greater);
    heap.pop_back();
    const int b = top.index;
    if (!alive[static_cast<size_t>(b)] ||
        top.generation != generation[static_cast<size_t>(b)]) {
      continue;  // Stale entry.
    }
    if (!may_remove(top.key, kept_count)) {
      break;
    }
    const int a = prev[static_cast<size_t>(b)];
    const int c = next[static_cast<size_t>(b)];
    alive[static_cast<size_t>(b)] = 0;
    next[static_cast<size_t>(a)] = c;
    prev[static_cast<size_t>(c)] = a;
    --kept_count;
    // Re-price the interior neighbours: each now spans a longer stretch.
    if (a > 0) {
      ++generation[static_cast<size_t>(a)];
      push(a);
    }
    if (c < n - 1) {
      ++generation[static_cast<size_t>(c)];
      push(c);
    }
  }
  out.clear();
  out.reserve(static_cast<size_t>(kept_count));
  for (int i = 0; i != -1; i = next[static_cast<size_t>(i)]) {
    out.push_back(i);
  }
}

// The per-point cost measure used when evaluating a merge.
enum class BottomUpMetric {
  // Spatial distance from each interior point to the merged segment.
  kPerpendicular,
  // Synchronized (time-ratio) distance — the spatiotemporal variant.
  kSynchronized,
};

// Removes points while the cheapest removal keeps every affected interior
// point within `epsilon` of the merged segment.
// Precondition (checked): epsilon >= 0.
void BottomUp(TrajectoryView trajectory, double epsilon, BottomUpMetric metric,
              Workspace& workspace, IndexList& out);

// Same greedy order, but halts when `max_points` kept points remain
// (endpoints always kept). Precondition (checked): max_points >= 2.
void BottomUpMaxPoints(TrajectoryView trajectory, int max_points,
                       BottomUpMetric metric, Workspace& workspace,
                       IndexList& out);

}  // namespace stcomp::algo

#endif  // STCOMP_ALGO_BOTTOM_UP_H_
