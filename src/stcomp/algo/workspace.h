// Caller-owned scratch memory for the view-based algorithm entry points
// (DESIGN.md §11). A Workspace holds every growable buffer the algorithms
// need — keep flags, range stacks, merge lists, binary heaps, convex-hull
// deques — so a reused workspace makes repeated runs allocation-free once
// the buffers have grown to the largest input seen.
//
// Contract:
//  - A Workspace may serve at most one Run at a time (not thread-safe;
//    use one Workspace per thread).
//  - Algorithms reset the buffers they use on entry; callers never need
//    to clear a workspace, and a dirty workspace produces byte-identical
//    output to a fresh one (enforced by the property harness).
//  - Buffers only grow; reuse across trajectories of mixed sizes is fine.

#ifndef STCOMP_ALGO_WORKSPACE_H_
#define STCOMP_ALGO_WORKSPACE_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace stcomp::algo {

namespace detail {

// (key, index, generation) node for the lazy-invalidation min-heap of the
// bottom-up engine (RunBottomUp, which Visvalingam shares).
struct HeapEntry {
  double key = 0.0;
  int index = 0;
  int generation = 0;
};

// Best-first range node for the max-points top-down drivers.
struct RangeEntry {
  double key = 0.0;
  int first = 0;
  int last = 0;
  int split = 0;
};

// Undo record for the path-hull Melkman hulls (O(1) pop restoring the
// deque slots a push overwrote). kNoSlot marks "no slot written".
struct HullUndo {
  static constexpr int kNoSlot = -2;

  int point = 0;
  size_t bot = 0;  // Deque indices before this addition.
  size_t top = 0;
  // Slot each push overwrote and its prior content (kNoSlot: no push).
  size_t bot_written_slot = 0;
  size_t top_written_slot = 0;
  int old_bot_slot = kNoSlot;
  int old_top_slot = kNoSlot;
};

}  // namespace detail

struct Workspace {
  // Per-point keep flags (char, not vector<bool>: addressable + memset-able).
  std::vector<char> keep;

  // DFS / best-first range stack for the top-down family and path-hull.
  std::vector<std::pair<int, int>> ranges;

  // Doubly-linked survivor list + lazy-heap bookkeeping for the bottom-up
  // engine.
  std::vector<int> prev;
  std::vector<int> next;
  std::vector<int> generation;
  std::vector<char> alive;

  // Binary-heap storage (std::push_heap/pop_heap; replicates
  // std::priority_queue pop order exactly).
  std::vector<detail::HeapEntry> heap;
  std::vector<detail::RangeEntry> range_heap;

  // Path-hull scratch: one deque + undo history per hull side.
  std::vector<int> hull_deque[2];
  std::vector<detail::HullUndo> hull_history[2];

  // The SP family's per-point speed jumps (SpeedJump(i) at interior i),
  // computed once per run.
  std::vector<double> jumps;
};

}  // namespace stcomp::algo

#endif  // STCOMP_ALGO_WORKSPACE_H_
