// The Douglas-Peucker top-down algorithm (paper Sec. 2.1, [Douglas &
// Peucker 1973]) plus the top-down skeleton reused by the spatiotemporal
// TD-TR (time_ratio.h) and TD-SP (spatiotemporal.h) algorithms.

#ifndef STCOMP_ALGO_DOUGLAS_PEUCKER_H_
#define STCOMP_ALGO_DOUGLAS_PEUCKER_H_

#include <utility>
#include <vector>

#include "stcomp/algo/compression.h"
#include "stcomp/algo/workspace.h"

namespace stcomp::algo {

// The split criterion: the distance of an interior point from the
// candidate approximation of its range (first, last).
enum class SplitCriterion {
  kPerpendicular,  // NDP: distance to the line through first and last.
  kSynchronized,   // TD-TR: synchronized (time-ratio) distance.
};

// The top-down skeleton: starting from the whole trajectory, asks
// `split_rule(first, last)` for the interior point at which to split each
// pending range that has one, or -1 to accept the range as it is; keeps
// every split point and both endpoints (all of a trajectory of <= 2
// points). The ranges live on an explicit stack in the workspace (no
// recursion: adversarial splits on long traces would risk stack
// exhaustion), left half first. An algorithm of the family supplies only
// its split rule, a template argument so that it inlines.
template <typename SplitRule>
void RunTopDown(TrajectoryView trajectory, const SplitRule& split_rule,
                Workspace& workspace, IndexList& out) {
  const int n = static_cast<int>(trajectory.size());
  if (n <= 2) {
    KeepAll(trajectory, out);
    return;
  }
  std::vector<char>& keep = workspace.keep;
  keep.assign(static_cast<size_t>(n), 0);
  keep[0] = 1;
  keep[static_cast<size_t>(n) - 1] = 1;
  int kept_count = 2;
  std::vector<std::pair<int, int>>& stack = workspace.ranges;
  stack.clear();
  stack.emplace_back(0, n - 1);
  while (!stack.empty()) {
    const auto [first, last] = stack.back();
    stack.pop_back();
    if (last - first < 2) {
      continue;
    }
    const int split = split_rule(first, last);
    if (split < 0) {
      continue;
    }
    keep[static_cast<size_t>(split)] = 1;
    ++kept_count;
    // Right half pushed first so the left half is processed first; the
    // order does not affect the result, only reproducibility of traces.
    stack.emplace_back(split, last);
    stack.emplace_back(first, split);
  }
  CollectKept(keep, kept_count, out);
}

// Top-down recursion: splits at the interior point of maximum `criterion`
// distance whenever that maximum exceeds `epsilon` (strictly); ties break
// to the lowest index, and a NaN distance never becomes the split. Keeps
// both endpoints. Allocation-free on a warmed workspace. Precondition
// (checked): epsilon >= 0.
void TopDown(TrajectoryView trajectory, double epsilon,
             SplitCriterion criterion, Workspace& workspace, IndexList& out);

// Classic Douglas-Peucker with perpendicular-distance threshold `epsilon_m`
// ("NDP" in the paper's experiments).
void DouglasPeucker(TrajectoryView trajectory, double epsilon_m,
                    Workspace& workspace, IndexList& out);

// Best-first top-down refinement halting on output size instead of a
// distance threshold (paper Sec. 2, halting condition "the number of data
// points exceeds a user-defined value"). Always keeps the two endpoints,
// so the effective minimum is 2. Precondition (checked): max_points >= 2.
void TopDownMaxPoints(TrajectoryView trajectory, int max_points,
                      SplitCriterion criterion, Workspace& workspace,
                      IndexList& out);

// The classic perpendicular-distance instance of TopDownMaxPoints.
void DouglasPeuckerMaxPoints(TrajectoryView trajectory, int max_points,
                             Workspace& workspace, IndexList& out);

}  // namespace stcomp::algo

#endif  // STCOMP_ALGO_DOUGLAS_PEUCKER_H_
