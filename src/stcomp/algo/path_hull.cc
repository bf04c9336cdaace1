#include "stcomp/algo/path_hull.h"

#include <cmath>
#include <utility>
#include <vector>

#include "stcomp/common/check.h"

namespace stcomp::algo {

namespace {

using Record = detail::HullUndo;

// A Melkman convex hull of a chain of trajectory points, grown one point
// at a time, with O(1) undo per addition. The deque holds point *indices*;
// slot contents are never mutated by pops, and each push overwrites exactly
// one slot per end, so saving (bot, top, two overwritten slots) per
// addition restores any earlier state exactly. Deque and history storage
// are borrowed from the caller's Workspace.
class MelkmanHull {
 public:
  // `points` must outlive the hull; capacity is for the longest chain.
  MelkmanHull(TrajectoryView points, std::vector<int>& deque,
              std::vector<Record>& history, size_t capacity)
      : points_(points), deque_(deque), history_(history) {
    deque_.assign(2 * capacity + 8, -1);
  }

  // Resets to the single-point hull {seed_index}.
  void Init(int seed_index) {
    bot_ = top_ = deque_.size() / 2;
    deque_[bot_] = seed_index;
    history_.clear();
  }

  // Adds chain point `index` (chains are fed outward from the tag, one
  // index step at a time).
  void Add(int index) {
    Record record;
    record.point = index;
    record.bot = bot_;
    record.top = top_;
    const Vec2 p = Position(index);
    if (top_ == bot_) {
      // One-point hull.
      if (p == Position(deque_[bot_])) {
        // Exact duplicate: keep the lowest index so tie-breaking matches
        // the naive first-max scan.
        if (index < deque_[bot_]) {
          record.bot_written_slot = bot_;
          record.old_bot_slot = deque_[bot_];
          deque_[bot_] = index;
        }
        history_.push_back(record);
        return;
      }
      record.bot_written_slot = bot_ - 1;
      record.top_written_slot = top_ + 1;
      record.old_bot_slot = deque_[bot_ - 1];
      record.old_top_slot = deque_[top_ + 1];
      deque_[bot_ - 1] = index;
      deque_[top_ + 1] = index;
      --bot_;
      ++top_;
      history_.push_back(record);
      return;
    }
    if (p == Position(deque_[top_])) {
      // Consecutive stationary fix: duplicate of the bridge vertex (which
      // occupies both deque ends). Keep the lowest index for tie-breaking.
      if (index < deque_[top_]) {
        record.bot_written_slot = bot_;
        record.old_bot_slot = deque_[bot_];
        record.top_written_slot = top_;
        record.old_top_slot = deque_[top_];
        deque_[bot_] = index;
        deque_[top_] = index;
      }
      history_.push_back(record);
      return;
    }
    // Melkman step. Inside check: p strictly left of both bridge edges.
    if (Cross(deque_[bot_], deque_[bot_ + 1], p) > 0.0 &&
        Cross(deque_[top_ - 1], deque_[top_], p) > 0.0) {
      history_.push_back(record);
      return;
    }
    while (top_ - bot_ >= 2 &&
           Cross(deque_[bot_], deque_[bot_ + 1], p) <= 0.0) {
      ++bot_;  // Pop bottom; slot content untouched.
    }
    record.bot_written_slot = bot_ - 1;
    record.old_bot_slot = deque_[bot_ - 1];
    deque_[--bot_] = index;
    while (top_ - bot_ >= 2 &&
           Cross(deque_[top_ - 1], deque_[top_], p) <= 0.0) {
      --top_;  // Pop top.
    }
    record.top_written_slot = top_ + 1;
    record.old_top_slot = deque_[top_ + 1];
    deque_[++top_] = index;
    history_.push_back(record);
  }

  // Undoes additions until the addition of `index` is the most recent
  // remaining one. With `index` == the Init seed, undoes everything.
  void SplitAt(int index) {
    while (!history_.empty() && history_.back().point != index) {
      const Record& record = history_.back();
      if (record.old_bot_slot != Record::kNoSlot) {
        deque_[record.bot_written_slot] = record.old_bot_slot;
      }
      if (record.old_top_slot != Record::kNoSlot) {
        deque_[record.top_written_slot] = record.old_top_slot;
      }
      bot_ = record.bot;
      top_ = record.top;
      history_.pop_back();
    }
  }

  // Applies `visit(point_index)` to every current hull vertex (the closing
  // duplicate is visited twice; harmless for max queries).
  template <typename Visitor>
  void VisitVertices(const Visitor& visit) const {
    for (size_t slot = bot_; slot <= top_; ++slot) {
      visit(deque_[slot]);
    }
  }

 private:
  Vec2 Position(int index) const {
    return points_[static_cast<size_t>(index)].position;
  }
  double Cross(int a, int b, Vec2 p) const {
    const Vec2 va = Position(a);
    return (Position(b) - va).Cross(p - va);
  }

  const TrajectoryView points_;
  std::vector<int>& deque_;
  size_t bot_ = 0;
  size_t top_ = 0;
  std::vector<Record>& history_;
};

// The DP driver holding the two half-hulls of the current range.
class PathHullDp {
 public:
  PathHullDp(TrajectoryView trajectory, double epsilon, Workspace& workspace)
      : points_(trajectory),
        epsilon_(epsilon),
        left_(points_, workspace.hull_deque[0], workspace.hull_history[0],
              trajectory.size()),
        right_(points_, workspace.hull_deque[1], workspace.hull_history[1],
               trajectory.size()),
        keep_(workspace.keep),
        stack_(workspace.ranges) {
    keep_.assign(trajectory.size(), 0);
  }

  void Run(IndexList& out) {
    const int n = static_cast<int>(points_.size());
    keep_[0] = 1;
    keep_[static_cast<size_t>(n) - 1] = 1;
    int kept_count = 2;
    // Ranges pending a fresh Build.
    stack_.clear();
    stack_.emplace_back(0, n - 1);
    while (!stack_.empty()) {
      auto [i, j] = stack_.back();
      stack_.pop_back();
      if (j - i < 2) {
        continue;
      }
      Build(i, j);
      // Tail-iterate along the half that reuses the current hulls; push
      // the freshly-built (smaller) half for later.
      while (j - i >= 2) {
        const auto [split, max_distance] = FindExtreme(i, j);
        if (max_distance <= epsilon_) {
          break;
        }
        keep_[static_cast<size_t>(split)] = 1;
        ++kept_count;
        if (split <= tag_) {
          // Reuse hulls for [split, j]: undo left additions past split.
          left_.SplitAt(split == tag_ ? tag_ : split);
          if (split == tag_) {
            left_.Init(tag_);
          }
          stack_.emplace_back(i, split);
          i = split;
        } else {
          right_.SplitAt(split);
          stack_.emplace_back(split, j);
          j = split;
        }
      }
    }
    CollectKept(keep_, kept_count, out);
  }

 private:
  void Build(int i, int j) {
    tag_ = (i + j) / 2;
    left_.Init(tag_);
    for (int k = tag_ - 1; k >= i; --k) {
      left_.Add(k);
    }
    right_.Init(tag_);
    for (int k = tag_ + 1; k <= j; ++k) {
      right_.Add(k);
    }
  }

  // Farthest hull vertex of (i, j) from the line through i and j; ties go
  // to the lowest index, and the distance expression matches
  // PointToLineDistance bit-for-bit (see douglas_peucker.cc).
  std::pair<int, double> FindExtreme(int i, int j) const {
    const Vec2 a = points_[static_cast<size_t>(i)].position;
    const Vec2 b = points_[static_cast<size_t>(j)].position;
    int best_index = i + 1;
    double best_distance = -1.0;
    const auto consider = [&](int index) {
      if (index <= i || index >= j) {
        return;  // Only interior points compete, as in the naive scan.
      }
      const double d = PointToLineDistance(
          points_[static_cast<size_t>(index)].position, a, b);
      if (d > best_distance || (d == best_distance && index < best_index)) {
        best_distance = d;
        best_index = index;
      }
    };
    left_.VisitVertices(consider);
    right_.VisitVertices(consider);
    if (best_distance < 0.0) {
      // Every interior point was absorbed as a duplicate of the tag; the
      // naive scan would see distance 0 everywhere.
      best_distance = PointToLineDistance(
          points_[static_cast<size_t>(i) + 1].position, a, b);
    }
    return {best_index, best_distance};
  }

  const TrajectoryView points_;
  const double epsilon_;
  MelkmanHull left_;
  MelkmanHull right_;
  std::vector<char>& keep_;
  std::vector<std::pair<int, int>>& stack_;
  int tag_ = 0;
};

}  // namespace

void DouglasPeuckerHull(TrajectoryView trajectory, double epsilon_m,
                        Workspace& workspace, IndexList& out) {
  STCOMP_CHECK(epsilon_m >= 0.0);
  if (trajectory.size() <= 2) {
    KeepAll(trajectory, out);
    return;
  }
  PathHullDp dp(trajectory, epsilon_m, workspace);
  dp.Run(out);
}

}  // namespace stcomp::algo
