#include "stcomp/algo/compression.h"

#include <numeric>

namespace stcomp::algo {

void KeepAll(TrajectoryView trajectory, IndexList& out) {
  out.resize(trajectory.size());
  std::iota(out.begin(), out.end(), 0);
}

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

bool IsValidIndexList(TrajectoryView trajectory, const IndexList& kept) {
  if (trajectory.empty()) {
    return kept.empty();
  }
  if (kept.empty() || kept.front() != 0 ||
      kept.back() != static_cast<int>(trajectory.size()) - 1) {
    return false;
  }
  for (size_t i = 1; i < kept.size(); ++i) {
    if (kept[i] <= kept[i - 1]) {
      return false;
    }
  }
  return kept.back() < static_cast<int>(trajectory.size());
}

double CompressionPercent(size_t original_points, size_t kept_points) {
  if (original_points == 0) {
    return 0.0;
  }
  return (1.0 - static_cast<double>(kept_points) /
                    static_cast<double>(original_points)) *
         100.0;
}

}  // namespace stcomp::algo
