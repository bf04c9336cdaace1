#include "stcomp/algo/sampling.h"

#include "stcomp/common/check.h"

namespace stcomp::algo {

void UniformSampling(TrajectoryView trajectory, int keep_every,
                     IndexList& out) {
  STCOMP_CHECK(keep_every >= 1);
  const int n = static_cast<int>(trajectory.size());
  out.clear();
  // Exact output size: ceil(n / keep_every), plus possibly the last point.
  out.reserve(static_cast<size_t>((n + keep_every - 1) / keep_every) + 1);
  for (int i = 0; i < n; i += keep_every) {
    out.push_back(i);
  }
  if (!out.empty() && out.back() != n - 1) {
    out.push_back(n - 1);
  }
}

void TemporalSampling(TrajectoryView trajectory, double interval_s,
                      IndexList& out) {
  STCOMP_CHECK(interval_s > 0.0);
  const int n = static_cast<int>(trajectory.size());
  out.clear();
  if (n == 0) {
    return;
  }
  out.push_back(0);
  double next_bucket = trajectory[0].t + interval_s;
  for (int i = 1; i < n - 1; ++i) {
    if (trajectory[static_cast<size_t>(i)].t >= next_bucket) {
      out.push_back(i);
      // Advance to the bucket containing this sample, so long gaps do not
      // force a burst of kept points afterwards.
      while (next_bucket <= trajectory[static_cast<size_t>(i)].t) {
        next_bucket += interval_s;
      }
    }
  }
  if (n > 1) {
    out.push_back(n - 1);
  }
}

}  // namespace stcomp::algo
