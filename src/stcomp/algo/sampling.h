// Point-elimination baselines that ignore neighbourhood geometry
// (paper Sec. 2: "leaving in every i-th data point" [Tobler]).

#ifndef STCOMP_ALGO_SAMPLING_H_
#define STCOMP_ALGO_SAMPLING_H_

#include "stcomp/algo/compression.h"

namespace stcomp::algo {

// Keeps every `keep_every`-th point (plus the last point, so the full time
// interval stays covered). keep_every == 1 keeps everything.
// Precondition (checked): keep_every >= 1.
void UniformSampling(TrajectoryView trajectory, int keep_every,
                     IndexList& out);

// Keeps the first point of every `interval_s`-second time bucket (plus the
// last point). Precondition (checked): interval_s > 0.
void TemporalSampling(TrajectoryView trajectory, double interval_s,
                      IndexList& out);

}  // namespace stcomp::algo

#endif  // STCOMP_ALGO_SAMPLING_H_
