// Sliding-window compression (paper Sec. 2 taxonomy): like the opening
// window, but the number of points under consideration is capped, bounding
// per-point work (and therefore latency in streaming settings) at the cost
// of compression on long smooth stretches.

#ifndef STCOMP_ALGO_SLIDING_WINDOW_H_
#define STCOMP_ALGO_SLIDING_WINDOW_H_

#include "stcomp/algo/compression.h"
#include "stcomp/algo/opening_window.h"

namespace stcomp::algo {

// The normal opening window (OpeningWindow, kNormal) whose float may
// advance at most `max_window` points past the anchor; when the cap is hit
// without a violation, the algorithm cuts at the capped float and
// re-anchors. Perpendicular-distance criterion.
// Preconditions (checked): epsilon_m >= 0, max_window >= 2.
void SlidingWindow(TrajectoryView trajectory, double epsilon_m,
                   int max_window, IndexList& out);
IndexList SlidingWindow(TrajectoryView trajectory, double epsilon_m,
                        int max_window);

// Same, with the synchronized (time-ratio) distance criterion.
void SlidingWindowTr(TrajectoryView trajectory, double epsilon_m,
                     int max_window, IndexList& out);
IndexList SlidingWindowTr(TrajectoryView trajectory, double epsilon_m,
                          int max_window);

}  // namespace stcomp::algo

#endif  // STCOMP_ALGO_SLIDING_WINDOW_H_
