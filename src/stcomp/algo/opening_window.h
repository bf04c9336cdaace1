// Opening-window algorithms (paper Sec. 2.2): anchor a segment start,
// grow the float until a threshold violation, cut, repeat. Parameterised
// over the per-point distance criterion (perpendicular for the classic
// NOPW/BOPW, synchronized time-ratio distance for OPW-TR), over the
// break policy and over a window cap (the sliding window).

#ifndef STCOMP_ALGO_OPENING_WINDOW_H_
#define STCOMP_ALGO_OPENING_WINDOW_H_

#include <limits>

#include "stcomp/algo/compression.h"

namespace stcomp::algo {

// Where to cut when the window [anchor, float] first violates the
// threshold at interior point v (paper Figs. 2 and 3):
enum class BreakPolicy {
  // Cut at v, the point causing the violation ("Normal Opening Window").
  kNormal,
  // Cut at float-1, the last float for which the window was still valid
  // ("Before Opening Window"). See DESIGN.md on the paper's Fig. 3 reading.
  kBefore,
};

// Perpendicular distance from point `i` to the line through the window
// endpoints — the classic opening-window criterion.
double PerpendicularWindowDistance(TrajectoryView trajectory, int anchor,
                                   int float_index, int i);

// Synchronized (time-ratio) distance of point `i` from the window segment
// (paper Eqs. 1-2) — the OPW-TR criterion.
double SynchronizedWindowDistance(TrajectoryView trajectory, int anchor,
                                  int float_index, int i);

// The per-point distance criterion of an opening or sliding window.
enum class WindowCriterion {
  kPerpendicular,  // NOPW / BOPW
  kSynchronized,   // OPW-TR
};

// The first interior point of the window (anchor, float_index) whose
// `criterion` distance exceeds `epsilon`, or -1 when there is none. The
// test is strict `>`: a point exactly epsilon away never violates, and a
// NaN distance never fires. Requires anchor < float_index.
int FirstWindowViolation(TrajectoryView trajectory, int anchor,
                         int float_index, WindowCriterion criterion,
                         double epsilon);

// No cap on how far the float may advance past the anchor.
inline constexpr int kUncappedWindow = std::numeric_limits<int>::max();

// Opening window. A window is violated when any interior distance
// exceeds `epsilon` (strictly). When the float reaches `max_window` points
// past the anchor without a violation, the window is cut at the float
// (the sliding window, sliding_window.h). The final point is always kept
// (the countermeasure for the "may lose the last few data points" issue
// the paper notes). Preconditions (checked): epsilon >= 0,
// max_window >= 2.
void OpeningWindow(TrajectoryView trajectory, double epsilon,
                   BreakPolicy policy, WindowCriterion criterion,
                   IndexList& out, int max_window = kUncappedWindow);

// Classic spatial variants (perpendicular distance).
void Nopw(TrajectoryView trajectory, double epsilon_m, IndexList& out);
void Bopw(TrajectoryView trajectory, double epsilon_m, IndexList& out);

}  // namespace stcomp::algo

#endif  // STCOMP_ALGO_OPENING_WINDOW_H_
