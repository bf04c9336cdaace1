// Opening-window algorithms (paper Sec. 2.2): anchor a segment start,
// grow the float until a threshold violation, cut, repeat. Parameterised
// over the per-point distance measure (perpendicular for the classic
// NOPW/BOPW, synchronized time-ratio distance for OPW-TR) and over the
// break policy.

#ifndef STCOMP_ALGO_OPENING_WINDOW_H_
#define STCOMP_ALGO_OPENING_WINDOW_H_

#include <functional>

#include "stcomp/algo/compression.h"
#include "stcomp/algo/workspace.h"

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

// Distance of interior point `i` from the candidate window segment
// (anchor, float_index).
using WindowDistanceFn =
    std::function<double(TrajectoryView, int anchor, int float_index, int i)>;

// Perpendicular distance from point `i` to the line through the window
// endpoints — the classic opening-window criterion.
double PerpendicularWindowDistance(TrajectoryView trajectory, int anchor,
                                   int float_index, int i);

// Synchronized (time-ratio) distance of point `i` from the window segment
// (paper Eqs. 1-2) — the OPW-TR criterion.
double SynchronizedWindowDistance(TrajectoryView trajectory, int anchor,
                                  int float_index, int i);

// The two batch criteria as an enum: these take the batched-kernel
// whole-window path (geom/kernels.h) — one batched first-violation scan
// per float advance over the workspace's SoA repack — and produce
// bit-identical output to the per-point WindowDistanceFn forms below.
enum class WindowCriterion {
  kPerpendicular,  // NOPW / BOPW
  kSynchronized,   // OPW-TR
};

// Generic opening window. A window is violated when any interior distance
// exceeds `epsilon` (strictly). The final point is always kept (the
// countermeasure for the "may lose the last few data points" issue the
// paper notes). Precondition (checked): epsilon >= 0.
void OpeningWindow(TrajectoryView trajectory, double epsilon,
                   BreakPolicy policy, const WindowDistanceFn& distance,
                   IndexList& out);
IndexList OpeningWindow(TrajectoryView trajectory, double epsilon,
                        BreakPolicy policy, const WindowDistanceFn& distance);

// Batched-kernel fast path for the built-in criteria. Allocation-free
// on a warmed workspace.
void OpeningWindow(TrajectoryView trajectory, double epsilon,
                   BreakPolicy policy, WindowCriterion criterion,
                   Workspace& workspace, IndexList& out);

// Classic spatial variants (perpendicular distance). The Workspace
// overloads are the hot path; the others allocate a throwaway workspace.
void Nopw(TrajectoryView trajectory, double epsilon_m, Workspace& workspace,
          IndexList& out);
void Nopw(TrajectoryView trajectory, double epsilon_m, IndexList& out);
IndexList Nopw(TrajectoryView trajectory, double epsilon_m);
void Bopw(TrajectoryView trajectory, double epsilon_m, Workspace& workspace,
          IndexList& out);
void Bopw(TrajectoryView trajectory, double epsilon_m, IndexList& out);
IndexList Bopw(TrajectoryView trajectory, double epsilon_m);

}  // namespace stcomp::algo

#endif  // STCOMP_ALGO_OPENING_WINDOW_H_
