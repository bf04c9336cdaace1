// Reumann-Witkam simplification: slide a strip of half-width epsilon along
// the current heading; points inside the strip are dropped, the first
// point outside starts a new strip. A single-pass O(n) line-generalization
// baseline from the same era as the algorithms in the paper's Sec. 2.

#ifndef STCOMP_ALGO_REUMANN_WITKAM_H_
#define STCOMP_ALGO_REUMANN_WITKAM_H_

#include "stcomp/algo/compression.h"

namespace stcomp::algo {

// The strip direction is set by the current key point and its immediate
// successor. Precondition (checked): epsilon_m >= 0.
void ReumannWitkam(TrajectoryView trajectory, double epsilon_m,
                   IndexList& out);

}  // namespace stcomp::algo

#endif  // STCOMP_ALGO_REUMANN_WITKAM_H_
