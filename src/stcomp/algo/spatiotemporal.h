// The paper's "more advanced" spatiotemporal algorithm class (Sec. 3.3):
// the synchronized-distance criterion combined with a derived-speed
// difference criterion. OPW-SP is the paper's SPT pseudocode; TD-SP is the
// top-down application the experiments mention (see DESIGN.md for the
// interpretation, as the paper gives no TD-SP pseudocode).

#ifndef STCOMP_ALGO_SPATIOTEMPORAL_H_
#define STCOMP_ALGO_SPATIOTEMPORAL_H_

#include "stcomp/algo/compression.h"
#include "stcomp/algo/workspace.h"

namespace stcomp::algo {

// Derived speed difference at interior point `i`: the absolute difference
// between the derived (distance/time) speeds of segments (i-1, i) and
// (i, i+1). Precondition: 0 < i < size()-1.
double SpeedJump(TrajectoryView trajectory, int i);

// OPW-SP (the paper's procedure SPT): opening window; a window is violated
// at interior point i when SED(i) > max_dist_error_m OR
// SpeedJump(i) > max_speed_error_mps; the cut is at the violating point.
// Preconditions (checked): both thresholds >= 0.
void OpwSp(TrajectoryView trajectory, double max_dist_error_m,
           double max_speed_error_mps, Workspace& workspace, IndexList& out);

// TD-SP: top-down; a range is split when max SED > max_dist_error_m or any
// interior speed jump > max_speed_error_mps. The split point is the max-SED
// point when the distance criterion fired, otherwise the largest-speed-jump
// point. Preconditions (checked): both thresholds >= 0.
void TdSp(TrajectoryView trajectory, double max_dist_error_m,
          double max_speed_error_mps, Workspace& workspace, IndexList& out);

}  // namespace stcomp::algo

#endif  // STCOMP_ALGO_SPATIOTEMPORAL_H_
