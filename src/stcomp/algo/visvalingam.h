// Visvalingam-Whyatt simplification: repeatedly remove the point whose
// triangle with its neighbours has the least area. A classic
// line-generalization baseline complementing the distance-based ones in
// the paper's Sec. 2 taxonomy (bottom-up category: it runs on RunBottomUp,
// bottom_up.h, with the triangle area as the cost), plus a spatiotemporal
// variant whose area is measured in (time-scaled) space so that dwelling
// points survive.

#ifndef STCOMP_ALGO_VISVALINGAM_H_
#define STCOMP_ALGO_VISVALINGAM_H_

#include "stcomp/algo/compression.h"
#include "stcomp/algo/workspace.h"

namespace stcomp::algo {

// Removes points while the smallest effective triangle area is below
// `min_area_m2`. Precondition (checked): min_area_m2 >= 0.
void Visvalingam(TrajectoryView trajectory, double min_area_m2,
                 Workspace& workspace, IndexList& out);

// Halts when `max_points` remain instead (endpoints always kept).
// Precondition (checked): max_points >= 2.
void VisvalingamMaxPoints(TrajectoryView trajectory, int max_points,
                          Workspace& workspace, IndexList& out);

// Spatiotemporal variant: the triangle is taken in the 3-D space
// (x, y, w*t) with w = `time_weight_mps` converting seconds to metres (a
// characteristic speed). Its area is zero exactly when the three samples
// describe constant-velocity motion (zero synchronized deviation), so
// points that deviate only temporally — dwells — survive, unlike in the
// plain spatial variant. Preconditions (checked): both arguments >= 0.
void VisvalingamTr(TrajectoryView trajectory, double min_area_m2,
                   double time_weight_mps, Workspace& workspace,
                   IndexList& out);

}  // namespace stcomp::algo

#endif  // STCOMP_ALGO_VISVALINGAM_H_
