// Jenks' angular-change test (paper Sec. 2, [Jenks 1985]): "utilized the
// angular change between each three consecutive data points" to avoid
// over-representing straight lines.

#ifndef STCOMP_ALGO_ANGULAR_H_
#define STCOMP_ALGO_ANGULAR_H_

#include "stcomp/algo/compression.h"

namespace stcomp::algo {

// Drops the middle point of a triple when the absolute heading change at it
// (0 = straight continuation, pi = reversal) is below
// `min_heading_change_rad`. The triple is (last kept, candidate, next
// original point). Precondition (checked): threshold in [0, pi].
void AngularChange(TrajectoryView trajectory, double min_heading_change_rad,
                   IndexList& out);

}  // namespace stcomp::algo

#endif  // STCOMP_ALGO_ANGULAR_H_
