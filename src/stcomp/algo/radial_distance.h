// Euclidean-distance neighbour elimination (paper Sec. 2: "may use the
// Euclidean distance between two neighbour points; if it is less than a
// predefined threshold, one is eliminated").

#ifndef STCOMP_ALGO_RADIAL_DISTANCE_H_
#define STCOMP_ALGO_RADIAL_DISTANCE_H_

#include "stcomp/algo/compression.h"

namespace stcomp::algo {

// Sequentially drops points closer than `epsilon_m` to the last kept point.
// The last point is always kept. Precondition (checked): epsilon_m >= 0.
void RadialDistance(TrajectoryView trajectory, double epsilon_m,
                    IndexList& out);
IndexList RadialDistance(TrajectoryView trajectory, double epsilon_m);

}  // namespace stcomp::algo

#endif  // STCOMP_ALGO_RADIAL_DISTANCE_H_
