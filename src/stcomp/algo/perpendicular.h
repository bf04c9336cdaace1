// Jenks' perpendicular-distance test (paper Sec. 2, [Jenks 1981]):
// "evaluating the perpendicular distance from a line connecting two
// consecutive data points to an intermediate data point against a user
// threshold".

#ifndef STCOMP_ALGO_PERPENDICULAR_H_
#define STCOMP_ALGO_PERPENDICULAR_H_

#include "stcomp/algo/compression.h"

namespace stcomp::algo {

// Sequential three-point test: the candidate point `i` is dropped when its
// perpendicular distance to the line (last kept point, point i+1) is below
// `epsilon_m`. Precondition (checked): epsilon_m >= 0.
void PerpendicularDistance(TrajectoryView trajectory, double epsilon_m,
                           IndexList& out);

}  // namespace stcomp::algo

#endif  // STCOMP_ALGO_PERPENDICULAR_H_
