// The per-point distance helpers of geom/kernels.h on hand-built inputs
// whose expected values are worked out by hand (every distance below is an
// exact double). The rules the algorithms' loops keep around these helpers
// are pinned on the algorithms (LoopRuleTest in
// algorithm_properties_test.cc).

#include "stcomp/geom/kernels.h"

#include <gtest/gtest.h>

namespace stcomp::kernels {
namespace {

TEST(KernelContractTest, DegenerateSegmentsMeasureFromTheAnchor) {
  // (4, 5) is 5 from the anchor (1, 1). A zero-duration SED segment, a
  // time-reversed one and a zero-length line all fall back to that
  // distance, whatever their other endpoint.
  EXPECT_EQ(SedDistancePoint(4.0, 5.0, 7.0, {1.0, 1.0, 5.0, 9.0, 9.0, 5.0}),
            5.0);
  EXPECT_EQ(SedDistancePoint(4.0, 5.0, 7.0, {1.0, 1.0, 9.0, 9.0, 9.0, 5.0}),
            5.0);
  EXPECT_EQ(PerpDistancePoint(4.0, 5.0, {1.0, 1.0, 1.0, 1.0}), 5.0);
}

}  // namespace
}  // namespace stcomp::kernels
