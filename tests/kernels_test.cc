// The batched-kernel contracts of geom/kernels.h on hand-built inputs whose
// expected values are worked out by hand (every distance below is an exact
// double), plus the lossless SoA repack the kernels read from.

#include "stcomp/geom/kernels.h"

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "stcomp/core/trajectory_view_soa.h"
#include "test_util.h"

namespace stcomp::kernels {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

bool BitEq(double a, double b) {
  uint64_t ua;
  uint64_t ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

void ExpectMax(MaxResult got, std::ptrdiff_t index, double value) {
  EXPECT_EQ(got.index, index);
  EXPECT_EQ(got.value, value);
}

TEST(KernelContractTest, EmptyInputHasNoIndex) {
  const double v[1] = {1.0};
  ExpectMax(SedMax(v, v, v, 0, SedSegment{}), -1, -1.0);
  ExpectMax(PerpMax(v, v, 0, LineSegment{}), -1, -1.0);
  ExpectMax(ArrayMax(v, 0), -1, -1.0);
  EXPECT_EQ(SedFirstAbove(v, v, v, 0, SedSegment{}, -kInf), -1);
  EXPECT_EQ(PerpFirstAbove(v, v, 0, LineSegment{}, -kInf), -1);
  EXPECT_EQ(RadialFirstReaching(v, v, 0, 0.0, 0.0, -kInf), -1);
  EXPECT_EQ(ArrayFirstAbove(v, 0, -kInf), -1);
}

TEST(KernelContractTest, TiedMaximumReturnsEarliestIndex) {
  // Traveller from (0, 0) at t = 0 to (8, 0) at t = 8 sits at (2, 0),
  // (4, 0) and (6, 0) at t = 2, 4, 6: SED 1, 3, 3 and, against the same
  // line, perpendicular distance 1, 3, 3.
  const double x[3] = {2.0, 4.0, 6.0};
  const double y[3] = {1.0, 3.0, -3.0};
  const double t[3] = {2.0, 4.0, 6.0};
  ExpectMax(SedMax(x, y, t, 3, {0.0, 0.0, 0.0, 8.0, 0.0, 8.0}), 1, 3.0);
  ExpectMax(PerpMax(x, y, 3, {0.0, 0.0, 8.0, 0.0}), 1, 3.0);
  const double v[4] = {1.0, 3.0, 2.0, 3.0};
  ExpectMax(ArrayMax(v, 4), 1, 3.0);
}

TEST(KernelContractTest, NanNeverFiresAndNeverWins) {
  const double nan[3] = {kNaN, kNaN, kNaN};
  const double t[3] = {1.0, 2.0, 3.0};
  const SedSegment sed{0.0, 0.0, 0.0, 4.0, 0.0, 4.0};
  const LineSegment line{0.0, 0.0, 4.0, 0.0};
  ExpectMax(SedMax(nan, nan, t, 3, sed), 0, -1.0);
  ExpectMax(PerpMax(nan, nan, 3, line), 0, -1.0);
  ExpectMax(ArrayMax(nan, 3), 0, -1.0);
  EXPECT_EQ(SedFirstAbove(nan, nan, t, 3, sed, -kInf), -1);
  EXPECT_EQ(PerpFirstAbove(nan, nan, 3, line, -kInf), -1);
  EXPECT_EQ(RadialFirstReaching(nan, nan, 3, 0.0, 0.0, -kInf), -1);
  EXPECT_EQ(ArrayFirstAbove(nan, 3, -kInf), -1);
}

TEST(KernelContractTest, AboveIsStrictAndReachingIsInclusive) {
  // (3, 4) lies exactly 5 from the origin, 4 from the x axis, and 5 from
  // the stationary-at-origin traveller (SED segment with b == a).
  const double x[1] = {3.0};
  const double y[1] = {4.0};
  const double t[1] = {1.0};
  const double v[1] = {5.0};
  const SedSegment sed{0.0, 0.0, 0.0, 0.0, 0.0, 2.0};
  const LineSegment line{0.0, 0.0, 1.0, 0.0};
  EXPECT_EQ(SedFirstAbove(x, y, t, 1, sed, 5.0), -1);
  EXPECT_EQ(SedFirstAbove(x, y, t, 1, sed, 4.5), 0);
  EXPECT_EQ(PerpFirstAbove(x, y, 1, line, 4.0), -1);
  EXPECT_EQ(PerpFirstAbove(x, y, 1, line, 3.5), 0);
  EXPECT_EQ(ArrayFirstAbove(v, 1, 5.0), -1);
  EXPECT_EQ(RadialFirstReaching(x, y, 1, 0.0, 0.0, 5.0), 0);
  EXPECT_EQ(RadialFirstReaching(x, y, 1, 0.0, 0.0, 5.5), -1);
}

TEST(KernelContractTest, DegenerateSegmentsMeasureFromTheAnchor) {
  // (4, 5) is 5 from the anchor (1, 1). A zero-duration SED segment, a
  // time-reversed one and a zero-length line all fall back to that
  // distance, whatever their other endpoint.
  const double x[1] = {4.0};
  const double y[1] = {5.0};
  const double t[1] = {7.0};
  ExpectMax(SedMax(x, y, t, 1, {1.0, 1.0, 5.0, 9.0, 9.0, 5.0}), 0, 5.0);
  ExpectMax(SedMax(x, y, t, 1, {1.0, 1.0, 9.0, 9.0, 9.0, 5.0}), 0, 5.0);
  ExpectMax(PerpMax(x, y, 1, {1.0, 1.0, 1.0, 1.0}), 0, 5.0);
}

// A differential between the two layouts: the SoA repack against its AoS
// source, bit for bit.
TEST(KernelDifferentialTest, SoARepackRoundTripsLosslessly) {
  const Trajectory trajectory = testutil::RandomWalk(257, 31);
  SoAScratch scratch;
  const TrajectoryViewSoA soa =
      TrajectoryViewSoA::Repack(trajectory, scratch);
  ASSERT_EQ(soa.size(), trajectory.size());
  for (size_t i = 0; i < soa.size(); ++i) {
    const TimedPoint& p = trajectory.points()[i];
    EXPECT_TRUE(BitEq(soa.x()[i], p.position.x)) << i;
    EXPECT_TRUE(BitEq(soa.y()[i], p.position.y)) << i;
    EXPECT_TRUE(BitEq(soa.t()[i], p.t)) << i;
    EXPECT_TRUE(BitEq(soa[i].t, p.t)) << i;
    EXPECT_TRUE(BitEq(soa[i].position.x, p.position.x)) << i;
  }
}

}  // namespace
}  // namespace stcomp::kernels
