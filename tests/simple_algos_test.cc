#include <gtest/gtest.h>

#include "stcomp/algo/angular.h"
#include "stcomp/algo/compression.h"
#include "stcomp/algo/perpendicular.h"
#include "stcomp/algo/radial_distance.h"
#include "stcomp/algo/sampling.h"
#include "stcomp/algo/time_ratio.h"
#include "test_util.h"

namespace stcomp::algo {
namespace {

using testutil::Line;
using testutil::RandomWalk;
using testutil::Traj;

TEST(CompressionTest, KeepAllAndValidity) {
  const Trajectory trajectory = Line(5, 1.0, 1.0, 0.0);
  const IndexList all = Kept(KeepAll, trajectory);
  EXPECT_EQ(all, (IndexList{0, 1, 2, 3, 4}));
  EXPECT_TRUE(IsValidIndexList(trajectory, all));
  EXPECT_TRUE(IsValidIndexList(trajectory, {0, 2, 4}));
  EXPECT_FALSE(IsValidIndexList(trajectory, {0, 2}));     // Missing last.
  EXPECT_FALSE(IsValidIndexList(trajectory, {1, 4}));     // Missing first.
  EXPECT_FALSE(IsValidIndexList(trajectory, {0, 2, 2, 4}));  // Not strict.
  EXPECT_FALSE(IsValidIndexList(trajectory, {}));
}

TEST(CompressionTest, EmptyTrajectoryValidity) {
  Trajectory empty;
  EXPECT_TRUE(IsValidIndexList(empty, {}));
  EXPECT_FALSE(IsValidIndexList(empty, {0}));
}

TEST(CompressionTest, CompressionPercent) {
  EXPECT_DOUBLE_EQ(CompressionPercent(100, 25), 75.0);
  EXPECT_DOUBLE_EQ(CompressionPercent(100, 100), 0.0);
  EXPECT_DOUBLE_EQ(CompressionPercent(0, 0), 0.0);
}

TEST(CompressionTest, KeptMatchesTheInPlaceFormOnADirtyWorkspace) {
  // Kept() gives TD-TR, which takes a Workspace, a fresh one, and runs
  // OPW-TR, which takes none, on its output alone. Each result must equal
  // the in-place call into buffers that a larger run left dirty.
  const Trajectory large = RandomWalk(400, 3);
  const Trajectory trajectory = RandomWalk(120, 7);
  Workspace workspace;
  IndexList out;
  TdTr(large, 5.0, workspace, out);
  TdTr(trajectory, 60.0, workspace, out);
  EXPECT_GT(out.size(), 2u);
  EXPECT_LT(out.size(), trajectory.size());
  EXPECT_EQ(Kept(TdTr, trajectory, 60.0), out);

  OpwTr(large, 5.0, out);
  OpwTr(trajectory, 60.0, out);
  EXPECT_GT(out.size(), 2u);
  EXPECT_LT(out.size(), trajectory.size());
  EXPECT_EQ(Kept(OpwTr, trajectory, 60.0), out);
}

TEST(UniformSamplingTest, KeepsEveryIth) {
  const Trajectory trajectory = Line(10, 1.0, 1.0, 0.0);
  EXPECT_EQ(Kept(UniformSampling, trajectory, 3), (IndexList{0, 3, 6, 9}));
}

TEST(UniformSamplingTest, AlwaysIncludesLast) {
  const Trajectory trajectory = Line(11, 1.0, 1.0, 0.0);
  const IndexList kept = Kept(UniformSampling, trajectory, 4);
  EXPECT_EQ(kept, (IndexList{0, 4, 8, 10}));
}

TEST(UniformSamplingTest, KeepEveryOneKeepsAll) {
  const Trajectory trajectory = Line(5, 1.0, 1.0, 0.0);
  EXPECT_EQ(Kept(UniformSampling, trajectory, 1), Kept(KeepAll, trajectory));
}

TEST(TemporalSamplingTest, BucketsByTime) {
  // Samples at t = 0..9; 3-second buckets keep 0, 3, 6, 9.
  const Trajectory trajectory = Line(10, 1.0, 1.0, 0.0);
  EXPECT_EQ(Kept(TemporalSampling, trajectory, 3.0), (IndexList{0, 3, 6, 9}));
}

TEST(TemporalSamplingTest, IrregularGaps) {
  const Trajectory trajectory =
      Traj({{0, 0, 0}, {1, 1, 0}, {50, 2, 0}, {51, 3, 0}, {100, 4, 0}});
  // 10-second buckets: 0 kept; 1 skipped; 50 kept (gap), 51 skipped
  // (within the bucket that began at 50); 100 is last.
  EXPECT_EQ(Kept(TemporalSampling, trajectory, 10.0), (IndexList{0, 2, 4}));
}

TEST(RadialDistanceTest, DropsNearNeighbours) {
  const Trajectory trajectory =
      Traj({{0, 0, 0}, {1, 5, 0}, {2, 20, 0}, {3, 22, 0}, {4, 50, 0}});
  // eps=10: point 1 at 5 m from point 0 is dropped; point 2 at 20 m kept;
  // point 3 at 2 m from point 2 dropped; last always kept.
  EXPECT_EQ(Kept(RadialDistance, trajectory, 10.0), (IndexList{0, 2, 4}));
}

TEST(RadialDistanceTest, ZeroEpsilonKeepsEverything) {
  const Trajectory trajectory = RandomWalk(20, 1);
  EXPECT_EQ(Kept(RadialDistance, trajectory, 0.0), Kept(KeepAll, trajectory));
}

TEST(PerpendicularDistanceTest, DropsCollinearKeepsCorners) {
  const Trajectory trajectory = Traj(
      {{0, 0, 0}, {1, 10, 0}, {2, 20, 0}, {3, 20, 10}, {4, 20, 20}});
  // Points 1 and 3 lie on the line between their neighbours; point 2 is the
  // 90-degree corner.
  const IndexList kept = Kept(PerpendicularDistance, trajectory, 1.0);
  EXPECT_EQ(kept, (IndexList{0, 2, 4}));
}

TEST(PerpendicularDistanceTest, HugeThresholdKeepsOnlyEndpoints) {
  const Trajectory trajectory = RandomWalk(30, 2);
  EXPECT_EQ(Kept(PerpendicularDistance, trajectory, 1e9),
            (IndexList{0, 29}));
}

TEST(AngularChangeTest, StraightRunsCollapse) {
  const Trajectory trajectory = Line(10, 1.0, 3.0, 0.0);
  EXPECT_EQ(Kept(AngularChange, trajectory, 0.05), (IndexList{0, 9}));
}

TEST(AngularChangeTest, SharpTurnRetained) {
  const Trajectory trajectory = Traj(
      {{0, 0, 0}, {1, 10, 0}, {2, 20, 0}, {3, 20, 10}, {4, 20, 20}});
  const IndexList kept = Kept(AngularChange, trajectory, 0.3);
  EXPECT_EQ(kept, (IndexList{0, 2, 4}));
}

TEST(AngularChangeTest, ZeroThresholdKeepsAll) {
  const Trajectory trajectory = RandomWalk(15, 3);
  EXPECT_EQ(Kept(AngularChange, trajectory, 0.0), Kept(KeepAll, trajectory));
}

// All simple algorithms on degenerate inputs.
TEST(SimpleAlgosTest, TinyTrajectories) {
  Trajectory empty;
  const Trajectory one = Traj({{0, 0, 0}});
  const Trajectory two = Traj({{0, 0, 0}, {1, 1, 1}});
  EXPECT_TRUE(Kept(UniformSampling, empty, 2).empty());
  EXPECT_EQ(Kept(UniformSampling, one, 2), (IndexList{0}));
  EXPECT_EQ(Kept(TemporalSampling, two, 100.0), (IndexList{0, 1}));
  EXPECT_EQ(Kept(RadialDistance, two, 10.0), (IndexList{0, 1}));
  EXPECT_EQ(Kept(PerpendicularDistance, one, 10.0), (IndexList{0}));
  EXPECT_EQ(Kept(AngularChange, two, 1.0), (IndexList{0, 1}));
}

}  // namespace
}  // namespace stcomp::algo
