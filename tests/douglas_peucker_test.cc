#include "stcomp/algo/douglas_peucker.h"

#include <gtest/gtest.h>

#include "stcomp/algo/path_hull.h"
#include "stcomp/error/spatial_error.h"
#include "test_util.h"

namespace stcomp::algo {
namespace {

using testutil::Line;
using testutil::RandomWalk;
using testutil::Traj;

TEST(DouglasPeuckerTest, CollinearCollapsesToEndpoints) {
  const Trajectory trajectory = Line(50, 1.0, 4.0, 4.0);
  EXPECT_EQ(Kept(DouglasPeucker, trajectory, 0.5), (IndexList{0, 49}));
}

TEST(DouglasPeuckerTest, KeepsTheCorner) {
  const Trajectory trajectory =
      Traj({{0, 0, 0}, {1, 50, 0}, {2, 100, 0}, {3, 100, 50}, {4, 100, 100}});
  EXPECT_EQ(Kept(DouglasPeucker, trajectory, 5.0), (IndexList{0, 2, 4}));
}

TEST(DouglasPeuckerTest, ThresholdIsStrict) {
  // Interior point exactly at distance 10 from the baseline: max == eps is
  // NOT a split ("greater than a pre-defined threshold").
  const Trajectory trajectory = Traj({{0, 0, 0}, {1, 50, 10}, {2, 100, 0}});
  EXPECT_EQ(Kept(DouglasPeucker, trajectory, 10.0), (IndexList{0, 2}));
  EXPECT_EQ(Kept(DouglasPeucker, trajectory, 9.999), (IndexList{0, 1, 2}));
}

TEST(DouglasPeuckerTest, ZeroEpsilonKeepsAllNonCollinear) {
  const Trajectory trajectory = RandomWalk(40, 7);
  const IndexList kept = Kept(DouglasPeucker, trajectory, 0.0);
  // Generic-position points: nothing is exactly collinear, everything kept.
  EXPECT_EQ(kept.size(), trajectory.size());
}

TEST(DouglasPeuckerTest, OutputIsValidAndMonotoneInEpsilon) {
  const Trajectory trajectory = RandomWalk(200, 11);
  size_t previous_kept = trajectory.size() + 1;
  for (double epsilon : {1.0, 5.0, 20.0, 80.0, 320.0}) {
    const IndexList kept = Kept(DouglasPeucker, trajectory, epsilon);
    EXPECT_TRUE(IsValidIndexList(trajectory, kept));
    // Compression never decreases as the threshold grows.
    EXPECT_LE(kept.size(), previous_kept);
    previous_kept = kept.size();
  }
}

TEST(DouglasPeuckerTest, GuaranteesMaxLineDeviation) {
  // DP's invariant: every discarded point is within eps of the *line*
  // through its covering segment's endpoints.
  const Trajectory trajectory = RandomWalk(300, 13);
  const double epsilon = 40.0;
  const IndexList kept = Kept(DouglasPeucker, trajectory, epsilon);
  for (size_t s = 1; s < kept.size(); ++s) {
    for (int i = kept[s - 1] + 1; i < kept[s]; ++i) {
      EXPECT_LE(
          PointToLineDistance(trajectory[static_cast<size_t>(i)].position,
                              trajectory[static_cast<size_t>(kept[s - 1])].position,
                              trajectory[static_cast<size_t>(kept[s])].position),
          epsilon);
    }
  }
}

TEST(DouglasPeuckerTest, TinyInputs) {
  Trajectory empty;
  EXPECT_TRUE(Kept(DouglasPeucker, empty, 1.0).empty());
  const Trajectory one = Traj({{0, 0, 0}});
  EXPECT_EQ(Kept(DouglasPeucker, one, 1.0), (IndexList{0}));
  const Trajectory two = Traj({{0, 0, 0}, {1, 9, 9}});
  EXPECT_EQ(Kept(DouglasPeucker, two, 1.0), (IndexList{0, 1}));
}

struct HullCase {
  uint64_t seed;
  int n;
  double epsilon;
};

class PathHullEquivalence : public ::testing::TestWithParam<HullCase> {};

TEST_P(PathHullEquivalence, MatchesNaiveDouglasPeucker) {
  // Simple (x-monotone) chains: the regime where Melkman hulls are
  // guaranteed correct (see path_hull.h).
  const HullCase& param = GetParam();
  const Trajectory trajectory = testutil::MonotoneWalk(param.n, param.seed);
  EXPECT_EQ(Kept(DouglasPeuckerHull, trajectory, param.epsilon),
            Kept(DouglasPeucker, trajectory, param.epsilon));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PathHullEquivalence,
    ::testing::Values(HullCase{1, 10, 5.0}, HullCase{2, 50, 10.0},
                      HullCase{3, 100, 1.0}, HullCase{4, 100, 50.0},
                      HullCase{5, 500, 25.0}, HullCase{6, 500, 100.0},
                      HullCase{7, 1000, 40.0}, HullCase{8, 37, 0.0},
                      HullCase{9, 2000, 60.0}, HullCase{10, 250, 400.0}));

TEST(PathHullTest, CollinearInput) {
  const Trajectory trajectory = Line(30, 1.0, 2.0, 1.0);
  EXPECT_EQ(Kept(DouglasPeuckerHull, trajectory, 0.5), (IndexList{0, 29}));
  EXPECT_EQ(Kept(DouglasPeuckerHull, trajectory, 0.0),
            Kept(DouglasPeucker, trajectory, 0.0));
}

TEST(PathHullTest, ConsecutiveDuplicatePositions) {
  // A stop: the same coordinates at consecutive timestamps (the chain
  // stays simple). The hull variant must keep matching the naive scan.
  const Trajectory trajectory = Traj({{0, 0, 0},
                                      {1, 100, 0},
                                      {2, 100, 0},
                                      {3, 100, 0},
                                      {4, 200, 80},
                                      {5, 310, 70}});
  for (double epsilon : {1.0, 30.0, 1000.0}) {
    EXPECT_EQ(Kept(DouglasPeuckerHull, trajectory, epsilon),
              Kept(DouglasPeucker, trajectory, epsilon))
        << "epsilon=" << epsilon;
  }
}

TEST(PathHullTest, EpsilonGuaranteeOnSimpleChains) {
  // The DP invariant carried over: every discarded point within eps of the
  // line through its covering segment's endpoints.
  for (uint64_t seed : {100u, 101u, 102u}) {
    const Trajectory trajectory = testutil::MonotoneWalk(400, seed);
    const double epsilon = 35.0;
    const IndexList kept = Kept(DouglasPeuckerHull, trajectory, epsilon);
    EXPECT_TRUE(IsValidIndexList(trajectory, kept));
    for (size_t s = 1; s < kept.size(); ++s) {
      for (int i = kept[s - 1] + 1; i < kept[s]; ++i) {
        EXPECT_LE(PointToLineDistance(
                      trajectory[static_cast<size_t>(i)].position,
                      trajectory[static_cast<size_t>(kept[s - 1])].position,
                      trajectory[static_cast<size_t>(kept[s])].position),
                  epsilon);
      }
    }
  }
}

TEST(MaxPointsTest, HonoursBudget) {
  const Trajectory trajectory = RandomWalk(100, 17);
  for (int budget : {2, 3, 5, 10, 50}) {
    const IndexList kept = Kept(DouglasPeuckerMaxPoints, trajectory, budget);
    EXPECT_EQ(kept.size(), static_cast<size_t>(budget));
    EXPECT_TRUE(IsValidIndexList(trajectory, kept));
  }
}

TEST(MaxPointsTest, BudgetBeyondSizeKeepsAll) {
  const Trajectory trajectory = RandomWalk(10, 19);
  EXPECT_EQ(Kept(DouglasPeuckerMaxPoints, trajectory, 100),
            Kept(KeepAll, trajectory));
}

TEST(MaxPointsTest, GreedyOrderReducesErrorMonotonically) {
  // More budget never increases the max deviation.
  const Trajectory trajectory = RandomWalk(150, 23);
  double previous = 1e300;
  for (int budget : {2, 4, 8, 16, 32, 64, 128}) {
    const IndexList kept = Kept(DouglasPeuckerMaxPoints, trajectory, budget);
    const double worst = MaxPerpendicularError(trajectory, kept);
    EXPECT_LE(worst, previous + 1e-9) << "budget=" << budget;
    previous = worst;
  }
}

}  // namespace
}  // namespace stcomp::algo
