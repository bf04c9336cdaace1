// Registry-wide property sweeps: invariants every compression algorithm
// must satisfy on every input, parameterised over (algorithm x input
// shape x threshold). Plus the rules the distance loops and the greedy
// removal engine keep (DESIGN.md §14), pinned on the algorithms that own
// them with hand-worked inputs.

#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "stcomp/algo/bottom_up.h"
#include "stcomp/algo/registry.h"
#include "stcomp/algo/visvalingam.h"
#include "stcomp/error/evaluation.h"
#include "test_util.h"

namespace stcomp::algo {
namespace {

struct PropertyCase {
  std::string algorithm;
  std::string shape;
  uint64_t seed;
  double epsilon;
};

void PrintTo(const PropertyCase& param, std::ostream* os) {
  *os << param.algorithm << "/" << param.shape << "/seed" << param.seed
      << "/eps" << param.epsilon;
}

Trajectory MakeShape(const std::string& shape, uint64_t seed) {
  if (shape == "walk") {
    return testutil::RandomWalk(120, seed);
  }
  if (shape == "monotone") {
    return testutil::MonotoneWalk(120, seed);
  }
  if (shape == "line") {
    return testutil::Line(120, 10.0, 11.0, 3.0);
  }
  if (shape == "stop") {
    return testutil::LineWithStop(40, 20, 40);
  }
  STCOMP_CHECK(false);
  return {};
}

class AlgorithmProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(AlgorithmProperty, OutputIsValidIndexList) {
  const PropertyCase& param = GetParam();
  const Trajectory trajectory = MakeShape(param.shape, param.seed);
  const AlgorithmInfo* info = FindAlgorithm(param.algorithm).value();
  AlgorithmParams params;
  params.epsilon_m = param.epsilon;
  const IndexList kept = testutil::RunAlgorithm(*info, trajectory, params);
  EXPECT_TRUE(IsValidIndexList(trajectory, kept));
}

TEST_P(AlgorithmProperty, OutputIsDeterministic) {
  const PropertyCase& param = GetParam();
  const Trajectory trajectory = MakeShape(param.shape, param.seed);
  const AlgorithmInfo* info = FindAlgorithm(param.algorithm).value();
  AlgorithmParams params;
  params.epsilon_m = param.epsilon;
  EXPECT_EQ(testutil::RunAlgorithm(*info, trajectory, params),
            testutil::RunAlgorithm(*info, trajectory, params));
}

TEST_P(AlgorithmProperty, EvaluationSucceedsAndErrorsAreFinite) {
  const PropertyCase& param = GetParam();
  const Trajectory trajectory = MakeShape(param.shape, param.seed);
  const AlgorithmInfo* info = FindAlgorithm(param.algorithm).value();
  AlgorithmParams params;
  params.epsilon_m = param.epsilon;
  const Result<Evaluation> eval = Evaluate(
      trajectory, testutil::RunAlgorithm(*info, trajectory, params));
  ASSERT_TRUE(eval.ok());
  EXPECT_GE(eval->compression_percent, 0.0);
  EXPECT_LT(eval->compression_percent, 100.0);
  EXPECT_GE(eval->sync_error_mean_m, 0.0);
  EXPECT_LE(eval->sync_error_mean_m, eval->sync_error_max_m + 1e-9);
  EXPECT_GE(eval->perp_error_max_m, eval->perp_error_mean_m - 1e-9);
}

std::vector<PropertyCase> AllCases() {
  std::vector<PropertyCase> cases;
  for (const AlgorithmInfo& info : AllAlgorithms()) {
    for (const char* shape : {"walk", "monotone", "line", "stop"}) {
      for (double epsilon : {15.0, 60.0}) {
        cases.push_back({info.name, shape, 7, epsilon});
      }
    }
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<PropertyCase>& info) {
  std::string name = info.param.algorithm + "_" + info.param.shape + "_" +
                     std::to_string(static_cast<int>(info.param.epsilon));
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Registry, AlgorithmProperty,
                         ::testing::ValuesIn(AllCases()), CaseName);

// One hand-worked input for a registered algorithm at one threshold.
struct RuleCase {
  const char* algorithm;
  std::vector<TimedPoint> points;  // {t, x, y}
  double epsilon;
  IndexList expected;
};

void ExpectRuleCases(const std::vector<RuleCase>& cases) {
  for (const RuleCase& c : cases) {
    const AlgorithmInfo& info = *FindAlgorithm(c.algorithm).value();
    AlgorithmParams params;
    params.epsilon_m = c.epsilon;
    EXPECT_EQ(testutil::RunAlgorithm(info, testutil::Traj(c.points), params),
              c.expected)
        << c.algorithm << " epsilon=" << c.epsilon;
  }
}

TEST(LoopRuleTest, TiedMaximumSplitsAtTheEarlierPoint) {
  // Against (0, 0) at t = 0 to (4, 0) at t = 4, points 1 and 2 both lie
  // exactly 3 away, perpendicular and synchronized (the traveller is at
  // (1, 0) and (2, 0)). A split at point 1 leaves point 2 about 0.7
  // (perpendicular) or 1.0 (synchronized) from its new segment; a split at
  // point 2 would leave point 1 within 2 as well, keeping {0, 2, 3}. The
  // speed jumps stay below td-sp's default 15 m/s.
  const std::vector<TimedPoint> tie = {
      {0, 0, 0}, {1, 1, 3}, {2, 2, 3}, {4, 4, 0}};
  ExpectRuleCases({{"ndp", tie, 2.0, {0, 1, 3}},
                   {"td-tr", tie, 2.0, {0, 1, 3}},
                   {"td-sp", tie, 2.0, {0, 1, 3}}});
}

TEST(LoopRuleTest, TiedCheapestRemovalDropsTheEarlierPoint) {
  // On the zig-zag t = x = 0..4, y = 0, 1, 0, 1, 0, every interior point
  // costs exactly 1 to remove: it lies 1 from the segment joining its
  // neighbours, perpendicular and synchronized, and spans a triangle of
  // area 1 with them. One removal brings the five points down to four;
  // the greedy engine drops point 1, the lowest index (dropping point 3
  // would keep {0, 1, 2, 4}).
  const Trajectory zigzag = testutil::Traj(
      {{0, 0, 0}, {1, 1, 1}, {2, 2, 0}, {3, 3, 1}, {4, 4, 0}});
  const IndexList expected = {0, 2, 3, 4};
  EXPECT_EQ(Kept(BottomUpMaxPoints, zigzag, 4, BottomUpMetric::kPerpendicular),
            expected);
  EXPECT_EQ(Kept(BottomUpMaxPoints, zigzag, 4, BottomUpMetric::kSynchronized),
            expected);
  EXPECT_EQ(Kept(VisvalingamMaxPoints, zigzag, 4), expected);
}

TEST(LoopRuleTest, ThresholdIsStrictAndRadialKeepIsInclusive) {
  // In `window`, point 1, (2, 3) at t = 2, lies exactly 3 from the line
  // y = 0 and from the traveller at (2, 0): no cut at epsilon 3, a cut
  // below it. In `radial`, point 1, (3, 4), lies exactly 5 from the anchor
  // (0, 0): kept at epsilon 5, dropped above it.
  const std::vector<TimedPoint> window = {{0, 0, 0}, {2, 2, 3}, {4, 4, 0}};
  const std::vector<TimedPoint> radial = {{0, 0, 0}, {1, 3, 4}, {2, 3, 10}};
  ExpectRuleCases({{"nopw", window, 3.0, {0, 2}},
                   {"nopw", window, 2.5, {0, 1, 2}},
                   {"opw-tr", window, 3.0, {0, 2}},
                   {"opw-tr", window, 2.5, {0, 1, 2}},
                   {"radial", radial, 5.0, {0, 1, 2}},
                   {"radial", radial, 5.5, {0, 2}}});
}

TEST(LoopRuleTest, NanPositionNeverCutsNorSplits) {
  // Trajectory::FromPoints accepts NaN positions. Points 1 and 3 have one,
  // on either side of point 2, (2, 10) at t = 2, which lies 10 from the
  // segment (0, 0)-(4, 0). The window must cut at point 2 and the top-down
  // split there: had a NaN fired, point 1 would be kept; had a NaN won the
  // argmax over point 2, the range would not split at all.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::vector<TimedPoint> nan = {
      {0, 0, 0}, {1, kNaN, kNaN}, {2, 2, 10}, {3, kNaN, kNaN}, {4, 4, 0}};
  ExpectRuleCases({{"opw-tr", nan, 1.0, {0, 2, 4}},
                   {"td-tr", nan, 1.0, {0, 2, 4}},
                   {"nopw", nan, 1.0, {0, 2, 4}},
                   {"ndp", nan, 1.0, {0, 2, 4}}});
}

}  // namespace
}  // namespace stcomp::algo
