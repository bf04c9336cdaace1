#include "stcomp/algo/registry.h"

#include <limits>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "test_util.h"

namespace stcomp::algo {
namespace {

TEST(RegistryTest, ContainsThePaperAlgorithms) {
  const std::set<std::string> expected = {"ndp",    "nopw",  "bopw",
                                          "td-tr",  "opw-tr", "opw-sp",
                                          "td-sp"};
  std::set<std::string> names;
  for (const AlgorithmInfo& info : AllAlgorithms()) {
    names.insert(info.name);
  }
  for (const std::string& name : expected) {
    EXPECT_TRUE(names.contains(name)) << name;
  }
}

TEST(RegistryTest, NamesAreUniqueAndDescribed) {
  std::set<std::string> names;
  for (const AlgorithmInfo& info : AllAlgorithms()) {
    EXPECT_TRUE(names.insert(info.name).second) << info.name;
    EXPECT_FALSE(info.description.empty()) << info.name;
    EXPECT_NE(info.run_view, nullptr);
  }
}

TEST(RegistryTest, FindByName) {
  const AlgorithmInfo* info = FindAlgorithm("td-tr").value();
  EXPECT_EQ(info->name, "td-tr");
  EXPECT_TRUE(info->spatiotemporal);
  EXPECT_FALSE(info->online);
  const AlgorithmInfo* opw = FindAlgorithm("opw-tr").value();
  EXPECT_TRUE(opw->online);
}

TEST(RegistryTest, UnknownNameListsAlternatives) {
  const auto result = FindAlgorithm("bogus");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("td-tr"), std::string::npos);
}

TEST(RegistryTest, EveryAlgorithmProducesValidOutput) {
  const Trajectory trajectory = testutil::RandomWalk(80, 42);
  AlgorithmParams params;
  params.epsilon_m = 30.0;
  for (const AlgorithmInfo& info : AllAlgorithms()) {
    const IndexList kept = testutil::RunAlgorithm(info, trajectory, params);
    EXPECT_TRUE(IsValidIndexList(trajectory, kept)) << info.name;
    EXPECT_GE(kept.size(), 2u) << info.name;
  }
}

TEST(RegistryTest, EveryAlgorithmHandlesTinyInputs) {
  const Trajectory two = testutil::Traj({{0, 0, 0}, {1, 5, 5}});
  AlgorithmParams params;
  for (const AlgorithmInfo& info : AllAlgorithms()) {
    const IndexList kept = testutil::RunAlgorithm(info, two, params);
    EXPECT_EQ(kept, (IndexList{0, 1})) << info.name;
  }
}

TEST(ParamsValidateTest, DefaultsAreValid) {
  EXPECT_TRUE(AlgorithmParams{}.Validate().ok());
}

TEST(ParamsValidateTest, BoundaryValuesAreValid) {
  AlgorithmParams params;
  params.epsilon_m = 0.0;
  params.speed_threshold_mps = 0.0;
  params.keep_every = 1;
  params.interval_s = 1e-9;
  params.min_heading_change_rad = 0.0;
  params.max_window = 2;
  EXPECT_TRUE(params.Validate().ok());
}

TEST(ParamsValidateTest, RejectsEachOutOfDomainField) {
  const auto expect_invalid = [](const AlgorithmParams& params,
                                 const std::string& field) {
    const Status status = params.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << field;
    EXPECT_NE(status.message().find(field), std::string::npos)
        << status.ToString();
  };
  AlgorithmParams params;
  params.epsilon_m = -1.0;
  expect_invalid(params, "epsilon_m");
  params = {};
  params.speed_threshold_mps = -0.5;
  expect_invalid(params, "speed_threshold_mps");
  params = {};
  params.keep_every = 0;
  expect_invalid(params, "keep_every");
  params = {};
  params.interval_s = 0.0;
  expect_invalid(params, "interval_s");
  params = {};
  params.min_heading_change_rad = -0.1;
  expect_invalid(params, "min_heading_change_rad");
  params = {};
  params.min_heading_change_rad = 4.0;  // > pi
  expect_invalid(params, "min_heading_change_rad");
  params = {};
  params.max_window = 1;
  expect_invalid(params, "max_window");
}

TEST(ParamsValidateTest, RejectsNaNThresholds) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  AlgorithmParams params;
  params.epsilon_m = nan;
  EXPECT_EQ(params.Validate().code(), StatusCode::kInvalidArgument);
  params = {};
  params.speed_threshold_mps = nan;
  EXPECT_EQ(params.Validate().code(), StatusCode::kInvalidArgument);
  params = {};
  params.interval_s = nan;
  EXPECT_EQ(params.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(RegistryTest, ViewEntryPointsRegisteredForEveryAlgorithm) {
  Workspace workspace;
  IndexList kept;
  const Trajectory trajectory = testutil::RandomWalk(50, 77);
  for (const AlgorithmInfo& info : AllAlgorithms()) {
    ASSERT_NE(info.run_view, nullptr) << info.name;
    info.run_view(trajectory, AlgorithmParams{}, workspace, kept);
    EXPECT_EQ(kept,
              testutil::RunAlgorithm(info, trajectory, AlgorithmParams{}))
        << info.name;
  }
}

TEST(RegistryTest, SpatiotemporalFlagMatchesBehaviour) {
  // Spatially-invisible stop: only algorithms flagged spatiotemporal react
  // (uniform/temporal sampling excepted — they ignore geometry entirely).
  const Trajectory trajectory = testutil::LineWithStop(10, 10, 10);
  AlgorithmParams params;
  params.epsilon_m = 10.0;
  params.speed_threshold_mps = 5.0;
  for (const AlgorithmInfo& info : AllAlgorithms()) {
    if (info.name == "uniform" || info.name == "temporal" ||
        info.name == "radial") {
      // Pure-sampling baselines ignore the path geometry altogether.
      continue;
    }
    const IndexList kept = testutil::RunAlgorithm(info, trajectory, params);
    if (info.spatiotemporal) {
      EXPECT_GT(kept.size(), 2u) << info.name;
    } else {
      EXPECT_EQ(kept.size(), 2u) << info.name;
    }
  }
}

}  // namespace
}  // namespace stcomp::algo
