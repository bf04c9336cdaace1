#include <gtest/gtest.h>

#include "stcomp/exp/figures.h"
#include "stcomp/exp/sweep.h"
#include "stcomp/exp/table.h"
#include "stcomp/sim/paper_dataset.h"
#include "test_util.h"

namespace stcomp {
namespace {

// One small shared dataset for the harness tests (full-size runs live in
// bench/).
const std::vector<Trajectory>& SmallDataset() {
  static const std::vector<Trajectory>* const kDataset = [] {
    PaperDatasetConfig config;
    config.num_trajectories = 3;
    return new std::vector<Trajectory>(GeneratePaperDataset(config));
  }();
  return *kDataset;
}

TEST(TableTest, FixedWidthRendering) {
  Table table({"a", "long_header"});
  table.AddRow({"1", "2"});
  table.AddRow({"333", "4"});
  const std::string text = table.ToString();
  EXPECT_NE(text.find("long_header"), std::string::npos);
  EXPECT_NE(text.find("333"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TableTest, CsvRendering) {
  Table table({"x", "y"});
  table.AddRow({"1", "2"});
  EXPECT_EQ(table.ToCsv(), "x,y\n1,2\n");
}

TEST(SweepTest, PaperGrids) {
  const std::vector<double> thresholds = PaperThresholds();
  ASSERT_EQ(thresholds.size(), 15u);
  EXPECT_DOUBLE_EQ(thresholds.front(), 30.0);
  EXPECT_DOUBLE_EQ(thresholds.back(), 100.0);
  EXPECT_EQ(PaperSpeedThresholds(), (std::vector<double>{5.0, 15.0, 25.0}));
}

TEST(SweepTest, EvaluateAveragedAggregates) {
  const algo::AlgorithmInfo* ndp = algo::FindAlgorithm("ndp").value();
  algo::AlgorithmParams params;
  params.epsilon_m = 50.0;
  algo::Workspace workspace;
  algo::IndexList kept;
  const SweepPoint point =
      EvaluateAveraged(SmallDataset(), *ndp, params, workspace, kept).value();
  EXPECT_GT(point.compression_percent, 0.0);
  EXPECT_LT(point.compression_percent, 100.0);
  EXPECT_GT(point.sync_error_mean_m, 0.0);
  EXPECT_FALSE(EvaluateAveraged({}, *ndp, params, workspace, kept).ok());
}

TEST(SweepTest, SweepProducesOnePointPerThreshold) {
  const auto sweep = SweepThresholds(SmallDataset(), "td-tr",
                                     algo::AlgorithmParams{}, {30.0, 100.0})
                         .value();
  ASSERT_EQ(sweep.size(), 2u);
  EXPECT_DOUBLE_EQ(sweep[0].epsilon_m, 30.0);
  // Compression grows with the threshold.
  EXPECT_LE(sweep[0].compression_percent, sweep[1].compression_percent);
}

TEST(SweepTest, UnknownAlgorithmFails) {
  EXPECT_FALSE(SweepThresholds(SmallDataset(), "nope",
                               algo::AlgorithmParams{}, {30.0})
                   .ok());
}

// The paper's headline claims, asserted on the small dataset.

TEST(PaperShapeTest, Fig7TdTrErrorWellBelowNdp) {
  const auto ndp = SweepThresholds(SmallDataset(), "ndp",
                                   algo::AlgorithmParams{}, {50.0}).value();
  const auto tdtr = SweepThresholds(SmallDataset(), "td-tr",
                                    algo::AlgorithmParams{}, {50.0}).value();
  // "the TD-TR algorithm produces much lower errors, while the compression
  // rate is only slightly lower."
  EXPECT_LT(tdtr[0].sync_error_mean_m, 0.6 * ndp[0].sync_error_mean_m);
  EXPECT_LT(tdtr[0].compression_percent, ndp[0].compression_percent);
  EXPECT_GT(tdtr[0].compression_percent,
            0.5 * ndp[0].compression_percent);
}

TEST(PaperShapeTest, Fig8BopwCompressesMoreWithWorseError) {
  const auto bopw = SweepThresholds(SmallDataset(), "bopw",
                                    algo::AlgorithmParams{}, {50.0}).value();
  const auto nopw = SweepThresholds(SmallDataset(), "nopw",
                                    algo::AlgorithmParams{}, {50.0}).value();
  EXPECT_GE(bopw[0].compression_percent, nopw[0].compression_percent);
  EXPECT_GE(bopw[0].sync_error_mean_m, nopw[0].sync_error_mean_m);
}

TEST(PaperShapeTest, Fig9OpwTrErrorWellBelowNopw) {
  const auto nopw = SweepThresholds(SmallDataset(), "nopw",
                                    algo::AlgorithmParams{}, {50.0}).value();
  const auto opwtr = SweepThresholds(SmallDataset(), "opw-tr",
                                     algo::AlgorithmParams{}, {50.0}).value();
  EXPECT_LT(opwtr[0].sync_error_mean_m, 0.6 * nopw[0].sync_error_mean_m);
}

TEST(PaperShapeTest, Fig10OpwSp25TracksOpwTr) {
  // "the graph for OPW-TR coincides with that of OPW-SP-25m/s".
  algo::AlgorithmParams sp25;
  sp25.speed_threshold_mps = 25.0;
  const auto opwtr = SweepThresholds(SmallDataset(), "opw-tr",
                                     algo::AlgorithmParams{}, {50.0}).value();
  const auto opwsp = SweepThresholds(SmallDataset(), "opw-sp", sp25,
                                     {50.0}).value();
  EXPECT_NEAR(opwsp[0].compression_percent, opwtr[0].compression_percent,
              5.0);
  EXPECT_NEAR(opwsp[0].sync_error_mean_m, opwtr[0].sync_error_mean_m,
              0.25 * opwtr[0].sync_error_mean_m + 2.0);
}

TEST(RenderTest, Table2MentionsEveryStatistic) {
  const std::string text = RenderTable2(SmallDataset());
  for (const char* needle : {"duration", "speed", "length", "displacement",
                             "data points", "paper_avg", "ours_avg"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(RenderTest, FiguresRenderNonTrivially) {
  EXPECT_GT(RenderFigure7(SmallDataset()).value().size(), 400u);
  EXPECT_GT(RenderFigure8(SmallDataset()).value().size(), 400u);
  EXPECT_GT(RenderFigure9(SmallDataset()).value().size(), 400u);
  EXPECT_GT(RenderFigure10(SmallDataset()).value().size(), 400u);
  EXPECT_GT(RenderFigure11(SmallDataset()).value().size(), 400u);
  EXPECT_GT(RenderStorageTable(SmallDataset()).value().size(), 100u);
}

}  // namespace
}  // namespace stcomp
