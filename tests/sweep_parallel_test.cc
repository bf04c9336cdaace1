#include "stcomp/exp/sweep.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stcomp/obs/metrics.h"
#include "test_util.h"

namespace stcomp {
namespace {

std::vector<Trajectory> SmallDataset() {
  return {testutil::RandomWalk(120, 1), testutil::RandomWalk(90, 2),
          testutil::LineWithStop(12, 8, 12)};
}

bool PointsEqual(const SweepPoint& a, const SweepPoint& b) {
  // Exact doubles: the parallel driver runs the identical arithmetic on
  // the identical shared dataset, just on another thread.
  return a.epsilon_m == b.epsilon_m &&
         a.speed_threshold_mps == b.speed_threshold_mps &&
         a.compression_percent == b.compression_percent &&
         a.sync_error_mean_m == b.sync_error_mean_m &&
         a.sync_error_max_m == b.sync_error_max_m &&
         a.perp_error_mean_m == b.perp_error_mean_m &&
         a.area_error_m == b.area_error_m;
}

TEST(SweepParallelTest, ParallelMatchesSerialExactly) {
  const std::vector<Trajectory> dataset = SmallDataset();
  const std::vector<double> thresholds = {5.0, 20.0, 60.0};
  std::vector<SweepRequest> requests;
  for (const char* name : {"ndp", "td-tr", "opw-tr", "bottom-up-tr"}) {
    algo::AlgorithmParams base;
    base.speed_threshold_mps = 10.0;
    requests.push_back({name, base, thresholds});
  }
  const Result<std::vector<std::vector<SweepPoint>>> parallel =
      SweepManyParallel(dataset, requests, 4);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_EQ(parallel->size(), requests.size());
  for (size_t r = 0; r < requests.size(); ++r) {
    const Result<std::vector<SweepPoint>> serial = SweepThresholds(
        dataset, requests[r].algorithm, requests[r].base, thresholds);
    ASSERT_TRUE(serial.ok());
    ASSERT_EQ((*parallel)[r].size(), serial->size());
    for (size_t k = 0; k < serial->size(); ++k) {
      EXPECT_TRUE(PointsEqual((*parallel)[r][k], (*serial)[k]))
          << requests[r].algorithm << " threshold " << thresholds[k];
    }
  }
}

TEST(SweepParallelTest, ParallelMatchesSerialOnBatchedKernelPaths) {
  // One family per distance loop: perpendicular argmax (ndp), SED first
  // violation (opw-tr), SED and speed-jump argmax (td-sp) and the radial
  // keep scan (radial).
  const std::vector<Trajectory> dataset = SmallDataset();
  const std::vector<double> thresholds = {5.0, 20.0, 60.0};
  std::vector<SweepRequest> requests;
  for (const char* name : {"ndp", "opw-tr", "td-sp", "radial"}) {
    algo::AlgorithmParams base;
    base.speed_threshold_mps = 10.0;
    requests.push_back({name, base, thresholds});
  }
  const Result<std::vector<std::vector<SweepPoint>>> parallel =
      SweepManyParallel(dataset, requests, 4);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  for (size_t r = 0; r < requests.size(); ++r) {
    const Result<std::vector<SweepPoint>> serial = SweepThresholds(
        dataset, requests[r].algorithm, requests[r].base, thresholds);
    ASSERT_TRUE(serial.ok());
    ASSERT_EQ((*parallel)[r].size(), serial->size());
    for (size_t k = 0; k < serial->size(); ++k) {
      EXPECT_TRUE(PointsEqual((*parallel)[r][k], (*serial)[k]))
          << requests[r].algorithm << " threshold " << thresholds[k];
    }
  }
}

TEST(SweepParallelTest, SweepThresholdsParallelMatchesSerial) {
  const std::vector<Trajectory> dataset = SmallDataset();
  const algo::AlgorithmParams base;
  const std::vector<double> thresholds = {10.0, 40.0};
  const Result<std::vector<SweepPoint>> serial =
      SweepThresholds(dataset, "td-tr", base, thresholds);
  const Result<std::vector<SweepPoint>> parallel =
      SweepThresholdsParallel(dataset, "td-tr", base, thresholds, 2);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(parallel->size(), serial->size());
  for (size_t k = 0; k < serial->size(); ++k) {
    EXPECT_TRUE(PointsEqual((*parallel)[k], (*serial)[k])) << k;
  }
}

TEST(SweepParallelTest, MoreThreadsThanCellsIsFine) {
  const std::vector<Trajectory> dataset = {testutil::RandomWalk(60, 9)};
  const algo::AlgorithmParams base;
  const Result<std::vector<SweepPoint>> points =
      SweepThresholdsParallel(dataset, "ndp", base, {25.0}, 16);
  ASSERT_TRUE(points.ok());
  EXPECT_EQ(points->size(), 1u);
}

TEST(SweepParallelTest, UnknownAlgorithmFailsBeforeAnyWork) {
  const std::vector<Trajectory> dataset = {testutil::RandomWalk(60, 9)};
  std::vector<SweepRequest> requests = {{"bogus", {}, {10.0}}};
  const auto result = SweepManyParallel(dataset, requests);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(SweepParallelTest, InvalidThresholdSurfacesAsStatusNotAbort) {
  // A negative epsilon in the grid must come back as kInvalidArgument from
  // params.Validate(), not trip the registry wrapper's check.
  const std::vector<Trajectory> dataset = {testutil::RandomWalk(60, 9)};
  const algo::AlgorithmParams base;
  const auto result =
      SweepThresholdsParallel(dataset, "td-tr", base, {30.0, -5.0}, 2);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SweepParallelTest, EmptyDatasetIsInvalidArgument) {
  const std::vector<Trajectory> dataset;
  const algo::AlgorithmParams base;
  const auto result = SweepThresholds(dataset, "td-tr", base, {30.0});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

#if STCOMP_METRICS_ENABLED
TEST(SweepParallelTest, RecordsSweepMetrics) {
  const std::vector<Trajectory> dataset = {testutil::RandomWalk(80, 13)};
  obs::Counter* const cells = obs::MetricsRegistry::Global().GetCounter(
      "stcomp_exp_sweep_cells_total", {{"algorithm", "td-tr"}});
  obs::Histogram* const seconds = obs::MetricsRegistry::Global().GetHistogram(
      "stcomp_exp_sweep_seconds", {}, obs::LatencyBucketsSeconds());
  const uint64_t cells_before = cells->value();
  const uint64_t sweeps_before = seconds->count();
  const algo::AlgorithmParams base;
  ASSERT_TRUE(
      SweepThresholdsParallel(dataset, "td-tr", base, {10.0, 30.0, 50.0}, 2)
          .ok());
  EXPECT_EQ(cells->value(), cells_before + 3);
  EXPECT_EQ(seconds->count(), sweeps_before + 1);
}
#endif  // STCOMP_METRICS_ENABLED

}  // namespace
}  // namespace stcomp
