// Quickstart: build a trajectory, compress it with the paper's TD-TR and
// OPW-TR algorithms, and evaluate the error/compression trade-off.
//
//   ./examples/quickstart [--epsilon=30]

#include <cstdio>

#include "stcomp/algo/registry.h"
#include "stcomp/algo/time_ratio.h"
#include "stcomp/common/flags.h"
#include "stcomp/error/evaluation.h"
#include "stcomp/sim/paper_dataset.h"

int main(int argc, char** argv) {
  double epsilon = 30.0;
  stcomp::FlagParser flags("stcomp quickstart");
  flags.AddDouble("epsilon", &epsilon, "distance threshold in metres");
  if (const stcomp::Status status = flags.Parse(argc, argv); !status.ok()) {
    return status.code() == stcomp::StatusCode::kFailedPrecondition ? 0 : 1;
  }

  // 1. Get a trajectory. Here: one synthetic GPS car trip (in your code:
  //    ReadCsvTrajectoryFile / ReadGpxFile / ReadPltFile).
  stcomp::PaperDatasetConfig config;
  config.num_trajectories = 1;
  const stcomp::Trajectory trip =
      stcomp::GeneratePaperDataset(config).front();
  std::printf("trajectory '%s': %zu points, %.1f km in %.0f s\n",
              trip.name().c_str(), trip.size(), trip.Length() / 1000.0,
              trip.Duration());

  // 2. Compress. Kept() runs an algorithm and returns the kept original
  //    indices.
  namespace algo = stcomp::algo;
  const algo::IndexList tdtr = algo::Kept(algo::TdTr, trip, epsilon);
  const algo::IndexList opwtr = algo::Kept(algo::OpwTr, trip, epsilon);

  // 3. Evaluate with the paper's time-synchronous error notion.
  for (const auto& [name, kept] :
       {std::pair{"td-tr", tdtr}, std::pair{"opw-tr", opwtr}}) {
    const stcomp::Evaluation eval = stcomp::Evaluate(trip, kept).value();
    std::printf(
        "%-7s kept %3zu/%3zu points  compression %5.1f%%  mean sync error "
        "%6.2f m  max %6.2f m\n",
        name, eval.kept_points, eval.original_points,
        eval.compression_percent, eval.sync_error_mean_m,
        eval.sync_error_max_m);
  }

  // 4. The compressed trajectory is itself a Trajectory: query it.
  const stcomp::Trajectory compressed = trip.Subset(tdtr);
  const double mid_time = trip.front().t + trip.Duration() / 2.0;
  const stcomp::Vec2 original = trip.PositionAt(mid_time).value();
  const stcomp::Vec2 approx = compressed.PositionAt(mid_time).value();
  std::printf(
      "position at mid-trip: original (%.1f, %.1f), compressed (%.1f, %.1f), "
      "offset %.2f m\n",
      original.x, original.y, approx.x, approx.y,
      stcomp::Distance(original, approx));
  return 0;
}
