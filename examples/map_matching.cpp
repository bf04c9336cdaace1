// Map matching + compression: clean a noisy GPS trace by snapping it onto
// the road network, then compress the snapped trace — the full
// "infrastructure-constrained" pipeline the paper's Sec. 2 alludes to.
//
//   ./examples/map_matching [--sigma=8] [--epsilon=30]

#include <cstdio>

#include "stcomp/algo/time_ratio.h"
#include "stcomp/common/flags.h"
#include "stcomp/error/evaluation.h"
#include "stcomp/sim/gps_noise.h"
#include "stcomp/sim/map_matching.h"
#include "stcomp/sim/road_network.h"
#include "stcomp/sim/trip_generator.h"

int main(int argc, char** argv) {
  double sigma = 8.0;
  double epsilon = 30.0;
  stcomp::FlagParser flags("map matching + compression demo");
  flags.AddDouble("sigma", &sigma, "GPS noise sigma in metres");
  flags.AddDouble("epsilon", &epsilon, "compression threshold in metres");
  if (const stcomp::Status status = flags.Parse(argc, argv); !status.ok()) {
    return status.code() == stcomp::StatusCode::kFailedPrecondition ? 0 : 1;
  }

  // Ground truth: a drive over the network; observation: the noisy fixes.
  stcomp::RoadNetworkConfig network_config;
  network_config.grid_width = 16;
  network_config.grid_height = 16;
  network_config.spacing_m = 400.0;
  const stcomp::RoadNetwork network =
      stcomp::RoadNetwork::Generate(network_config, 5);
  stcomp::Rng rng(99);
  stcomp::TripConfig trip_config;
  trip_config.target_length_m = 6000.0;
  const stcomp::Trajectory truth =
      stcomp::GenerateTrip(network, trip_config, -1, &rng).value();
  stcomp::GpsNoiseConfig noise;
  noise.sigma_m = sigma;
  const stcomp::Trajectory observed =
      stcomp::AddGpsNoise(truth, noise, &rng);

  // Match.
  stcomp::MapMatchConfig match_config;
  match_config.gps_sigma_m = sigma;
  const stcomp::MapMatchResult matched =
      stcomp::MatchToNetwork(network, observed, match_config).value();

  // How much of the noise did snapping remove?
  double observed_error = 0.0;
  double snapped_error = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    observed_error +=
        stcomp::Distance(observed[i].position, truth[i].position);
    snapped_error +=
        stcomp::Distance(matched.snapped[i].position, truth[i].position);
  }
  const double n = static_cast<double>(truth.size());
  std::printf(
      "trip: %zu fixes over %.1f km\n"
      "mean error vs ground truth: observed %.2f m -> snapped %.2f m "
      "(residual to roads: %.2f m)\n",
      truth.size(), truth.Length() / 1000.0, observed_error / n,
      snapped_error / n, matched.mean_residual_m);

  // Compress raw-noisy vs snapped: snapping removes noise wiggle, so the
  // same threshold compresses further at lower error vs ground truth.
  for (const auto& [label, source] :
       {std::pair{"observed", observed}, std::pair{"snapped", matched.snapped}}) {
    const stcomp::algo::IndexList kept =
        stcomp::algo::Kept(stcomp::algo::TdTr, source, epsilon);
    const stcomp::Evaluation eval = stcomp::Evaluate(source, kept).value();
    std::printf(
        "TD-TR on %-8s kept %3zu/%3zu (%.1f%% compression), mean sync error "
        "%5.2f m\n",
        label, eval.kept_points, eval.original_points,
        eval.compression_percent, eval.sync_error_mean_m);
  }
  return 0;
}
