// Rush-hour commuter analysis — the paper's principal motivating scenario
// (Sec. 1: "urban traffic, specifically commuter traffic, and rush hour
// analysis").
//
// Simulates a fleet of commuters over a shared road network, compresses
// every trace with each algorithm family, loads the compressed fleet into
// the trajectory store, and answers the analyst questions the paper
// motivates: where is everyone at time T, who passed through the city
//-centre box, and how much storage did compression save at what error.
//
//   ./examples/commuter_analysis [--fleet=25] [--epsilon=40]

#include <cstdio>
#include <map>
#include <vector>

#include "stcomp/algo/registry.h"
#include "stcomp/algo/time_ratio.h"
#include "stcomp/common/check.h"
#include "stcomp/common/flags.h"
#include "stcomp/common/strings.h"
#include "stcomp/error/evaluation.h"
#include "stcomp/exp/table.h"
#include "stcomp/sim/gps_noise.h"
#include "stcomp/sim/road_network.h"
#include "stcomp/sim/trip_generator.h"
#include "stcomp/store/trajectory_store.h"

int main(int argc, char** argv) {
  int fleet = 25;
  double epsilon = 40.0;
  stcomp::FlagParser flags("commuter fleet analysis");
  flags.AddInt("fleet", &fleet, "number of commuters");
  flags.AddDouble("epsilon", &epsilon, "distance threshold in metres");
  if (const stcomp::Status status = flags.Parse(argc, argv); !status.ok()) {
    return status.code() == stcomp::StatusCode::kFailedPrecondition ? 0 : 1;
  }

  // Morning rush hour on one road network.
  stcomp::RoadNetworkConfig network_config;
  network_config.grid_width = 28;
  network_config.grid_height = 28;
  network_config.spacing_m = 500.0;
  const stcomp::RoadNetwork network =
      stcomp::RoadNetwork::Generate(network_config, /*seed=*/7);
  stcomp::Rng rng(1234);

  std::vector<stcomp::Trajectory> fleet_traces;
  for (int i = 0; i < fleet; ++i) {
    stcomp::TripConfig trip;
    trip.target_length_m = rng.NextUniform(6000.0, 18000.0);
    trip.start_time_s = rng.NextUniform(0.0, 1800.0);  // Staggered departures.
    trip.stop_probability = 0.6;                        // Rush hour.
    const stcomp::Result<stcomp::Trajectory> trace =
        stcomp::GenerateTrip(network, trip, -1, &rng);
    if (!trace.ok()) {
      --i;
      continue;
    }
    stcomp::Trajectory noisy =
        stcomp::AddGpsNoise(*trace, stcomp::GpsNoiseConfig{}, &rng);
    noisy.set_name(stcomp::StrFormat("commuter-%d", i));
    fleet_traces.push_back(std::move(noisy));
  }

  // Compress the whole fleet with each algorithm and account storage.
  stcomp::Table table({"algorithm", "compression_%", "mean_sync_err_m",
                       "store_bytes", "bytes/commuter"});
  for (const char* name : {"ndp", "nopw", "td-tr", "opw-tr", "opw-sp"}) {
    const stcomp::algo::AlgorithmInfo* info =
        stcomp::algo::FindAlgorithm(name).value();
    stcomp::algo::AlgorithmParams params;
    params.epsilon_m = epsilon;
    params.speed_threshold_mps = 10.0;
    stcomp::TrajectoryStore store;
    double compression_sum = 0.0;
    double error_sum = 0.0;
    // One workspace and output serve every trace: the runs stop allocating
    // scratch once the buffers have grown.
    stcomp::algo::Workspace workspace;
    stcomp::algo::IndexList kept;
    for (const stcomp::Trajectory& trace : fleet_traces) {
      info->run_view(trace, params, workspace, kept);
      const stcomp::Evaluation eval = stcomp::Evaluate(trace, kept).value();
      compression_sum += eval.compression_percent;
      error_sum += eval.sync_error_mean_m;
      STCOMP_CHECK_OK(store.Insert(trace.name(), trace.Subset(kept)));
    }
    table.AddRow(
        {name,
         stcomp::StrFormat("%.1f", compression_sum / fleet_traces.size()),
         stcomp::StrFormat("%.2f", error_sum / fleet_traces.size()),
         stcomp::StrFormat("%zu", store.StorageBytes()),
         stcomp::StrFormat("%.0f", static_cast<double>(store.StorageBytes()) /
                                       fleet_traces.size())});
  }
  std::printf("fleet of %zu commuters, epsilon = %.0f m\n\n%s\n",
              fleet_traces.size(), epsilon, table.ToString().c_str());

  // Analyst queries against the TD-TR-compressed store.
  stcomp::TrajectoryStore store;
  for (const stcomp::Trajectory& trace : fleet_traces) {
    store.Insert(trace.name(),
                 trace.Subset(stcomp::algo::TdTr(trace, epsilon)));
  }
  // Who is inside the city-centre box at any point of their trip?
  const stcomp::BoundingBox centre{{5000.0, 5000.0}, {9000.0, 9000.0}};
  const std::vector<std::string> through_centre = store.ObjectsInBox(centre);
  std::printf("%zu/%zu commuters pass through the city-centre box\n",
              through_centre.size(), store.object_count());

  // Snapshot: positions 20 minutes into the rush hour.
  const double snapshot_t = 1200.0;
  int moving = 0;
  for (const std::string& id : store.ObjectIds()) {
    if (store.PositionAt(id, snapshot_t).ok()) {
      ++moving;
    }
  }
  std::printf("at t=%.0f s, %d commuters are en route\n", snapshot_t, moving);
  return 0;
}
