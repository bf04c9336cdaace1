// End-to-end storage pipeline: GPS interchange formats in, compressed
// binary frames out — the paper's Sec. 1 storage story made concrete.
//
// Writes a trace out as GPX, reads it back, compresses it (TD-TR),
// serialises both versions with the raw and delta codecs, and prints the
// size ladder from "GPX text" down to "compressed + delta-coded binary".
//
//   ./examples/storage_pipeline [--epsilon=30]

#include <cstdio>

#include "stcomp/algo/time_ratio.h"
#include "stcomp/common/check.h"
#include "stcomp/common/flags.h"
#include "stcomp/common/strings.h"
#include "stcomp/error/evaluation.h"
#include "stcomp/exp/table.h"
#include "stcomp/gps/gpx.h"
#include "stcomp/sim/paper_dataset.h"
#include "stcomp/store/serialization.h"

int main(int argc, char** argv) {
  double epsilon = 30.0;
  stcomp::FlagParser flags("storage pipeline demo");
  flags.AddDouble("epsilon", &epsilon, "distance threshold in metres");
  if (const stcomp::Status status = flags.Parse(argc, argv); !status.ok()) {
    return status.code() == stcomp::StatusCode::kFailedPrecondition ? 0 : 1;
  }

  stcomp::PaperDatasetConfig config;
  config.num_trajectories = 1;
  stcomp::Trajectory trip = stcomp::GeneratePaperDataset(config).front();

  // Round-trip through GPX, as if the trace came from a consumer device.
  const stcomp::LatLon origin{52.22, 6.89};  // Enschede.
  const std::string gpx_text = stcomp::WriteGpx(trip, origin);
  const stcomp::GpxTrack parsed = stcomp::ParseGpx(gpx_text).value();
  std::printf("GPX round-trip: %zu -> %zu points\n", trip.size(),
              parsed.trajectory.size());
  trip = parsed.trajectory;

  // Compress.
  const stcomp::algo::IndexList kept =
      stcomp::algo::Kept(stcomp::algo::TdTr, trip, epsilon);
  const stcomp::Trajectory compressed = trip.Subset(kept);
  const stcomp::Evaluation eval = stcomp::Evaluate(trip, kept).value();

  // Size ladder.
  const auto frame_size = [](const stcomp::Trajectory& t,
                             stcomp::Codec codec) {
    return stcomp::SerializeTrajectory(t, codec).value().size();
  };
  stcomp::Table table({"representation", "bytes", "% of GPX"});
  const double gpx_bytes = static_cast<double>(gpx_text.size());
  const auto add = [&](const char* label, size_t bytes) {
    table.AddRow({label, stcomp::StrFormat("%zu", bytes),
                  stcomp::StrFormat("%.1f", 100.0 * bytes / gpx_bytes)});
  };
  add("GPX text", gpx_text.size());
  add("binary raw", frame_size(trip, stcomp::Codec::kRaw));
  add("binary delta", frame_size(trip, stcomp::Codec::kDelta));
  add("TD-TR + raw", frame_size(compressed, stcomp::Codec::kRaw));
  add("TD-TR + delta", frame_size(compressed, stcomp::Codec::kDelta));
  std::printf("\n%s\n", table.ToString().c_str());
  std::printf(
      "TD-TR at %.0f m keeps %zu/%zu points (%.1f%% compression) at mean "
      "sync error %.2f m\n",
      epsilon, eval.kept_points, eval.original_points,
      eval.compression_percent, eval.sync_error_mean_m);

  // Durable round trip with CRC-checked frames.
  const std::string path = "/tmp/stcomp_storage_pipeline.stct";
  STCOMP_CHECK_OK(
      stcomp::WriteTrajectoryFile(compressed, stcomp::Codec::kDelta, path));
  const stcomp::Trajectory reloaded =
      stcomp::ReadTrajectoryFile(path).value();
  std::printf("reloaded %zu points from %s (CRC verified)\n",
              reloaded.size(), path.c_str());
  return 0;
}
