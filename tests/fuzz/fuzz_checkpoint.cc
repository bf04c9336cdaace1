// Fuzzes the streaming-state checkpoint readers (DESIGN.md §13): an
// arbitrary byte image goes to the STSM manifest parser and the STCK
// section reader, and is restored into a fresh FleetCompressor (OPW-TR
// compressors behind a kRepair gate) and a fresh SquishStream. A parsed
// manifest's shard images are each restored into a fleet of their own,
// as ShardedFleetCompressor::RestoreState does, without its worker
// threads. Every rejection must be a clean Status.
//
// Nothing is pushed after a restore: restored state is not validated yet
// (a restored `finished` flag still makes the next Push fail its check),
// so only the readers are under test here.

#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>

#include "fuzz/fuzz_registry.h"
#include "stcomp/stream/checkpoint.h"
#include "stcomp/stream/fleet_compressor.h"
#include "stcomp/stream/opening_window_stream.h"
#include "stcomp/stream/squish_stream.h"

namespace {

// tests/golden/golden_gen.cc writes the tests/fuzz/corpus/checkpoint/
// seeds under these same settings, so the seeds pass each config echo.
constexpr double kEpsilonM = 25.0;
constexpr double kReorderWindowS = 30.0;
constexpr size_t kSquishCapacity = 8;

// Parsing fails only as corruption.
void ExpectParseStatus(const stcomp::Status& status) {
  if (!status.ok() && status.code() != stcomp::StatusCode::kDataLoss) {
    std::abort();
  }
}

// A restore may also refuse a config echo or a missing section.
void ExpectRestoreStatus(const stcomp::Status& status) {
  if (!status.ok() && status.code() != stcomp::StatusCode::kDataLoss &&
      status.code() != stcomp::StatusCode::kInvalidArgument &&
      status.code() != stcomp::StatusCode::kNotFound) {
    std::abort();
  }
}

void RestoreFleet(std::string_view image) {
  stcomp::IngestPolicy policy;
  policy.mode = stcomp::IngestMode::kRepair;
  policy.reorder_window_s = kReorderWindowS;
  // One instance name for every input, so the metrics registry does not
  // grow with the corpus.
  stcomp::FleetCompressor fleet(
      [] {
        return std::make_unique<stcomp::OpeningWindowStream>(
            kEpsilonM, stcomp::algo::BreakPolicy::kNormal,
            stcomp::StreamCriterion::kSynchronized);
      },
      [](const std::string&, const stcomp::TimedPoint&) {
        return stcomp::Status::Ok();
      },
      policy, "fuzz-checkpoint");
  ExpectRestoreStatus(fleet.RestoreState(image));
}

int FuzzCheckpoint(const uint8_t* data, size_t size) {
  if (size > (1u << 20)) {
    return 0;
  }
  const std::string_view image(reinterpret_cast<const char*>(data), size);

  stcomp::CheckpointReader reader;
  ExpectParseStatus(reader.Parse(image));
  RestoreFleet(image);
  stcomp::SquishStream squish(kSquishCapacity, 0.0);
  ExpectRestoreStatus(squish.RestoreState(image));

  const stcomp::Result<stcomp::ShardManifestView> manifest =
      stcomp::ParseShardManifest(image);
  ExpectParseStatus(manifest.status());
  if (manifest.ok()) {
    for (const std::string_view shard_image : manifest->shard_images) {
      RestoreFleet(shard_image);
    }
  }
  return 0;
}

}  // namespace

STCOMP_FUZZ_TARGET(checkpoint, FuzzCheckpoint)
