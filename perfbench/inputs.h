// Seeded inputs of the end-to-end benchmark. Everything here derives from
// the --seed argument and is built before any timed window: the fleet, the
// per-connection fix streams, the history store the ingest runs start
// from, the query mix and the reference outputs the checks compare to.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stcomp/common/status.h"
#include "stcomp/core/trajectory.h"
#include "stcomp/geom/geometry.h"
#include "stcomp/store/query.h"
#include "stcomp/store/trajectory_store.h"
#include "stcomp/stream/online_compressor.h"

namespace perfbench {

// The compressor every path uses: OPW-TR (opening window, synchronized
// Euclidean distance) at the paper-scale tolerance.
constexpr double kEpsilonM = 25.0;
std::unique_ptr<stcomp::OnlineCompressor> MakeCompressor();

constexpr double kDaySeconds = 86400.0;

// A fleet of vehicles, each driving one trip per day along the same route
// (commuters): day d's track is the day-0 track shifted by d days.
struct Fleet {
  std::vector<std::string> ids;            // "veh-00000", ...
  std::vector<stcomp::Trajectory> tracks;  // day 0, 1 Hz, staggered starts
  size_t fixes_per_day = 0;
};
Fleet GenerateFleet(uint64_t seed, size_t vehicles);

// One fix as a gateway sends it.
struct Fix {
  uint32_t vehicle = 0;
  stcomp::TimedPoint point;
};

// The first `limit` fixes of day `day` in time order (ties by vehicle),
// split across `connections` gateways by vehicle id, each in time order.
std::vector<std::vector<Fix>> MakeStreams(const Fleet& fleet, int day,
                                          size_t connections, size_t limit);

// Each vehicle's track of days [first_day, last_day] after compression,
// one stream per day, concatenated: what the durable store holds once
// those days have been ingested and finished.
std::vector<stcomp::Trajectory> CompressDays(const Fleet& fleet,
                                             int first_day, int last_day);

// Writes a checkpointed store of `shards` partitions holding `history`.
// With a WAL tail, the last tenth of the vehicles is inserted after the
// checkpoint and only committed, so opening the store replays the log.
stcomp::Status BuildStore(const std::string& dir, size_t shards,
                          const Fleet& fleet,
                          const std::vector<stcomp::Trajectory>& history,
                          bool wal_tail);

// What every vehicle's stored trajectory must be after `streams` have
// been ingested into a store holding `history` and every object finished:
// one in-process FleetCompressor fed each vehicle's fixes, appending to an
// in-memory store that starts with the history.
stcomp::Result<std::unique_ptr<stcomp::TrajectoryStore>> ReferenceStore(
    const Fleet& fleet, const std::vector<stcomp::Trajectory>& history,
    const std::vector<std::vector<Fix>>& streams);

// The analyst's query mix over a store holding `contents`, in `slices`
// consecutive slices of `per_kind` queries of each kind (window, range,
// corridor, nearest k = 10), each centred in space and time on a stored
// point. Four in five use district-sized areas and 1-15 min windows; the
// rest are a wide tail of 30-90 min windows over 4-8 km areas.
// declared_error_m is the compressor's tolerance.
std::vector<stcomp::QueryRequest> MakeQueryMix(
    uint64_t seed, const std::vector<std::string>& ids,
    const stcomp::TrajectoryStore& contents, size_t slices, size_t per_kind);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
