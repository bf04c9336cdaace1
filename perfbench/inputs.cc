#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "stcomp/common/strings.h"
#include "stcomp/sim/paper_dataset.h"
#include "stcomp/sim/random.h"
#include "stcomp/store/partitioned_store.h"
#include "stcomp/stream/fleet_compressor.h"
#include "stcomp/stream/opening_window_stream.h"

namespace perfbench {

using stcomp::QueryRequest;
using stcomp::QueryType;
using stcomp::Rng;
using stcomp::TimedPoint;
using stcomp::Trajectory;
using stcomp::Vec2;

namespace {

// Trips start in a one-hour morning peak, so a day's fixes arrive over
// about two hours with most of the fleet on the road at once.
constexpr double kPeakStartS = 7 * 3600.0;
constexpr double kPeakLengthS = 3600.0;

Trajectory ShiftDays(const Trajectory& track, int day) {
  std::vector<TimedPoint> points = track.points();
  for (TimedPoint& point : points) point.t += day * kDaySeconds;
  return Trajectory::FromPoints(std::move(points)).value();
}

}  // namespace

std::unique_ptr<stcomp::OnlineCompressor> MakeCompressor() {
  return std::make_unique<stcomp::OpeningWindowStream>(
      kEpsilonM, stcomp::algo::BreakPolicy::kNormal,
      stcomp::StreamCriterion::kSynchronized);
}

Fleet GenerateFleet(uint64_t seed, size_t vehicles) {
  stcomp::PaperDatasetConfig config;
  config.seed = seed;
  config.num_trajectories = vehicles;
  config.sample_interval_s = 1.0;
  std::vector<Trajectory> trips = stcomp::GeneratePaperDataset(config);

  Fleet fleet;
  Rng rng(seed ^ 0x243f6a8885a308d3ULL);
  for (size_t v = 0; v < trips.size(); ++v) {
    // Whole seconds keep every timestamp an exact integer, so shifting a
    // track by whole days is exact too.
    const double start =
        kPeakStartS + std::floor(rng.NextUniform(0.0, kPeakLengthS));
    std::vector<TimedPoint> points = trips[v].points();
    for (TimedPoint& point : points) point.t += start;
    fleet.fixes_per_day += points.size();
    fleet.ids.push_back(stcomp::StrFormat("veh-%05zu", v));
    fleet.tracks.push_back(Trajectory::FromPoints(std::move(points)).value());
  }
  return fleet;
}

std::vector<std::vector<Fix>> MakeStreams(const Fleet& fleet, int day,
                                          size_t connections, size_t limit) {
  struct Key {
    double t;
    uint32_t vehicle;
    uint32_t index;
  };
  std::vector<Key> keys;
  keys.reserve(fleet.fixes_per_day);
  for (size_t v = 0; v < fleet.tracks.size(); ++v) {
    const Trajectory& track = fleet.tracks[v];
    for (size_t i = 0; i < track.size(); ++i) {
      keys.push_back(Key{track[i].t, static_cast<uint32_t>(v),
                         static_cast<uint32_t>(i)});
    }
  }
  limit = std::min(limit, keys.size());
  auto earlier = [](const Key& a, const Key& b) {
    return a.t != b.t ? a.t < b.t : a.vehicle < b.vehicle;
  };
  const auto prefix_end = keys.begin() + static_cast<long>(limit);
  std::nth_element(keys.begin(), prefix_end, keys.end(), earlier);
  std::sort(keys.begin(), prefix_end, earlier);
  std::vector<std::vector<Fix>> streams(connections);
  for (size_t k = 0; k < limit; ++k) {
    TimedPoint point = fleet.tracks[keys[k].vehicle][keys[k].index];
    point.t += day * kDaySeconds;
    streams[keys[k].vehicle % connections].push_back(
        Fix{keys[k].vehicle, point});
  }
  return streams;
}

std::vector<Trajectory> CompressDays(const Fleet& fleet, int first_day,
                                     int last_day) {
  std::vector<Trajectory> out(fleet.tracks.size());
  const size_t workers = 4;
  std::vector<std::thread> threads;
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (size_t v = w; v < fleet.tracks.size(); v += workers) {
        std::vector<TimedPoint> kept;
        for (int day = first_day; day <= last_day; ++day) {
          auto compressor = MakeCompressor();
          const Trajectory compressed =
              stcomp::CompressStream(ShiftDays(fleet.tracks[v], day),
                                     compressor.get())
                  .value();
          kept.insert(kept.end(), compressed.points().begin(),
                      compressed.points().end());
        }
        out[v] = Trajectory::FromPoints(std::move(kept)).value();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return out;
}

stcomp::Status BuildStore(const std::string& dir, size_t shards,
                          const Fleet& fleet,
                          const std::vector<Trajectory>& history,
                          bool wal_tail) {
  stcomp::PartitionedSegmentStore::Options options;
  options.num_shards = shards;
  stcomp::PartitionedSegmentStore store(options);
  STCOMP_RETURN_IF_ERROR(store.Open(dir));
  const size_t vehicles = fleet.ids.size();
  const size_t checkpointed = wal_tail ? vehicles - vehicles / 10 : vehicles;
  for (size_t v = 0; v < checkpointed; ++v) {
    STCOMP_RETURN_IF_ERROR(store.Insert(fleet.ids[v], history[v]));
  }
  STCOMP_RETURN_IF_ERROR(store.Checkpoint());
  for (size_t v = checkpointed; v < vehicles; ++v) {
    STCOMP_RETURN_IF_ERROR(store.Insert(fleet.ids[v], history[v]));
  }
  return store.Commit();
}

stcomp::Result<std::unique_ptr<stcomp::TrajectoryStore>> ReferenceStore(
    const Fleet& fleet, const std::vector<Trajectory>& history,
    const std::vector<std::vector<Fix>>& streams) {
  auto store = std::make_unique<stcomp::TrajectoryStore>();
  for (size_t v = 0; v < fleet.ids.size(); ++v) {
    STCOMP_RETURN_IF_ERROR(store->Insert(fleet.ids[v], history[v]));
  }
  stcomp::FleetCompressor compressor(MakeCompressor, store.get());
  for (const std::vector<Fix>& stream : streams) {
    for (const Fix& fix : stream) {
      STCOMP_RETURN_IF_ERROR(
          compressor.Push(fleet.ids[fix.vehicle], fix.point));
    }
  }
  STCOMP_RETURN_IF_ERROR(compressor.FinishAll());
  return store;
}

std::vector<QueryRequest> MakeQueryMix(uint64_t seed,
                                       const std::vector<std::string>& ids,
                                       const stcomp::TrajectoryStore& contents,
                                       size_t slices, size_t per_kind) {
  Rng rng(seed ^ 0x13198a2e03707344ULL);
  // Shapes are stratified (additive low-discrepancy sequences, the same
  // for every seed), so a slice's latency spread comes from where the
  // data is, not from a lucky draw of box sizes and window lengths.
  auto spread = [](size_t i, double step, double low, double high) {
    const double u = std::fmod(0.5 + static_cast<double>(i) * step, 1.0);
    return low + u * (high - low);
  };
  std::vector<QueryRequest> mix;
  const QueryType kinds[] = {QueryType::kTimeWindow, QueryType::kRange,
                             QueryType::kCorridor, QueryType::kNearest};
  for (size_t slice = 0; slice < slices; ++slice) {
    for (size_t j = 0; j < per_kind; ++j) {
      const size_t i = j * slices + slice;
      for (const QueryType kind : kinds) {
        // Anchor on a stored point, so queries go where and when the
        // vehicles were, as an analyst's would.
        const Trajectory track =
            contents.Get(ids[rng.NextBelow(ids.size())]).value();
        const TimedPoint anchor = track[rng.NextBelow(track.size())];
        const Vec2 center = anchor.position;
        const bool wide = spread(i, 0.7548776662, 0.0, 1.0) < 0.2;
        QueryRequest request;
        request.type = kind;
        request.declared_error_m = kEpsilonM;
        const double length = wide ? spread(i, 0.6180339887, 1800.0, 5400.0)
                                   : spread(i, 0.6180339887, 60.0, 900.0);
        request.t0 = anchor.t - length / 2;
        request.t1 = anchor.t + length / 2;
        switch (kind) {
          case QueryType::kTimeWindow:
            break;
          case QueryType::kRange: {
            const double half = (wide ? spread(i, 0.4142135624, 4000.0, 8000.0)
                                      : spread(i, 0.4142135624, 1000.0,
                                               3000.0)) /
                                2;
            request.box.min = Vec2(center.x - half, center.y - half);
            request.box.max = Vec2(center.x + half, center.y + half);
            break;
          }
          case QueryType::kCorridor: {
            request.corridor.push_back(center);
            const size_t legs = 1 + i % 3;
            for (size_t leg = 0; leg < legs; ++leg) {
              const double heading = rng.NextUniform(0.0, 2 * M_PI);
              const double step =
                  wide ? spread(i + leg, 0.4142135624, 2000.0, 4000.0)
                       : spread(i + leg, 0.4142135624, 1000.0, 2000.0);
              const Vec2 last = request.corridor.back();
              request.corridor.push_back(
                  Vec2(last.x + step * std::cos(heading),
                       last.y + step * std::sin(heading)));
            }
            request.radius_m = wide ? spread(i, 0.7320508076, 150.0, 300.0)
                                    : spread(i, 0.7320508076, 50.0, 150.0);
            break;
          }
          case QueryType::kNearest:
            request.point = center;
            request.k = 10;
            break;
        }
        mix.push_back(std::move(request));
      }
    }
  }
  return mix;
}

}  // namespace perfbench
