// Query-engine benchmark: summary-accelerated RunQuery vs the brute-force
// decode-everything oracle across a selectivity x dataset-size matrix.
// Every timed pair is also checked for bitwise-equal answers, so this
// doubles as a large-input differential smoke. The JSON lands in
// BENCH_queries.json (schema gated by scripts/validate_bench.py, which
// requires the engine to beat full decompression in every cell); the
// headline number is low_selectivity_speedup, the largest fleet's
// low-selectivity cell.
//
//   bench_queries [--objects=64] [--queries=40] [--epsilon=30]
//                 [--json-out=BENCH_queries.json]

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "stcomp/algo/time_ratio.h"
#include "stcomp/common/check.h"
#include "stcomp/common/flags.h"
#include "stcomp/common/strings.h"
#include "stcomp/exp/table.h"
#include "stcomp/obs/exposition.h"
#include "stcomp/obs/metrics.h"
#include "stcomp/sim/paper_dataset.h"
#include "stcomp/store/query.h"
#include "stcomp/store/trajectory_store.h"

namespace {

struct CellResult {
  size_t objects = 0;
  std::string selectivity;
  size_t queries = 0;
  size_t hits = 0;
  double engine_us = 0.0;
  double oracle_us = 0.0;
  double speedup = 0.0;
  double decoded_fraction = 0.0;  // blocks decoded / blocks total
};

template <typename F>
double TimeUs(const F& run, int repetitions) {
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < repetitions; ++r) {
    run();
  }
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(stop - start).count() /
         repetitions;
}

}  // namespace

int main(int argc, char** argv) {
  int max_objects = 64;
  int num_queries = 40;
  double epsilon = 30.0;
  std::string json_out = "BENCH_queries.json";
  stcomp::FlagParser flags(
      "Index-accelerated queries vs the brute-force oracle across a "
      "selectivity x fleet-size matrix");
  flags.AddInt("objects", &max_objects,
               "largest fleet size (the matrix runs objects/4, objects/2, "
               "objects)");
  flags.AddInt("queries", &num_queries, "random queries per matrix cell");
  flags.AddDouble("epsilon", &epsilon,
                  "TD-TR simplification tolerance (m) applied before insert");
  flags.AddString("json-out", &json_out,
                  "result snapshot path; empty disables the JSON dump");
  if (const stcomp::Status status = flags.Parse(argc, argv); !status.ok()) {
    return status.code() == stcomp::StatusCode::kFailedPrecondition ? 0 : 1;
  }
  STCOMP_CHECK(max_objects >= 4);

  // Selectivity is controlled by the query box edge: a 500 m box touches a
  // handful of blocks; a 16 km box touches most of the fleet's extent.
  struct Shape {
    const char* label;
    double edge_m;
  };
  const std::vector<Shape> shapes = {
      {"low", 500.0}, {"mid", 4000.0}, {"high", 16000.0}};
  const std::vector<size_t> fleets = {static_cast<size_t>(max_objects) / 4,
                                      static_cast<size_t>(max_objects) / 2,
                                      static_cast<size_t>(max_objects)};

  std::printf(
      "Range queries on the compressed store: block-skipping engine vs "
      "decode-everything oracle (%d queries/cell, eps=%.0f m)\n\n",
      num_queries, epsilon);
  stcomp::Table table({"objects", "selectivity", "hits", "engine_us",
                       "oracle_us", "speedup", "decoded_blocks"});
  std::vector<CellResult> cells;
  double low_selectivity_speedup = 0.0;
  for (const size_t fleet : fleets) {
    stcomp::PaperDatasetConfig config;
    config.num_trajectories = fleet;
    const std::vector<stcomp::Trajectory> dataset =
        stcomp::GeneratePaperDataset(config);
    stcomp::TrajectoryStore store;
    for (const stcomp::Trajectory& trip : dataset) {
      STCOMP_CHECK_OK(store.Insert(
          trip.name(),
          trip.Subset(stcomp::algo::Kept(stcomp::algo::TdTr, trip, epsilon))));
    }

    for (const Shape& shape : shapes) {
      stcomp::Rng rng(9 + fleet);
      std::vector<stcomp::QueryRequest> requests;
      for (int q = 0; q < num_queries; ++q) {
        stcomp::QueryRequest request;
        request.type = stcomp::QueryType::kRange;
        request.declared_error_m = epsilon;
        const stcomp::Vec2 corner{rng.NextUniform(-5000.0, 25000.0),
                                  rng.NextUniform(-5000.0, 25000.0)};
        request.box = {corner,
                       corner + stcomp::Vec2{shape.edge_m, shape.edge_m}};
        requests.push_back(request);
      }

      // Answers must agree bit for bit before either side is timed.
      size_t hits = 0;
      uint64_t blocks_total = 0;
      uint64_t blocks_decoded = 0;
      for (const stcomp::QueryRequest& request : requests) {
        const stcomp::Result<stcomp::QueryAnswer> engine =
            stcomp::RunQuery(store, request);
        const stcomp::Result<stcomp::QueryAnswer> oracle =
            stcomp::BruteForceQuery(store, request);
        STCOMP_CHECK_OK(engine.status());
        STCOMP_CHECK_OK(oracle.status());
        STCOMP_CHECK(engine->hits.size() == oracle->hits.size());
        for (size_t i = 0; i < engine->hits.size(); ++i) {
          STCOMP_CHECK(engine->hits[i].id == oracle->hits[i].id);
          STCOMP_CHECK(engine->hits[i].first_hit_t ==
                       oracle->hits[i].first_hit_t);
        }
        hits += engine->hits.size();
        blocks_total += engine->stats.blocks_total;
        blocks_decoded += engine->stats.blocks_decoded;
      }

      const int repetitions = 5;
      const double engine_us = TimeUs(
          [&] {
            for (const stcomp::QueryRequest& request : requests) {
              STCOMP_CHECK_OK(stcomp::RunQuery(store, request).status());
            }
          },
          repetitions);
      const double oracle_us = TimeUs(
          [&] {
            for (const stcomp::QueryRequest& request : requests) {
              STCOMP_CHECK_OK(stcomp::BruteForceQuery(store, request).status());
            }
          },
          repetitions);

      CellResult cell;
      cell.objects = fleet;
      cell.selectivity = shape.label;
      cell.queries = static_cast<size_t>(num_queries);
      cell.hits = hits;
      cell.engine_us = engine_us;
      cell.oracle_us = oracle_us;
      cell.speedup = engine_us > 0.0 ? oracle_us / engine_us : 0.0;
      cell.decoded_fraction =
          blocks_total > 0
              ? static_cast<double>(blocks_decoded) / blocks_total
              : 0.0;
      cells.push_back(cell);
      if (shape.label == std::string("low") && fleet == fleets.back()) {
        low_selectivity_speedup = cell.speedup;
      }
      table.AddRow({stcomp::StrFormat("%zu", fleet), shape.label,
                    stcomp::StrFormat("%zu", hits),
                    stcomp::StrFormat("%.0f", engine_us),
                    stcomp::StrFormat("%.0f", oracle_us),
                    stcomp::StrFormat("%.1fx", cell.speedup),
                    stcomp::StrFormat("%.0f%%", 100.0 * cell.decoded_fraction)});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("low-selectivity speedup at %d objects: %.2fx\n", max_objects,
              low_selectivity_speedup);

  if (!json_out.empty()) {
    std::string cells_json = "[";
    for (size_t i = 0; i < cells.size(); ++i) {
      const CellResult& cell = cells[i];
      cells_json += stcomp::StrFormat(
          "%s\n    {\"objects\": %zu, \"selectivity\": \"%s\", "
          "\"queries\": %zu, \"hits\": %zu, \"engine_us\": %.3f, "
          "\"oracle_us\": %.3f, \"speedup\": %.4f, "
          "\"decoded_block_fraction\": %.6f}",
          i == 0 ? "" : ",", cell.objects, cell.selectivity.c_str(),
          cell.queries, cell.hits, cell.engine_us, cell.oracle_us,
          cell.speedup, cell.decoded_fraction);
    }
    cells_json += "\n  ]";
    const std::string json = stcomp::StrFormat(
        "{\n  \"bench\": \"bench_queries\",\n  \"schema_version\": 1,\n"
        "  \"epsilon_m\": %.3f,\n  \"queries_per_cell\": %d,\n"
        "  \"max_objects\": %d,\n"
        "  \"low_selectivity_speedup\": %.4f,\n"
        "  \"cells\": %s,\n  \"metrics\": %s}\n",
        epsilon, num_queries, max_objects, low_selectivity_speedup,
        cells_json.c_str(),
        stcomp::obs::RenderJson(
            stcomp::obs::MetricsRegistry::Global().Snapshot())
            .c_str());
    std::ofstream file(json_out);
    if (!file) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_out.c_str());
      return 1;
    }
    file << json;
    std::printf("result written to %s\n", json_out.c_str());
  }
  return 0;
}
