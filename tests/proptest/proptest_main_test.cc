// Registry-driven property runner: every algorithm in AllAlgorithms() is
// swept over the adversarial corpus (generator.h) and checked against the
// contract oracles (oracles.h). Algorithms registered in the future are
// picked up automatically — nothing here names an algorithm except the
// per-class contract tables in oracles.cc.
//
// Every assertion appends a "repro:" string carrying the generator family,
// seed, algorithm name and full AlgorithmParams, so a failure can be
// reproduced with one Generate() + one run_view() call.

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "proptest/generator.h"
#include "proptest/oracles.h"
#include "stcomp/algo/douglas_peucker.h"
#include "stcomp/algo/path_hull.h"
#include "stcomp/algo/registry.h"
#include "stcomp/stream/batch_adapter.h"
#include "stcomp/stream/dead_reckoning_stream.h"
#include "stcomp/stream/fleet_compressor.h"
#include "stcomp/stream/opening_window_stream.h"
#include "stcomp/stream/squish_stream.h"
#include "test_util.h"

namespace stcomp::proptest {
namespace {

constexpr uint64_t kBaseSeed = 20260805;
constexpr int kSeedsPerFamily = 3;

// Thresholds chosen to hit both degenerate regimes: epsilon 0 (only
// exactly-redundant points may go) and a threshold far above every
// corpus scale (everything interior may go).
const std::vector<double>& EpsilonLadder() {
  static const std::vector<double>* const kLadder =
      new std::vector<double>{0.0, 1e-6, 15.0, 5000.0};
  return *kLadder;
}

const std::vector<CorpusCase>& Corpus() {
  static const std::vector<CorpusCase>* const kCorpus =
      new std::vector<CorpusCase>(BuildCorpus(kBaseSeed, kSeedsPerFamily));
  return *kCorpus;
}

std::string Repro(const CorpusCase& c, const std::string& algorithm,
                  const algo::AlgorithmParams& params) {
  return "repro: " + Describe(c) + " algo=" + algorithm + " " +
         FormatParams(params);
}

class CorpusProperty : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(CorpusProperty, EveryAlgorithmSatisfiesItsContracts) {
  const CorpusCase& c = GetParam();
  for (const algo::AlgorithmInfo& info : algo::AllAlgorithms()) {
    for (double epsilon : EpsilonLadder()) {
      algo::AlgorithmParams params;
      params.epsilon_m = epsilon;
      const std::string repro = Repro(c, info.name, params);
      const algo::IndexList kept =
          testutil::RunAlgorithm(info, c.trajectory, params);
      EXPECT_EQ(CheckUniversalContracts(c.trajectory, kept), "") << repro;
      EXPECT_EQ(CheckDiscardedWithinEpsilon(c.trajectory, kept, epsilon,
                                            DistanceContractFor(info.name)),
                "")
          << repro;
    }
  }
}

TEST_P(CorpusProperty, EveryAlgorithmIsDeterministic) {
  const CorpusCase& c = GetParam();
  for (const algo::AlgorithmInfo& info : algo::AllAlgorithms()) {
    algo::AlgorithmParams params;
    const std::string repro = Repro(c, info.name, params);
    EXPECT_EQ(testutil::RunAlgorithm(info, c.trajectory, params),
              testutil::RunAlgorithm(info, c.trajectory, params))
        << repro;
  }
}

TEST_P(CorpusProperty, ViewEntryPointMatchesLegacyShim) {
  // The Workspace contract: run_view with a deliberately dirty, shared
  // workspace must be byte-identical to run_view on a fresh workspace, for
  // every algorithm and threshold.
  const CorpusCase& c = GetParam();
  algo::Workspace dirty;  // Reused across every (algorithm, epsilon) cell.
  algo::IndexList reused_out;
  for (const algo::AlgorithmInfo& info : algo::AllAlgorithms()) {
    for (double epsilon : EpsilonLadder()) {
      algo::AlgorithmParams params;
      params.epsilon_m = epsilon;
      const std::string repro = Repro(c, info.name, params);
      const algo::IndexList fresh =
          testutil::RunAlgorithm(info, c.trajectory, params);
      info.run_view(c.trajectory, params, dirty, reused_out);
      EXPECT_EQ(reused_out, fresh) << repro << " (dirty workspace)";
    }
  }
}

TEST_P(CorpusProperty, SynchronousErrorClosedFormMatchesQuadrature) {
  const CorpusCase& c = GetParam();
  if (c.trajectory.size() < 2) {
    return;  // The error notion needs an interval.
  }
  for (const algo::AlgorithmInfo& info : algo::AllAlgorithms()) {
    algo::AlgorithmParams params;
    const std::string repro = Repro(c, info.name, params);
    const algo::IndexList kept =
        testutil::RunAlgorithm(info, c.trajectory, params);
    ASSERT_EQ(CheckUniversalContracts(c.trajectory, kept), "") << repro;
    EXPECT_EQ(CheckSynchronousErrorAgreement(c.trajectory,
                                             c.trajectory.Subset(kept)),
              "")
        << repro;
  }
}

TEST_P(CorpusProperty, TopDownKeptCountMonotoneInEpsilon) {
  const CorpusCase& c = GetParam();
  for (const algo::AlgorithmInfo& info : algo::AllAlgorithms()) {
    if (!KeptCountMonotoneInEpsilon(info.name)) {
      continue;
    }
    size_t previous_kept = c.trajectory.size() + 1;
    for (double epsilon : EpsilonLadder()) {  // Ladder is ascending.
      algo::AlgorithmParams params;
      params.epsilon_m = epsilon;
      const size_t kept =
          testutil::RunAlgorithm(info, c.trajectory, params).size();
      EXPECT_LE(kept, previous_kept)
          << Repro(c, info.name, params)
          << " (kept count grew when epsilon increased)";
      previous_kept = kept;
    }
  }
}

TEST_P(CorpusProperty, StorePipelineRoundTrips) {
  const CorpusCase& c = GetParam();
  EXPECT_EQ(CheckStoreRoundTrip(c.trajectory), "") << "repro: " << Describe(c);
}

TEST(ProptestDifferential, PathHullMatchesNaiveDouglasPeuckerOnSimpleChains) {
  // path_hull.h documents identical output to the naive scan on simple
  // chains in generic position — exactly the monotone family. (On the
  // self-intersecting families ndp-hull has no epsilon guarantee, which
  // is why DistanceContractFor excludes it.)
  for (uint64_t seed = kBaseSeed; seed < kBaseSeed + 8; ++seed) {
    const Trajectory trajectory = Generate("monotone", seed);
    for (double epsilon : EpsilonLadder()) {
      EXPECT_EQ(algo::Kept(algo::DouglasPeuckerHull, trajectory, epsilon),
                algo::Kept(algo::DouglasPeucker, trajectory, epsilon))
          << "repro: family=monotone seed=" << seed << " eps=" << epsilon;
    }
  }
}

TEST(ProptestVarint, PrimitivesRoundTripAcrossSeeds) {
  for (uint64_t seed = kBaseSeed; seed < kBaseSeed + 8; ++seed) {
    EXPECT_EQ(CheckVarintRoundTrip(seed), "") << "repro: seed=" << seed;
  }
}

TEST(ProptestGenerator, IsDeterministicPerFamilyAndSeed) {
  for (const std::string& family : AllFamilies()) {
    EXPECT_EQ(Generate(family, kBaseSeed), Generate(family, kBaseSeed))
        << "family=" << family;
  }
}

TEST(ProptestGenerator, FamiliesCoverDegenerateSizes) {
  // The corpus must keep its edge families: empty, single-point and
  // two-point trajectories are where index handling goes wrong first.
  EXPECT_EQ(Generate("empty", kBaseSeed).size(), 0u);
  EXPECT_EQ(Generate("single", kBaseSeed).size(), 1u);
  EXPECT_EQ(Generate("two", kBaseSeed).size(), 2u);
}

// --- Dirty-input matrix (ingest hardening, DESIGN.md §12) ---------------
//
// Every stream adapter — including a BatchAdapter over every registered
// algorithm — is fed the dirty families (duplicate/non-monotonic/NaN
// timestamps, NaN coordinates) and must answer each Push with a clean
// Status and emit strictly ordered, finite output. The same feeds pushed
// through a one-object FleetCompressor under a kDropAndCount or kRepair
// IngestPolicy must additionally never fail a Push at all.

struct AdapterFactory {
  std::string name;
  std::function<std::unique_ptr<OnlineCompressor>()> make;
};

std::vector<AdapterFactory> AllAdapterFactories() {
  std::vector<AdapterFactory> factories = {
      {"nopw-stream",
       [] {
         return std::make_unique<OpeningWindowStream>(
             15.0, algo::BreakPolicy::kNormal, StreamCriterion::kPerpendicular);
       }},
      {"opw-tr-stream",
       [] {
         return std::make_unique<OpeningWindowStream>(
             15.0, algo::BreakPolicy::kNormal, StreamCriterion::kSynchronized);
       }},
      {"opw-sp-stream",
       [] {
         return std::make_unique<OpeningWindowStream>(
             15.0, algo::BreakPolicy::kNormal, StreamCriterion::kSpatiotemporal,
             10.0);
       }},
      {"dead-reckoning",
       [] { return std::make_unique<DeadReckoningStream>(15.0); }},
      {"squish-capacity", [] { return std::make_unique<SquishStream>(8, 0.0); }},
      {"squish-error", [] { return std::make_unique<SquishStream>(0, 25.0); }},
  };
  for (const algo::AlgorithmInfo& info : algo::AllAlgorithms()) {
    algo::AlgorithmParams params;
    params.epsilon_m = 15.0;
    factories.push_back({"batch-" + info.name, [&info, params] {
                           return std::make_unique<BatchAdapter>(info, params);
                         }});
  }
  return factories;
}

void ExpectCleanOrderedOutput(const std::vector<TimedPoint>& out,
                              const std::string& repro) {
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(std::isfinite(out[i].t) && std::isfinite(out[i].position.x) &&
                std::isfinite(out[i].position.y))
        << repro << " emitted a non-finite point at " << i;
    if (i > 0) {
      EXPECT_LT(out[i - 1].t, out[i].t)
          << repro << " emitted out-of-order output at " << i;
    }
  }
}

TEST(DirtyMatrix, BareAdaptersAnswerWithStatusAndStayOrdered) {
  for (const AdapterFactory& factory : AllAdapterFactories()) {
    for (const std::string& family : DirtyFamilies()) {
      for (uint64_t seed = kBaseSeed; seed < kBaseSeed + 3; ++seed) {
        const std::string repro =
            "repro: family=" + family + " seed=" + std::to_string(seed) +
            " adapter=" + factory.name;
        const std::unique_ptr<OnlineCompressor> adapter = factory.make();
        std::vector<TimedPoint> out;
        for (const TimedPoint& fix : GenerateDirty(family, seed)) {
          // The Status itself is the contract: faulty fixes fail, clean
          // fixes succeed, nothing crashes or hangs either way.
          (void)adapter->Push(fix, &out);
        }
        adapter->Finish(&out);
        ExpectCleanOrderedOutput(out, repro);
      }
    }
  }
}

TEST(DirtyMatrix, PolicedAdaptersAbsorbEveryFault) {
  for (const IngestMode mode : {IngestMode::kDropAndCount, IngestMode::kRepair}) {
    IngestPolicy policy;
    policy.mode = mode;
    policy.reorder_window_s = mode == IngestMode::kRepair ? 30.0 : 0.0;
    for (const AdapterFactory& factory : AllAdapterFactories()) {
      for (const std::string& family : DirtyFamilies()) {
        for (uint64_t seed = kBaseSeed; seed < kBaseSeed + 3; ++seed) {
          const std::string repro =
              "repro: family=" + family + " seed=" + std::to_string(seed) +
              " adapter=" + factory.name +
              " mode=" + std::string(IngestModeToString(mode));
          std::vector<TimedPoint> out;
          FleetCompressor fleet(
              factory.make,
              [&out](const std::string&, const TimedPoint& point) {
                out.push_back(point);
                return Status::Ok();
              },
              policy, "dirty-matrix-" + factory.name);
          for (const TimedPoint& fix : GenerateDirty(family, seed)) {
            EXPECT_TRUE(fleet.Push("dirty", fix).ok()) << repro;
          }
          EXPECT_TRUE(fleet.FinishAll().ok()) << repro;
          ExpectCleanOrderedOutput(out, repro);
        }
      }
    }
  }
}

TEST(DirtyMatrix, NanCoordinateTrajectoriesDontCrashAlgorithms) {
  // FromPoints only validates time order, so NaN *coordinates* can reach
  // the batch entry points on a "valid" trajectory. Algorithms may keep
  // anything they like under NaN geometry, but they must not crash and
  // must return valid, strictly increasing indices.
  for (uint64_t seed = kBaseSeed; seed < kBaseSeed + 3; ++seed) {
    std::vector<TimedPoint> dirty = GenerateDirty("dirty-nan-coord", seed);
    for (size_t i = 0; i < dirty.size(); ++i) {
      dirty[i].t = static_cast<double>(i);  // Clean times, dirty geometry.
    }
    const Result<Trajectory> trajectory = Trajectory::FromPoints(dirty);
    ASSERT_TRUE(trajectory.ok());
    for (const algo::AlgorithmInfo& info : algo::AllAlgorithms()) {
      for (double epsilon : EpsilonLadder()) {
        algo::AlgorithmParams params;
        params.epsilon_m = epsilon;
        const algo::IndexList kept =
            testutil::RunAlgorithm(info, *trajectory, params);
        const std::string repro = "repro: family=dirty-nan-coord seed=" +
                                  std::to_string(seed) + " algo=" + info.name;
        for (size_t i = 0; i < kept.size(); ++i) {
          ASSERT_LT(kept[i], trajectory->size()) << repro;
          if (i > 0) {
            ASSERT_LT(kept[i - 1], kept[i]) << repro;
          }
        }
      }
    }
  }
}

TEST(DirtyGenerator, IsDeterministicAndActuallyDirty) {
  for (const std::string& family : DirtyFamilies()) {
    const std::vector<TimedPoint> a = GenerateDirty(family, kBaseSeed);
    const std::vector<TimedPoint> b = GenerateDirty(family, kBaseSeed);
    ASSERT_EQ(a.size(), b.size()) << family;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(TimedPoint)), 0)
          << family << " index " << i;
    }
    if (family == "dirty-single") {
      EXPECT_EQ(a.size(), 1u);
      continue;
    }
    // Every other family must violate the clean-trajectory invariant
    // somewhere: non-increasing or non-finite values.
    bool violates = false;
    for (size_t i = 0; i < a.size(); ++i) {
      violates |= !std::isfinite(a[i].t) || !std::isfinite(a[i].position.x) ||
                  !std::isfinite(a[i].position.y);
      if (i > 0) {
        violates |= !(a[i].t > a[i - 1].t);
      }
    }
    EXPECT_TRUE(violates) << family << " generated a clean feed";
  }
}

std::string CaseName(const ::testing::TestParamInfo<CorpusCase>& info) {
  std::string name =
      info.param.family + "_seed" + std::to_string(info.param.seed);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AdversarialCorpus, CorpusProperty,
                         ::testing::ValuesIn(Corpus()), CaseName);

}  // namespace
}  // namespace stcomp::proptest
