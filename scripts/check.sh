#!/usr/bin/env bash
# Full verification, four passes:
#  1. tier-1: the plain RelWithDebInfo build and test suite, two extra
#     crash-matrix seeds, then the fleet-scale, query and network-ingest
#     benches, whose BENCH_*.json snapshots the validator checks;
#  2. AddressSanitizer + UBSan instrumentation (STCOMP_SANITIZE), so the
#     property harness in tests/proptest/ doubles as a fuzz-lite
#     memory-safety sweep over algo/, error/, store/ and stream/;
#  3. STCOMP_DISABLE_METRICS=ON, proving the tree builds and tests green
#     with the observability macros compiled out;
#  4. ThreadSanitizer (incompatible with ASan, hence its own build tree)
#     over the whole suite plus the parallel sweep, sharded fleet and
#     network-ingest benches, covering every concurrent path.
#
# Fuzz coverage rides inside passes 1 and 2 automatically: the
# fuzz_corpus_replay ctest target (tests/fuzz/) drives every structured
# fuzz entrypoint over the checked-in seed corpus plus deterministic
# FaultPlan mutants — so the hostile-byte sweep runs plain *and* under
# ASan/UBSan on every invocation. A final optional pass builds the real
# libFuzzer binaries (-DSTCOMP_FUZZ=ON) and smokes each for a few seconds;
# it is skipped gracefully when clang is not installed, since only clang
# ships -fsanitize=fuzzer.
#
# Usage: scripts/check.sh            # all passes
#        JOBS=4 scripts/check.sh     # cap parallelism
set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

echo "== Pass 1/4: tier-1 (plain RelWithDebInfo) =="
cmake -B build -S .
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"
# Extended crash–recover–verify sweep (tests/crash_matrix_test.cc): the
# tier-1 run already covers one seed; exercise two more so the seeded
# short/torn-write prefixes land at different offsets. The sharded leg
# rides the same seeds (one faulted partition, bit-exact survivors).
STCOMP_CRASH_MATRIX_SEEDS=7,991 \
    ./build/tests/crash_matrix_test \
    --gtest_filter='CrashMatrixTest.EveryBoundaryEveryFateRecoversToACommitPoint:CrashMatrixTest.ShardedOneShardCrashLeavesOthersBitExact'
# Sharded fleet scaling bench: times 1..max-shards on uniform + Zipf
# fleets and feeds the snapshot validator (acceptance numbers are only
# meaningful on multi-core hosts; the schema gate runs everywhere).
./build/bench/bench_fleet_scale --objects=256 --fixes-per-object=100 \
    --max-shards=4 --json-out=BENCH_fleet_scale.json
# Query selectivity sweep (DESIGN.md §17): indexed engine vs the
# decompress-everything oracle; every timed query is first checked for
# bitwise answer equality, and the validator requires the engine to beat
# full decode in every selectivity x fleet-size cell.
./build/bench/bench_queries --objects=64 --queries=40 \
    --json-out=BENCH_queries.json
# Network-ingest throughput (DESIGN.md §18): the full FleetClient ->
# loopback TCP -> IngestServer -> sharded engine path at 1..4
# connections, at the default 4 objects x 20,000 fixes per connection so
# the wire, not start-up, dominates; the schema gate checks the
# 1-connection baseline exists.
./build/bench/bench_ingest_net --max-conns=4 \
    --json-out=BENCH_ingest_net.json
python3 scripts/validate_bench.py BENCH_*.json

echo "== Pass 2/4: STCOMP_SANITIZE=address;undefined =="
cmake -B build-asan -S . -DSTCOMP_SANITIZE="address;undefined"
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "== Pass 3/4: STCOMP_DISABLE_METRICS=ON =="
cmake -B build-nometrics -S . -DSTCOMP_DISABLE_METRICS=ON
cmake --build build-nometrics -j "$JOBS"
ctest --test-dir build-nometrics --output-on-failure -j "$JOBS"

echo "== Pass 4/4: STCOMP_SANITIZE=thread =="
cmake -B build-tsan -S . -DSTCOMP_SANITIZE=thread
cmake --build build-tsan -j "$JOBS"
ctest --test-dir build-tsan --output-on-failure -j "$JOBS"
# Drive the parallel sweep under TSan beyond the unit tests: the full
# (algorithm, threshold) grid with the serial-equality harness.
./build-tsan/bench/bench_sweep_parallel --trajectories=2 --repetitions=1 \
    --threads=4 --json-out=""
# Sharded fleet under TSan at bench concurrency: multi-producer ingest,
# batch handoff, backpressure and group commit all racing for real (the
# sharded_fleet/partitioned_store/crash-matrix unit tests already ran in
# the ctest pass above; this adds the N-producer bench-shaped load).
./build-tsan/bench/bench_fleet_scale --objects=64 --fixes-per-object=50 \
    --max-shards=4 --queue-capacity=128 --json-out=""
# Network ingest under TSan: client threads, the poll thread and shard
# workers racing over loopback TCP. A race smoke test, not a measurement,
# so it runs at a small size.
./build-tsan/bench/bench_ingest_net --fixes-per-client=1000 \
    --objects-per-client=2 --max-conns=4 --json-out=""

if command -v clang++ >/dev/null 2>&1; then
  echo "== Optional pass: libFuzzer smoke (STCOMP_FUZZ=ON, clang) =="
  cmake -B build-fuzz -S . -DSTCOMP_FUZZ=ON \
    -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++ \
    -DSTCOMP_SANITIZE="address;undefined"
  cmake --build build-fuzz -j "$JOBS"
  # One target per seed directory: fuzz_replay fails unless the corpus
  # directories and the registered targets match one to one.
  for corpus in tests/fuzz/corpus/*/; do
    target="$(basename "$corpus")"
    ./build-fuzz/tests/fuzz/fuzz_"$target" -max_total_time=5 -seed=20260805 \
      "$corpus"
  done
else
  echo "== Optional pass: libFuzzer smoke skipped (clang++ not installed) =="
fi

echo "All checks passed."
