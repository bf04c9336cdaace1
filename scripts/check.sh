#!/usr/bin/env bash
# Full verification: the tier-1 build/test pass, a second
# configure+build+test pass with AddressSanitizer + UBSan instrumentation
# (STCOMP_SANITIZE), so the property harness in tests/proptest/ doubles as
# a fuzz-lite memory-safety sweep over algo/, error/, store/ and stream/,
# a third pass with STCOMP_DISABLE_METRICS=ON proving the tree builds and
# tests green with the observability macros compiled out, and a fourth
# pass with ThreadSanitizer (incompatible with ASan, hence its own build
# tree) covering the parallel sweep driver, the stream fleet and every
# other concurrent path the suite exercises.
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
# Pass 2 reruns the tier-1 test suite with STCOMP_FORCE_SCALAR_KERNELS=1:
# kernel backend selection is a runtime switch (DESIGN.md §14), so the
# same binaries prove every algorithm green under the scalar reference
# kernels as well as under the auto-dispatched SIMD ones, and the
# bench_kernels run doubles as a large-n scalar-vs-vector differential
# check whose JSON snapshot the validator then parses.
#
# Usage: scripts/check.sh            # all passes
#        JOBS=4 scripts/check.sh     # cap parallelism
set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

echo "== Pass 1/5: tier-1 (plain RelWithDebInfo) =="
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
./build/bench/bench_fleet_scale --objects=128 --fixes-per-object=100 \
    --max-shards=4 --json-out=BENCH_fleet_scale.json
# Query selectivity sweep (DESIGN.md §17): indexed engine vs the
# decompress-everything oracle; every timed query is first checked for
# bitwise answer equality, and the validator requires the engine to beat
# full decode in every selectivity x fleet-size cell.
./build/bench/bench_queries --objects=64 --queries=40 \
    --json-out=BENCH_queries.json
# Network-ingest throughput (DESIGN.md §18): the full FleetClient ->
# loopback TCP -> IngestServer -> sharded engine path at 1..4
# connections; the schema gate checks the 1-connection baseline exists.
./build/bench/bench_ingest_net --fixes-per-client=2000 \
    --objects-per-client=2 --max-conns=4 --json-out=BENCH_ingest_net.json

echo "== Pass 2/5: scalar-forced kernels (runtime dispatch leg) =="
STCOMP_FORCE_SCALAR_KERNELS=1 \
    ctest --test-dir build --output-on-failure -j "$JOBS"
# Scalar-vs-vector kernel bench: asserts bitwise-identical outputs at
# large n, records the SIMD speedups, and feeds the snapshot validator.
./build/bench/bench_kernels --points=100000 --repetitions=3 \
    --json-out=BENCH_kernels.json
python3 scripts/validate_bench.py BENCH_*.json

echo "== Pass 3/5: STCOMP_SANITIZE=address;undefined =="
cmake -B build-asan -S . -DSTCOMP_SANITIZE="address;undefined"
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "== Pass 4/5: STCOMP_DISABLE_METRICS=ON =="
cmake -B build-nometrics -S . -DSTCOMP_DISABLE_METRICS=ON
cmake --build build-nometrics -j "$JOBS"
ctest --test-dir build-nometrics --output-on-failure -j "$JOBS"

echo "== Pass 5/5: STCOMP_SANITIZE=thread =="
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

if command -v clang++ >/dev/null 2>&1; then
  echo "== Optional pass: libFuzzer smoke (STCOMP_FUZZ=ON, clang) =="
  cmake -B build-fuzz -S . -DSTCOMP_FUZZ=ON \
    -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++ \
    -DSTCOMP_SANITIZE="address;undefined"
  cmake --build build-fuzz -j "$JOBS"
  for target in nmea gpx plt csv xml varint serialization store wal \
      query_index ingest_frame; do
    ./build-fuzz/tests/fuzz/fuzz_"$target" -max_total_time=5 -seed=20260805 \
      "tests/fuzz/corpus/$target"
  done
else
  echo "== Optional pass: libFuzzer smoke skipped (clang++ not installed) =="
fi

echo "All checks passed."
