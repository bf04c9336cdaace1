#!/usr/bin/env python3
"""Validates emitted BENCH_*.json snapshots.

Every bench binary that takes --json-out (and bench_throughput's
--metrics_json) writes a self-describing result file; this script is the
schema gate check.sh and CI run over whatever snapshots exist, so a bench
that silently emits malformed or incomplete JSON fails the build instead
of poisoning downstream dashboards.

Usage: validate_bench.py BENCH_a.json [BENCH_b.json ...]
Missing operands are an error; shells expand the BENCH_*.json glob only
when at least one snapshot exists.
"""

import json
import sys


def fail(path, message):
    print(f"validate_bench: {path}: {message}", file=sys.stderr)
    return 1


def validate(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        return fail(path, f"unreadable or invalid JSON: {err}")
    if not isinstance(doc, dict):
        return fail(path, "top level is not an object")
    bench = doc.get("bench")
    if not isinstance(bench, str) or not bench:
        return fail(path, "missing or empty 'bench' name")
    version = doc.get("schema_version")
    if not isinstance(version, int) or version < 1:
        return fail(path, "missing or non-positive integer 'schema_version'")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        return fail(path, "missing 'metrics' object")
    # Bench-specific shape checks.
    if bench == "bench_obs_overhead" and version >= 2:
        if not isinstance(doc.get("metrics_enabled"), bool):
            return fail(path, "bench_obs_overhead: missing 'metrics_enabled'")
        for key in (
            "baseline_ns_per_push",
            "instrumented_ns_per_push",
            "overhead_budget_percent",
        ):
            value = doc.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                return fail(path, f"bench_obs_overhead: bad '{key}': {value!r}")
        # overhead_percent may legitimately be negative (noise); it just
        # has to be a number.
        if not isinstance(doc.get("overhead_percent"), (int, float)):
            return fail(path, "bench_obs_overhead: bad 'overhead_percent'")
        primitives = doc.get("primitives_ns")
        if not isinstance(primitives, dict):
            return fail(path, "bench_obs_overhead: missing 'primitives_ns'")
        for key in (
            "counter_increment",
            "histogram_observe",
            "scoped_timer",
            "sampled_scoped_timer",
            "trace_span",
            "flight_record",
            "sampled_span_skipped",
            "sampled_span_recorded",
        ):
            value = primitives.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                return fail(
                    path, f"bench_obs_overhead: primitives_ns: bad '{key}'"
                )
    if bench == "bench_queries":
        cells = doc.get("cells")
        if not isinstance(cells, list) or not cells:
            return fail(path, "bench_queries: missing 'cells' entries")
        labels = set()
        for entry in cells:
            if not isinstance(entry, dict):
                return fail(path, "bench_queries: non-object cell entry")
            selectivity = entry.get("selectivity")
            if selectivity not in ("low", "mid", "high"):
                return fail(
                    path,
                    f"bench_queries: bad cell 'selectivity': {selectivity!r}",
                )
            labels.add(selectivity)
            for key in ("objects", "queries"):
                value = entry.get(key)
                if not isinstance(value, int) or value <= 0:
                    return fail(
                        path, f"bench_queries: bad cell '{key}': {value!r}"
                    )
            hits = entry.get("hits")
            if not isinstance(hits, int) or hits < 0:
                return fail(path, f"bench_queries: bad cell 'hits': {hits!r}")
            for key in ("engine_us", "oracle_us", "speedup"):
                value = entry.get(key)
                if not isinstance(value, (int, float)) or value <= 0:
                    return fail(
                        path, f"bench_queries: bad cell '{key}': {value!r}"
                    )
            # The engine must beat decoding everything at every
            # selectivity, not only where most blocks can be skipped.
            if entry["speedup"] <= 1.0:
                return fail(
                    path,
                    f"bench_queries: {entry['objects']}-object {selectivity} "
                    f"cell: speedup must exceed 1.0, got {entry['speedup']!r}",
                )
            fraction = entry.get("decoded_block_fraction")
            if (
                not isinstance(fraction, (int, float))
                or fraction < 0
                or fraction > 1
            ):
                return fail(
                    path,
                    "bench_queries: bad cell 'decoded_block_fraction': "
                    f"{fraction!r}",
                )
        if labels != {"low", "mid", "high"}:
            return fail(
                path, f"bench_queries: selectivity tiers missing: {labels!r}"
            )
        # The acceptance headline: block skipping must beat the full-decode
        # oracle on low-selectivity queries.
        headline = doc.get("low_selectivity_speedup")
        if not isinstance(headline, (int, float)) or headline <= 1.0:
            return fail(
                path,
                "bench_queries: 'low_selectivity_speedup' must exceed 1.0, "
                f"got {headline!r}",
            )
    if bench == "bench_fleet_scale":
        runs = doc.get("runs")
        if not isinstance(runs, list) or not runs:
            return fail(path, "bench_fleet_scale: missing 'runs' entries")
        for entry in runs:
            if not isinstance(entry, dict):
                return fail(path, "bench_fleet_scale: non-object run entry")
            fleet = entry.get("fleet")
            if fleet not in ("uniform", "zipf"):
                return fail(
                    path, f"bench_fleet_scale: bad run 'fleet': {fleet!r}"
                )
            for key in ("shards", "producers", "fixes"):
                value = entry.get(key)
                if not isinstance(value, int) or value <= 0:
                    return fail(
                        path,
                        f"bench_fleet_scale: {fleet}: bad '{key}': {value!r}",
                    )
            for key in ("seconds", "fixes_per_second", "speedup_vs_1"):
                value = entry.get(key)
                if not isinstance(value, (int, float)) or value <= 0:
                    return fail(
                        path,
                        f"bench_fleet_scale: {fleet}: bad '{key}': {value!r}",
                    )
            waits = entry.get("backpressure_waits")
            if not isinstance(waits, int) or waits < 0:
                return fail(
                    path,
                    f"bench_fleet_scale: {fleet}: bad 'backpressure_waits'",
                )
        # Both fleets must be timed at shards=1 (the speedup baselines).
        baselines = {e["fleet"] for e in runs if e.get("shards") == 1}
        if baselines != {"uniform", "zipf"}:
            return fail(
                path, "bench_fleet_scale: missing 1-shard baseline runs"
            )
        for key in (
            "hardware_threads",
            "max_shards",
            "uniform_speedup_at_max",
            "skew_ratio_at_max",
        ):
            value = doc.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                return fail(path, f"bench_fleet_scale: bad '{key}': {value!r}")
    if bench == "bench_ingest_net":
        runs = doc.get("runs")
        if not isinstance(runs, list) or not runs:
            return fail(path, "bench_ingest_net: missing 'runs' entries")
        connections = set()
        for entry in runs:
            if not isinstance(entry, dict):
                return fail(path, "bench_ingest_net: non-object run entry")
            conns = entry.get("connections")
            if not isinstance(conns, int) or conns <= 0:
                return fail(
                    path, f"bench_ingest_net: bad 'connections': {conns!r}"
                )
            connections.add(conns)
            for key in ("fixes",):
                value = entry.get(key)
                if not isinstance(value, int) or value <= 0:
                    return fail(
                        path,
                        f"bench_ingest_net: conns={conns}: bad '{key}': "
                        f"{value!r}",
                    )
            for key in ("seconds", "fixes_per_second", "speedup_vs_1"):
                value = entry.get(key)
                if not isinstance(value, (int, float)) or value <= 0:
                    return fail(
                        path,
                        f"bench_ingest_net: conns={conns}: bad '{key}': "
                        f"{value!r}",
                    )
            acked = entry.get("batches_acked")
            if not isinstance(acked, int) or acked <= 0:
                return fail(
                    path,
                    f"bench_ingest_net: conns={conns}: bad 'batches_acked'",
                )
        # The single-connection baseline anchors every speedup figure.
        if 1 not in connections:
            return fail(path, "bench_ingest_net: missing 1-connection run")
    print(f"validate_bench: {path}: ok ({bench}, schema v{version})")
    return 0


def main(argv):
    if len(argv) < 2:
        print("usage: validate_bench.py BENCH_a.json [...]", file=sys.stderr)
        return 2
    return max(validate(path) for path in argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
