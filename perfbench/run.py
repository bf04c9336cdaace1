#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload ingest_saturate --seed 1 \
        --seconds 30 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ and the stcomp libraries it drives into .bench_build/; later
calls only rebuild what changed. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Stores and span files are
written under .bench_run/.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("ingest_saturate", "ingest_paced", "query_mix")


def build(build_dir, env):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, env=env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "stcomp", "CMakeLists.txt")):
        print("perfbench: src/stcomp/ not found; run from a full checkout",
              file=sys.stderr)
        return 2

    build_dir = os.path.join(ROOT, ".bench_build")
    run_dir = os.path.join(ROOT, ".bench_run")
    # Keep the compiler's temporary files inside the checkout too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        build(build_dir, env)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    name = f"{args.workload}-{args.seed}"
    work_dir = os.path.join(run_dir, f"{name}-{os.getpid()}")
    command = [
        os.path.join(build_dir, "perfbench"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--work-dir={work_dir}",
        f"--trace-out={os.path.join(run_dir, f'trace-{name}.json')}",
    ]
    os.makedirs(run_dir, exist_ok=True)
    try:
        return subprocess.run(command, cwd=ROOT, env=env).returncode
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
