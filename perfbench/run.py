#!/usr/bin/env python3
"""Build (when needed) and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds
perfbench/ (which compiles the library sources under src/) into
.bench_build/; later calls rebuild incrementally.  Build output goes to
stderr; stdout carries the benchmark's "# key: value" facts and, as its
last line, one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is the benchmark's: 0 when every answer was
right, non-zero otherwise.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("keyed_cold", "wire_zipf", "ingest_mix", "graph_solve")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = ".bench_build"
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (cheap once cached), then build perfbench incrementally."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "perfbench",
             "-j", jobs],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.makedirs(BUILD_ROOT, exist_ok=True)
    try:
        binary = build(os.path.join(BUILD_ROOT, "cmake"))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    work_dir = os.path.join(BUILD_ROOT, f"work-{os.getpid()}")
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work_dir,
               "--trace-dir", os.path.join(BUILD_ROOT, "traces")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        print("perfbench: no result line", file=sys.stderr)
        return proc.returncode or 4
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode == 0 and not result.get("correct", False):
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
