#!/usr/bin/env python3
"""Short-run smoke test of the repository benchmark.

    python3 perfbench/smoke.py

Run from the repository root.  For every workload (those BENCHMARK.json
lists, plus wire_zipf) it checks that:
  - an untraced and a traced run both end in one parseable JSON line
    carrying every metric BENCHMARK.json lists for that kind of run;
  - no operation failed (error_rate 0) and the run reports correct;
  - the modeled_ticks checksum is identical across two runs with the
    same seed and differs for another seed.
Exits 0 when every check passes.
"""

import json
import os
import re
import subprocess
import sys

RUN = [sys.executable, os.path.join(os.path.dirname(__file__), "run.py")]
SECONDS = "1"


def run(workload, seed, trace):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed),
               "--seconds", SECONDS, "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=600)
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    notes = dict(re.match(r"# ([^:]+): (.*)", line).groups()
                 for line in lines[:-1] if line.startswith("# "))
    return proc.returncode, result, notes


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    # wire_zipf is not in BENCHMARK.json but stays runnable (README.md).
    for workload in [w["name"] for w in spec["workloads"]] + ["wire_zipf"]:
        sums = {}
        for seed, trace in ((1, 0), (1, 0), (2, 0), (1, 1)):
            code, result, notes = run(workload, seed, trace)
            kind = "per_layer" if trace else "end_to_end"
            names = {m["name"] for m in spec[kind]}
            label = f"{workload} seed={seed} trace={trace}"
            check(code == 0 and result["correct"], f"{label}: correct")
            check(result["failed"] == 0 and result["attempted"] > 0,
                  f"{label}: {result['failed']} of "
                  f"{result['attempted']} failed")
            check(set(result["metrics"]) == names,
                  f"{label}: metrics match BENCHMARK.json {kind}")
            if not trace:
                sums.setdefault(seed, []).append(notes.get("modeled_ticks"))
        check(sums[1][0] == sums[1][1] and sums[1][0] is not None,
              f"{workload}: modeled_ticks repeats for one seed")
        check(sums[1][0] != sums[2][0],
              f"{workload}: modeled_ticks differs across seeds")
    print("smoke:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
