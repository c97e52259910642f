#!/usr/bin/env python3
"""Rebuild perfbench/baseline.json by measuring this tree.

    python3 perfbench/baseline.py

For each of two sets, made one after the other, it runs every workload ten
times with seeds 100-109 and --trace 0, as `compare.py --workload W --runs 10`
does, and keeps every metric's summary.  Then it makes one --trace 1 run per
workload at the default seed.  On a 2-vCPU machine this takes about an hour.
"""

from __future__ import annotations

import json
import os
import sys

from compare import CHECKOUT, HERE, load_benchmark, run_once, summarise

SETS = 2
RUNS = 10
FIRST_SEED = 100
TRACE_SEED = 7


def main() -> int:
    bench = load_benchmark()
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    sets = []
    for n in range(SETS):
        sets.append({})
        for workload in workloads:
            runs = []
            for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
                runs.append(run_once(CHECKOUT, workload, seed, seconds, 0))
                print(f"set {n + 1} {workload} seed {seed}: "
                      f"{json.dumps(runs[-1][1])}", flush=True)
            sets[-1][workload] = summarise(runs)
    traced = {}
    for workload in workloads:
        info, result = run_once(CHECKOUT, workload, TRACE_SEED, seconds, 1)
        print(f"traced {workload}: {json.dumps(result)}", flush=True)
        traced[workload] = {
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "trace_overhead": info["trace_overhead"], "env": info["env"]}
    baseline = {
        "about": f"Made by `python3 perfbench/baseline.py`: {SETS} sets of {RUNS} "
                 f"runs per workload, seeds {FIRST_SEED}-{FIRST_SEED + RUNS - 1}, "
                 f"one set after the other, then one --trace 1 run per workload at "
                 f"seed {TRACE_SEED} (per_layer). Times are in reference seconds; the "
                 f"plain medians are under 'measured'. spread = (Q3 - Q1) / median.",
        "end_to_end": sets,
        "per_layer": traced,
    }
    with open(os.path.join(HERE, "baseline.json"), "w") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
