#!/usr/bin/env python3
"""Repeat benchmark runs and summarise them, for this tree or a parent/change pair.

    python3 perfbench/compare.py --workload census --runs 10
    python3 perfbench/compare.py --workload census --runs 10 --base ../parent

The change is the checkout that holds this script.  Every run uses this
directory's run.py, whatever tree it measures (run.py --root), so a parent
commit and a change are measured with identical benchmark code.  Run i uses
seed --first-seed + i.

It prints, per metric, the median, the quartiles from
statistics.quantiles(values, n=4) and the spread (Q3 - Q1) / median.  With
--base it runs pairs, alternating which tree goes first, with one seed per
pair, and also prints how many pairs the change won, judged by each metric's
`better` in BENCHMARK.json; ties count for neither side.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)


def load_benchmark() -> dict:
    with open(os.path.join(CHECKOUT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root: str, workload: str, seed: int, seconds: int,
             trace: int) -> tuple[dict, dict]:
    """One run.py run; its last two stdout lines: the info record and the result."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--root", root]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    if not result["correct"]:
        print(f"warning: run on {root} seed {seed} failed checks "
              f"({result['failed']}/{result['attempted']})", file=sys.stderr)
    return info, result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"),
            "values": values}


def summarise(runs: list[tuple[dict, dict]]) -> dict:
    """Every metric's summary over the runs, and that of the plain measured
    figures, with the failure counts and the first run's environment."""
    infos = [info for info, _ in runs]
    results = [result for _, result in runs]
    out = {name: summary([r["metrics"][name]["value"] for r in results])
           for name in results[0]["metrics"]}
    if "measured" in infos[0]:
        out["measured"] = {name: summary([i["measured"][name] for i in infos])
                           for name in infos[0]["measured"]}
    out["failed"] = sum(r["failed"] for r in results)
    out["attempted"] = sum(r["attempted"] for r in results)
    out["env_first_run"] = infos[0]["env"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--base", help="tree of the parent commit")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    bench = load_benchmark()
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    trees = {"head": CHECKOUT}
    if args.base:
        trees["base"] = os.path.abspath(args.base)

    runs: dict[str, list[tuple[dict, dict]]] = {side: [] for side in trees}
    for i in range(args.runs):
        seed = args.first_seed + i
        for side in sorted(trees, reverse=bool(i % 2)):
            runs[side].append(run_once(trees[side], args.workload, seed,
                                       bench["run_seconds"], args.trace))

    sides = {side: summarise(rs) for side, rs in runs.items()}
    for name in runs["head"][0][1]["metrics"]:
        row = {side: {k: s[name][k] for k in ("median", "q1", "q3", "spread")}
               for side, s in sides.items()}
        if args.base:
            sign = 1 if better.get(name) == "higher" else -1
            wins = sum(1 for (_, h), (_, b) in zip(runs["head"], runs["base"])
                       if sign * (h["metrics"][name]["value"]
                                  - b["metrics"][name]["value"]) > 0)
            row["head_wins"] = f"{wins}/{args.runs}"
        print(name, json.dumps(row))
    failed = sum(s["failed"] for s in sides.values())
    print(f"failed commands: {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
