#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of one commit.

    python3 perfbench/steadiness.py                      # every workload, 10 seeds a set
    python3 perfbench/steadiness.py --workload machine_fi --runs 5 --seconds 10

For each workload it runs set A on seeds 1..N and set B on seeds N+1..2N,
then prints each end-to-end metric's median and IQR (as a share of the
median) per set. It flags every pair of metric and workload where

* a set's spread exceeds the metric's bound,
* the two sets' medians differ by more than the bound, in either direction, or
* a spread exceeds a third of the bound (a warning: too close to call).

Exit status 1 when anything beyond a warning is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: outputs FAILED their checks", flush=True)
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        help="workload to check (default: all in BENCHMARK.json)")
    parser.add_argument("--runs", type=int, default=10, help="runs per set (default 10)")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    flagged = False
    for workload in workloads:
        sets = [[run_once(workload, seed, args.seconds) for seed in range(first, first + args.runs)]
                for first in (1, args.runs + 1)]
        print(f"{workload}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = ([r[name] for r in runs] for runs in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            spread_a, spread_b = spread(a), spread(b)
            differ = abs(med_b - med_a) / med_a
            notes = []
            if max(spread_a, spread_b) > bound:
                notes.append("SPREAD > BOUND")
            if differ > bound:
                notes.append("SETS DISAGREE")
            if notes:
                flagged = True
            elif max(spread_a, spread_b) > bound / 3:
                notes.append("warning: spread > bound/3")
            print(f"  {name:20s} A {med_a:.6g} (IQR {spread_a:.3f})  "
                  f"B {med_b:.6g} (IQR {spread_b:.3f})  medians differ by {differ:.3f}  "
                  f"bound {bound}  {' '.join(notes)}", flush=True)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
