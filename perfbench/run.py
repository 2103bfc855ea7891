#!/usr/bin/env python3
"""Repository benchmark: fault-injection campaign workloads (see BENCHMARK.md).

    python3 perfbench/run.py --workload system_fi --seed 1 --seconds 30 --trace 0

Builds the benchmark program from source (CMake, Release) under
``.bench_build/perfbench``, then

* ``--trace 0``: runs timed repetitions for ``--seconds`` seconds, each in a
  fresh process (set-up + one campaign call). Repetition r draws its
  campaign from seed ``1000 * seed + r``, so a run covers many scenario sets.
  Reports the median of every end-to-end metric over the repetitions;
* ``--trace 1``: runs the traced re-enactment of repetition 0 once and
  reports the per-layer metrics; spans go to ``.bench_out/``.

Every campaign call's outputs are checked (checks.py). Human-readable lines
come first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "nlft_perfbench"
MIN_REPS = 3
REP_TIMEOUT_S = 60
SYSTEM_WORKLOADS = ("system_fi", "system_fi_forked")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds nlft_perfbench; raises on failure."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "nlft_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, stderr=sys.stderr)


def git_commit():
    """The checkout's commit from .git (no git process, no parent lookup)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def invoke(args):
    """Runs nlft_perfbench; returns its JSON line, or None if it failed."""
    try:
        proc = subprocess.run([str(BINARY), *args], capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"nlft_perfbench timed out: {' '.join(args)}")
        return None
    if proc.stderr:
        log(proc.stderr.rstrip())
    if proc.returncode != 0:
        log(f"nlft_perfbench exited with {proc.returncode}: {' '.join(args)}")
        if proc.returncode == 3:  # unoptimised build: refuse to report
            raise SystemExit(3)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("nlft_perfbench printed no result")
        return None


def check(result, workload, seed, rep, references):
    """Number of failed campaign calls in one nlft_perfbench result."""
    errors = []
    failed = checks.check_outputs(workload, seed, rep, result["outputs"],
                                  result["facts"]["experiments"], references, errors)
    for line in errors:
        log(f"output check failed: {line}")
    return max(len(failed), result.get("failed_calls", 0))


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_specs(kind):
    return {m["name"]: m["unit"] for m in benchmark_spec()[kind]}


def report(correct, attempted, failed, values, units):
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def timed(args, references):
    units = metric_specs("end_to_end")
    calls = len(checks.campaign_calls(args.workload))
    reps, attempted, failed, crashed = [], 0, 0, 0
    start = time.monotonic()
    while (len(reps) < MIN_REPS or time.monotonic() - start < args.seconds) \
            and crashed < MIN_REPS:
        rep = len(reps) + crashed
        result = invoke(["run", args.workload, str(checks.campaign_seed(args.seed, rep))])
        attempted += calls
        if result is None:
            failed += calls
            crashed += 1
            continue
        failed += check(result, args.workload, args.seed, rep, references)
        reps.append(result)
    if not reps:
        log("no repetition completed")
        return 1

    rates = [r["experiments"] / r["campaign_s"] for r in reps]
    values = {"setup_s": statistics.median(r["setup_s"] for r in reps),
              "experiments_per_s": statistics.median(rates),
              "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps)}
    facts = dict(reps[0]["facts"], git_commit=git_commit(), repetitions=len(reps))
    rate_name, rate_unit = (("stops_per_s", "stops/s") if args.workload in SYSTEM_WORKLOADS
                            else ("fi_experiments_per_s", "experiments/s"))
    print(f"workload {args.workload}  seed {args.seed}  facts {json.dumps(facts)}")
    print(f"output digest {checks.digest(reps[0]['outputs'])}")
    print(f"{'setup_s':24s} {values['setup_s']:.6f} s")
    print(f"{rate_name:24s} {values['experiments_per_s']:.3f} {rate_unit}"
          f"  (IQR {iqr(rates):.3f} over {len(rates)} repetitions)")
    print(f"{'peak_rss_mb':24s} {values['peak_rss_mb']:.3f} MiB")
    print(f"{'failed_frac':24s} {failed / attempted:.6f} ratio  ({failed}/{attempted} calls)")
    report(failed == 0, attempted, failed, values, units)
    return 0


def traced(args, references):
    units = metric_specs("per_layer")
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans_{args.workload}_{args.seed}.json"
    result = invoke(["trace", args.workload, str(checks.campaign_seed(args.seed, 0)),
                     str(spans)])
    calls = len(checks.campaign_calls(args.workload))
    if result is None:
        log("traced run failed")
        return 1
    failed = check(result, args.workload, args.seed, 0, references)
    values = result["metrics"]
    missing = [name for name in units if name not in values]
    if missing:
        log(f"traced run lacks metrics: {missing}")
        return 1
    facts = dict(result["facts"], git_commit=git_commit())
    print(f"workload {args.workload}  seed {args.seed}  traced  facts {json.dumps(facts)}")
    print(f"output digest {checks.digest(result['outputs'])}  spans {spans.relative_to(ROOT)}")
    for name, unit in units.items():
        print(f"{name:48s} {values[name]:.6g} {unit}")
    report(failed == 0, calls, failed, values, units)
    return 0


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["system_fi", "system_fi_forked", "machine_fi"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1
    references = checks.load_references()
    return traced(args, references) if args.trace else timed(args, references)


if __name__ == "__main__":
    sys.exit(main())
