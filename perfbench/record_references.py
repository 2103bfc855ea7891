#!/usr/bin/env python3
"""Records the reference outputs the benchmark checks runs against.

    python3 perfbench/record_references.py            # seeds 0..9, all workloads
    python3 perfbench/record_references.py --seeds 0-3 --workload machine_fi

Run it only when a change is MEANT to alter campaign outputs, and review the
diff of references.json: every other change must reproduce them exactly.
"""

import argparse
import json
from concurrent.futures import ThreadPoolExecutor

import checks
import run

REPS = 16  # repetitions recorded per seed (digests after the first)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--workload", action="append",
                        help="workload to record (default: all)")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    workloads = args.workload or ["system_fi", "system_fi_forked", "machine_fi"]

    def record(workload, seed):
        recorded = {"outputs": None, "digests": []}
        for rep in range(REPS):
            result = run.invoke(["run", workload, str(checks.campaign_seed(seed, rep))])
            if result is None or result["failed_calls"]:
                raise SystemExit(f"{workload} seed {seed}: run failed, nothing recorded")
            errors = []
            if checks.check_outputs(workload, seed, rep, result["outputs"],
                                    result["facts"]["experiments"], {}, errors):
                raise SystemExit(f"{workload} seed {seed}: invariants fail: {errors}")
            if rep == 0:
                recorded["outputs"] = result["outputs"]
            recorded["digests"].append(checks.digest(result["outputs"]))
        print(f"{workload} seed {seed}: {recorded['digests'][0]} ...", flush=True)
        return recorded

    run.build()
    references = checks.load_references()
    jobs = [(w, s) for w in workloads for s in range(first, last + 1)]
    # Two seeds at a time: each repetition runs two campaign workers.
    with ThreadPoolExecutor(max_workers=2) as pool:
        for (workload, seed), recorded in zip(jobs, pool.map(lambda j: record(*j), jobs)):
            references.setdefault(workload, {})[str(seed)] = recorded
    checks.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
