"""Output checks of the repository benchmark.

Every campaign call's outputs are checked two ways:

* invariants, for any seed: histograms sum to the experiment count, the
  ``campaign.*`` registry counters reconcile with the statistics, and every
  proportion lies in [0, 1];
* recorded references, for the seeds in ``references.json``: the outputs must
  equal what was recorded (outcome histograms, node-level counts, the
  registry golden fingerprint, P_T/P_OM/C_D, R(1 y) and MTTF). The first
  repetition of a seed is compared field by field, later repetitions by the
  digest of all their outputs.

``check_outputs`` returns the names of the campaign calls whose outputs fail,
so a run can count them against ``failed_frac``.
"""

import hashlib
import json
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"

OUTCOMES = ["masked", "omission-degradation", "fail-silent-degradation",
            "value-failure", "missed-stop"]
NODE_FIELDS = ["not_activated", "masked_by_ecc", "masked", "omission",
               "fail_silent", "undetected"]
TEM_FIELDS = ["not_activated", "masked_by_ecc", "masked_by_vote", "masked_by_restart",
              "omission_vote_failed", "omission_no_budget", "undetected"]
FS_FIELDS = ["not_activated", "masked_by_ecc", "fail_silent", "detected_by_end_to_end",
             "undetected"]
PROGRAMS = ["wheel", "checked_wheel", "cu"]


def campaign_seed(seed, rep):
    """Campaign seed of repetition `rep` of a run with seed `seed`."""
    return seed * 1000 + rep


def campaign_calls(workload):
    """Names of the campaign calls one run of `workload` makes."""
    if workload == "machine_fi":
        return [f"{kind}/{program}" for program in PROGRAMS for kind in ("tem", "fs")]
    return ["runSystemCampaign"]


def digest(outputs):
    """Short digest of a run's outputs, comparable across commits."""
    canonical = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def load_references(path=REFERENCES):
    path = Path(path)
    return json.loads(path.read_text()) if path.exists() else {}


def _system_invariants(out, experiments):
    errors = []
    outcomes = out["outcomes"]
    by_kind = out["outcomes_by_kind"]
    node = out["node"]
    if out["experiments"] != experiments or sum(outcomes) != experiments:
        errors.append("outcome histogram does not sum to the experiment count")
    if [sum(col) for col in zip(*by_kind)] != outcomes:
        errors.append("per-kind histogram does not add up to the outcome histogram")
    if node["injected"] != sum(node[f] for f in NODE_FIELDS):
        errors.append("node-level counts do not add up to the injected faults")
    if out["skipped_masked"] != node["not_activated"] + node["masked_by_ecc"]:
        errors.append("skipped-masked experiments differ from never-activated faults")
    if not 0 <= out["stops"] <= experiments:
        errors.append("stop count outside [0, experiments]")
    for key in ("p_t", "p_om", "c_d", "r1y_markov_assumed", "r1y_markov_measured",
                "r1y_mc_assumed", "r1y_mc_measured"):
        if key in out and not 0.0 <= out[key] <= 1.0:
            errors.append(f"{key} outside [0, 1]")
    for key in ("mttf_assumed_y", "mttf_measured_y"):
        if key in out and not out[key] > 0.0:
            errors.append(f"{key} not positive")
    counters = out.get("campaign_counters")
    if counters is not None:
        expected = {"campaign.experiments": experiments, "campaign.stops": out["stops"],
                    "campaign.skipped_masked": out["skipped_masked"],
                    "campaign.node.injected": node["injected"]}
        expected.update({f"campaign.outcome.{name}": outcomes[i]
                         for i, name in enumerate(OUTCOMES)})
        expected.update({f"campaign.node.{f}": node[f] for f in NODE_FIELDS})
        for name, value in expected.items():
            if counters.get(name) != value:
                errors.append(f"registry counter {name} = {counters.get(name)} "
                              f"does not reconcile with the statistics ({value})")
    return errors


def _machine_invariants(stats, fields, experiments):
    if stats["experiments"] != experiments or sum(stats[f] for f in fields) != experiments:
        return ["outcome counts do not sum to the experiment count"]
    return []


def check_outputs(workload, seed, rep, outputs, experiments, references=None, errors=None):
    """Returns the set of campaign calls whose outputs fail a check.

    `rep` is the repetition within the run (its campaign seed is
    campaign_seed(seed, rep)); `experiments` the workload's experiment count
    per campaign call; `references` the loaded references (None: load the
    recorded file); `errors`, when given, collects one line per failed check.
    """
    references = load_references() if references is None else references
    errors = [] if errors is None else errors
    failed = set()
    recorded = references.get(workload, {}).get(str(seed), {})
    expected = recorded.get("outputs") if rep == 0 else None
    digests = recorded.get("digests", [])
    if 0 < rep < len(digests) and digest(outputs) != digests[rep]:
        errors.append(f"repetition {rep}: output digest {digest(outputs)} differs from "
                      f"the recorded {digests[rep]}")
        failed.update(campaign_calls(workload))

    def fail(call, problems):
        if problems:
            failed.add(call)
            errors.extend(f"{call}: {p}" for p in problems)

    def against_reference(actual, reference):
        return [f"{key} = {actual.get(key)!r}, reference {value!r}"
                for key, value in reference.items() if actual.get(key) != value]

    if workload == "machine_fi":
        programs = outputs.get("programs", {})
        for call in campaign_calls(workload):
            kind, program = call.split("/")
            stats = programs.get(program, {}).get(kind)
            if stats is None:
                fail(call, ["no outputs"])
                continue
            problems = _machine_invariants(stats, TEM_FIELDS if kind == "tem" else FS_FIELDS,
                                           experiments)
            if expected is not None:
                problems += against_reference(stats, expected["programs"][program][kind])
            fail(call, problems)
        return failed

    call = campaign_calls(workload)[0]
    if "outcomes" not in outputs:
        fail(call, ["no outputs"])
        return failed
    problems = _system_invariants(outputs, experiments)
    if expected is not None:
        # A traced re-enactment has no registry: compare what it reproduces.
        problems += against_reference(
            outputs, {k: v for k, v in expected.items() if k in outputs or
                      k not in ("golden_fingerprint", "campaign_counters")})
    fail(call, problems)
    return failed
