#!/usr/bin/env python3
"""Tests of the benchmark's output checks.

    python3 perfbench/test_checks.py

The end-to-end case builds the benchmark program and runs machine_fi for about a second
twice: once against the recorded references, once against a copy with one
corrupted value, which must make the run count as failed.
"""

import argparse
import contextlib
import copy
import io
import json
import unittest

import checks
import run


class CheckOutputsTest(unittest.TestCase):
    def setUp(self):
        self.references = checks.load_references()
        self.recorded = self.references["system_fi"]["0"]

    def test_recorded_outputs_pass(self):
        outputs = self.recorded["outputs"]
        self.assertEqual(set(), checks.check_outputs("system_fi", 0, 0, outputs,
                                                     outputs["experiments"], self.references))

    def test_corrupted_reference_fails(self):
        outputs = self.recorded["outputs"]
        corrupted = copy.deepcopy(self.references)
        corrupted["system_fi"]["0"]["outputs"]["p_t"] += 1e-9
        errors = []
        failed = checks.check_outputs("system_fi", 0, 0, outputs, outputs["experiments"],
                                      corrupted, errors)
        self.assertEqual({"runSystemCampaign"}, failed)
        self.assertIn("p_t", errors[0])

    def test_corrupted_digest_fails_later_repetition(self):
        outputs = self.recorded["outputs"]
        corrupted = copy.deepcopy(self.references)
        corrupted["system_fi"]["0"]["digests"][1] = "0" * 16
        self.assertTrue(checks.check_outputs("system_fi", 0, 1, outputs,
                                             outputs["experiments"], corrupted))

    def test_invariants_catch_unreconciled_counter(self):
        outputs = copy.deepcopy(self.recorded["outputs"])
        outputs["campaign_counters"]["campaign.stops"] += 1
        # Seed without references: only the invariants apply.
        self.assertTrue(checks.check_outputs("system_fi", 10**6, 0, outputs,
                                             outputs["experiments"], {}))

    def test_invariants_catch_histogram_mismatch(self):
        outputs = copy.deepcopy(self.references["machine_fi"]["0"]["outputs"])
        outputs["programs"]["cu"]["fs"]["undetected"] += 1
        self.assertEqual({"fs/cu"}, checks.check_outputs(
            "machine_fi", 10**6, 0, outputs, outputs["programs"]["cu"]["fs"]["experiments"], {}))


class EndToEndTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def run_bench(self, references):
        args = argparse.Namespace(workload="machine_fi", seed=0, seconds=1.0)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            self.assertEqual(0, run.timed(args, references))
        return json.loads(stdout.getvalue().strip().splitlines()[-1])

    def test_corrupted_reference_counts_run_as_failed(self):
        good = self.run_bench(checks.load_references())
        self.assertTrue(good["correct"])
        self.assertEqual(0, good["failed"])

        corrupted = checks.load_references()
        corrupted["machine_fi"]["0"]["outputs"]["programs"]["wheel"]["tem"]["masked_by_vote"] += 1
        bad = self.run_bench(corrupted)
        self.assertFalse(bad["correct"])
        self.assertEqual(1, bad["failed"])  # only the wheel TEM call of repetition 0


if __name__ == "__main__":
    unittest.main()
