#!/usr/bin/env python3
"""Benchmark self-test: a held-out seed passes every check.

Runs each workload through perfbench/run.py on the seed the benchmark
was tuned with and on a held-out seed, with a short budget, and checks
that both runs pass every correctness check, that no operation failed,
that the held-out seed simulates a different outcome (its sim_digest
differs), and that repeating a seed reproduces its digest exactly.

Usage (from the root of a source checkout):

    python3 perfbench/test_seeds.py
"""

import json
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

TUNING_SEED = 1
HELD_OUT_SEED = 7919


def run(workload, seed):
    """One short --trace 0 run; returns (contract line, full result)."""
    p = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=True)
    line = json.loads(p.stdout.splitlines()[-1])
    path = os.path.join(ROOT, ".bench_out", "results",
                        f"{workload}-seed{seed}-trace0.json")
    with open(path) as f:
        return line, json.load(f)


class HeldOutSeed(unittest.TestCase):
    def check_workload(self, workload):
        tuned_line, tuned = run(workload, TUNING_SEED)
        held_line, held = run(workload, HELD_OUT_SEED)
        for line, full in ((tuned_line, tuned), (held_line, held)):
            self.assertTrue(line["correct"], full["failures"])
            self.assertEqual(line["failed"], 0)
            self.assertGreater(line["attempted"], 0)
            self.assertEqual(full["manifest"]["seed"], full["seed"])
        self.assertNotEqual(tuned["sim_digest"], held["sim_digest"])

        _, again = run(workload, HELD_OUT_SEED)
        self.assertEqual(again["sim_digest"], held["sim_digest"])
        for name in ("service_fairness", "goodput"):
            self.assertEqual(again["metrics"][name], held["metrics"][name])

    def test_serve64(self):
        self.check_workload("serve64")

    def test_overload_faulty_observed(self):
        self.check_workload("overload_faulty_observed")

    def test_paper_pairs(self):
        self.check_workload("paper_pairs")


if __name__ == "__main__":
    unittest.main()
