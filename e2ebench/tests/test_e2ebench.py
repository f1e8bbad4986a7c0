#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark. Run from the repository root:

    python3 e2ebench/tests/test_e2ebench.py

Builds the driver like e2ebench/run.py does, then checks that generated
inputs are a pure function of the seed, that every verifier rejects a
corrupted answer, and that every metric the benchmark prints is declared.
"""

import json
import os
import re
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402

EXE = None


def setUpModule():
    global EXE
    EXE = run.build()
    if EXE is None:
        raise RuntimeError("driver build failed")


def load(path):
    with open(path) as f:
        return json.load(f)


SPEC = load(os.path.join(run.REPO_ROOT, "BENCHMARK.json"))
CATALOGUE = load(os.path.join(BENCH_DIR, "metrics.json"))


def emit(workload, seed):
    return subprocess.run([EXE, "--workload", workload, "--seed", str(seed), "--emit-input"],
                          stdout=subprocess.PIPE, check=True).stdout


class GeneratedInputs(unittest.TestCase):
    def test_same_seed_gives_byte_identical_inputs(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                first = emit(w, 5)
                self.assertGreater(len(first), 0)
                self.assertEqual(first, emit(w, 5))
                self.assertNotEqual(first, emit(w, 6))


class Verifiers(unittest.TestCase):
    def test_each_verifier_rejects_a_corrupted_answer(self):
        proc = subprocess.run([EXE, "--selftest"], stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        self.assertEqual(proc.returncode, 0)
        for check in ("sum: wrong sum rejected",
                      "balances: one missing unit rejected",
                      "recovery: one dropped tuple rejected"):
            self.assertIn("ok   " + check, proc.stdout)


class MetricNames(unittest.TestCase):
    def test_spec_metrics_are_catalogued(self):
        for group in ("end_to_end", "per_layer"):
            for m in SPEC[group]:
                entry = CATALOGUE["metrics"].get(m["name"])
                self.assertIsNotNone(entry, m["name"])
                self.assertEqual(entry["unit"], m["unit"], m["name"])
                self.assertEqual(entry["better"], m["better"], m["name"])
        self.assertEqual(set(CATALOGUE["workloads"]), set(run.WORKLOADS))
        listed = {w for w, entry in CATALOGUE["workloads"].items() if entry["listed"]}
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, listed)

    def test_every_printed_metric_is_declared(self):
        declared = {m["name"] for g in ("end_to_end", "per_layer") for m in SPEC[g]}
        catalogued = set(CATALOGUE["metrics"])
        printed = re.compile(r"^   ([A-Za-z0-9][A-Za-z0-9_.-]*) +\S+ +\S+ +\(n=")
        for w in run.WORKLOADS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", w,
                         "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
                        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
                    self.assertEqual(proc.returncode, 0, proc.stdout)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(list(result["metrics"]), [m["name"] for m in SPEC[group]])
                    names = [m.group(1) for m in map(printed.match, lines) if m]
                    self.assertTrue(names)
                    for name in names:
                        self.assertIn(name, declared | catalogued)


if __name__ == "__main__":
    unittest.main()
