#!/usr/bin/env python3
"""Smoke test of the host-time ledger.

Runs every workload in smoke mode (tiny sizes) at both trace levels
through run.py and checks that:
  - the run passes its own correctness checks (exit code 0);
  - the last stdout line is JSON with exactly correct/attempted/failed/
    metrics, and the metrics are exactly BENCHMARK.json's end_to_end
    (trace 0) or per_layer (trace 1) names, each with its unit;
  - every metric is also printed on its own line, with its unit, and
    every end-to-end figure is above 0;
  - the deterministic figures agree between the traced and untraced runs.

Run from the repository root: python3 perfbench/test_smoke.py
"""

import json
import math
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, seed=7):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    return proc


class SmokeTest(unittest.TestCase):

    def check_run(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

        expected = SPEC["end_to_end" if trace == 0 else "per_layer"]
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in expected])
        text = lines[:-1]
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if trace == 0:  # End-to-end figures are never 0.
                self.assertGreater(got["value"], 0, m["name"])
            printed = [l.split() for l in text if l.split()[:1] == [m["name"]]]
            self.assertEqual(len(printed), 1, m["name"])
            self.assertEqual(printed[0][-1], m["unit"], m["name"])
        digest = [l for l in text if l.startswith("deterministic:")]
        self.assertEqual(len(digest), 1)
        return digest[0]

    def test_every_workload(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                untraced = self.check_run(w["name"], 0)
                traced = self.check_run(w["name"], 1)
                self.assertEqual(untraced, traced)


if __name__ == "__main__":
    unittest.main()
