#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload once, at reduced sizes.

    python3 perfbench/test_smoke.py

Runs perfbench/run.py --smoke on each workload, untraced and traced, and
asserts that the run passes all of its output checks and reports every
end-to-end (untraced) or per-layer (traced) metric named in
BENCHMARK.json, each with the unit and direction given there. Takes a few
minutes including the first build.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LINE = re.compile(r"^metric (\S+) = (\S+) (\S+) \((lower|higher) is better\)")


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    return proc


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertFalse([l for l in lines if l.startswith("check FAILED")])

        printed = {}
        for line in lines:
            m = LINE.match(line)
            if m:
                printed[m.group(1)] = (m.group(3), m.group(4))
        expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        for metric in expected:
            name = metric["name"]
            with self.subTest(metric=name):
                self.assertIn(name, result["metrics"])
                self.assertEqual(result["metrics"][name]["unit"],
                                 metric["unit"])
                self.assertIsInstance(result["metrics"][name]["value"],
                                      (int, float))
                self.assertEqual(printed.get(name),
                                 (metric["unit"], metric["better"]))
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in expected})

    def test_workloads(self):
        for workload in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=workload["name"], trace=trace):
                    self.check(workload["name"], trace)


if __name__ == "__main__":
    unittest.main()
