#!/usr/bin/env python3
"""The end-to-end benchmark's own tests, in quick mode.

    python3 e2ebench/test_e2ebench.py

Builds the package as run.py does, then checks: the e2e_selftest binary
(metric-name rules, open-loop lateness accounting, slice medians, ledger
arithmetic, the replay bit-equality failure path); that quick runs of every
workload print exactly BENCHMARK.json's metrics and pass their own checks;
that an injected replay fault fails a run without printing a result; and
that BENCHMARK.json is the one generated from metrics.hpp.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (the benchmark's build step)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TIMEOUT_S = 170


def capture(cmd):
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=TIMEOUT_S)


class E2EBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        out = run.build(run.build_dir())
        cls.bench = os.path.join(out, "bench_e2e")
        cls.selftest = os.path.join(out, "e2e_selftest")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.manifest = json.load(f)

    def quick(self, workload, trace, *extra):
        return capture([self.bench, "--workload", workload, "--seed", "7",
                        "--seconds", "1", "--trace", str(trace), "--quick",
                        *extra])

    def test_selftest_binary_passes(self):
        r = capture([self.selftest])
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_manifest_is_generated_from_the_metric_table(self):
        r = capture([self.bench, "--manifest"])
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertEqual(json.loads(r.stdout), self.manifest)

    def test_manifest_follows_the_format(self):
        m = self.manifest
        self.assertEqual(set(m), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= m["run_seconds"] <= 60)
        names = []
        for w in m["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for metric in m["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < metric["bound"] <= 0.25)
        for metric in m["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        for metric in m["end_to_end"] + m["per_layer"]:
            self.assertRegex(metric["name"], NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
            names.append(metric["name"])
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = next(x for x in m["end_to_end"] if x["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(x["bound"] for x in m["end_to_end"]))

    def test_quick_runs_report_exactly_the_manifest_metrics(self):
        for workload in [w["name"] for w in self.manifest["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    r = self.quick(workload, trace)
                    self.assertEqual(r.returncode, 0, r.stderr)
                    result = json.loads(r.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertIs(result["correct"], True)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    key = "end_to_end" if trace == 0 else "per_layer"
                    want = {x["name"]: x["unit"] for x in self.manifest[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for value in result["metrics"].values():
                        self.assertIsInstance(value["value"], (int, float))

    def test_replay_fault_fails_the_run_without_a_result(self):
        for workload in ("cohort_warm", "poc_sessions"):
            with self.subTest(workload=workload):
                r = self.quick(workload, 1, "--inject-replay-fault")
                self.assertNotEqual(r.returncode, 0)
                self.assertNotIn('"correct"', r.stdout)
                self.assertIn("replay bit-equality failed", r.stderr)

    def test_bad_arguments_exit_nonzero_without_output(self):
        for args in (["--workload", "nope"],
                     ["--workload", "cohort_cold", "--trace", "2"],
                     ["--workload", "cohort_cold", "--seconds", "x"]):
            with self.subTest(args=args):
                r = capture([self.bench, *args])
                self.assertEqual(r.returncode, 2)
                self.assertEqual(r.stdout, "")


if __name__ == "__main__":
    unittest.main()
