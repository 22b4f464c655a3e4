#!/usr/bin/env python3
"""Smoke tests of the repository benchmark.

Runs every workload at its smoke size (run.py --smoke) with tracing off
and on, and checks that each run passes all of its output checks (among
them: the traced and profiled runs reproduce the untraced digests, the
distributed and served CSVs equal their oracles), and that it prints
every metric BENCHMARK.json names, with the unit BENCHMARK.json gives:
non-zero, except the per-layer metrics of the layers the workload does
not run (run.NOT_EXERCISED), which are 0.

Usage, from the repository root:

    python3 perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)
from run import NOT_EXERCISED  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(workload, trace, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "11",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)


class SmokeRuns(unittest.TestCase):

    def check_run(self, workload, trace):
        cp = run_bench(workload, trace)
        self.assertEqual(cp.returncode, 0, cp.stderr[-2000:])
        lines = cp.stdout.strip().splitlines()
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        failed = [k for k, ok in record["checks"].items() if not ok]
        self.assertEqual(failed, [])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        for key in ("host_cpus", "compiler", "build_type"):
            self.assertIn(key, record)
        kind = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        return record, result

    def test_every_workload_prints_every_metric(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    record, result = self.check_run(w["name"], trace)
                    idle = set(NOT_EXERCISED[w["name"]]) if trace else set()
                    self.assertEqual(set(record["not_exercised"]), idle)
                    for name, m in result["metrics"].items():
                        if name in idle:
                            self.assertEqual(m["value"], 0, name)
                        else:
                            self.assertGreater(m["value"], 0, name)
                    if trace:
                        # The wrapped actors and the profiler must leave
                        # the simulated outputs unchanged.
                        equal = [k for k in record["checks"]
                                 if k.endswith("equals_untraced")]
                        self.assertGreaterEqual(len(equal), 2, equal)


class Standalone(unittest.TestCase):

    def test_fails_without_the_sources(self):
        """Given only BENCHMARK.json and perfbench/, exit non-zero and
        print no result."""
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        d = tempfile.mkdtemp(dir=scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            cp = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "paper_campaign", "--seconds", "1"],
                cwd=d, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(cp.returncode, 0)
            self.assertNotIn('"correct"', cp.stdout)
        finally:
            shutil.rmtree(d)


if __name__ == "__main__":
    unittest.main()
