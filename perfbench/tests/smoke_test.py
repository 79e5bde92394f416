#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json in a very short mode (--seconds 1),
untraced and traced, on the default seed and on one other seed, and checks
that the result line parses, names every metric of the matching list with
its unit, and reports no failed rows.

Run from the repository root:

    python3 perfbench/tests/smoke_test.py
"""

import json
import math
import os
import subprocess
import sys
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load_benchmark():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def run(bench, workload, seed, trace):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seconds", "1", "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    out = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                         timeout=900)
    return out


class SmokeTest(unittest.TestCase):
    bench = load_benchmark()

    def check(self, workload, seed, trace):
        out = run(self.bench, workload, seed, trace)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        lines = out.stdout.strip().splitlines()
        self.assertTrue(lines, "no output")
        result = json.loads(lines[-1])
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertIs(result["correct"], True, out.stdout[-2000:])
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = self.bench["per_layer" if trace else "end_to_end"]
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in wanted})
        for m in wanted:
            got = metrics[m["name"]]
            self.assertEqual(set(got), {"value", "unit"}, m["name"])
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

    def test_workloads(self):
        # None = the default seed of run.py.
        for seed in (None, 2):
            for w in self.bench["workloads"]:
                for trace in (0, 1):
                    with self.subTest(workload=w["name"], seed=seed,
                                      trace=trace):
                        self.check(w["name"], seed, trace)

    def test_refuses_without_sources(self):
        # A directory holding only the benchmark must fail without a result.
        import shutil
        import tempfile
        build_root = os.path.join(REPO, ".bench_build")
        os.makedirs(build_root, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_root) as tmp:
            shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp)
            for path in self.bench["paths"]:
                shutil.copytree(os.path.join(REPO, path),
                                os.path.join(tmp, path))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(
                tmp, ".bench_build"))
            cmd = list(self.bench["command"]) + [
                "--workload", self.bench["workloads"][0]["name"],
                "--seed", "1", "--seconds", "1", "--trace", "0"]
            out = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True,
                                 text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    sys.exit(0 if unittest.main(exit=False).result.wasSuccessful() else 1)
