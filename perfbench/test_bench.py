#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/test_bench.py

Runs every workload `run.py` knows twice with `--tiny` (untraced, then
traced), and checks that each run passes its output checks, prints the
result line with every metric of BENCHMARK.json in its unit, and that
the counts which must repeat for one seed do. Also checks that the
benchmark fails without a result when only its own files are present.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7

sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def run(cwd, workload, trace):
    return subprocess.run(
        [
            sys.executable,
            os.path.join(cwd, "perfbench", "run.py"),
            "--workload",
            workload,
            "--seed",
            str(SEED),
            "--seconds",
            "0.3",
            "--trace",
            str(trace),
            "--tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=900,
    )


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def metrics_of(self, trace):
        kind = "per_layer" if trace else "end_to_end"
        return {m["name"]: m["unit"] for m in self.spec[kind]}

    def test_every_workload_repeats_and_reports_every_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                stamps = []
                for trace in (0, 1):
                    done = run(ROOT, workload, trace)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    lines = done.stdout.strip().splitlines()
                    stamp, result = json.loads(lines[-2])["stamp"], json.loads(lines[-1])
                    self.assertEqual(
                        sorted(result), ["attempted", "correct", "failed", "metrics"]
                    )
                    self.assertTrue(result["correct"], done.stderr)
                    self.assertEqual(result["failed"], 0, done.stderr)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(printed, self.metrics_of(trace))
                    self.assertEqual(stamp["build"], {"profile": "release", "obs": False})
                    stamps.append(stamp)
                self.assertEqual(stamps[0]["exact"], stamps[1]["exact"])

    def test_fails_without_the_repository(self):
        bare = os.path.join(ROOT, ".bench_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(
                HERE,
                os.path.join(bare, "perfbench"),
                ignore=shutil.ignore_patterns("__pycache__", "target"),
            )
            done = run(bare, "ingest_churn", 0)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
