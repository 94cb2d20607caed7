#!/usr/bin/env python3
"""Self-tests of the pipeline benchmark.

    python3 perfbench/test_bench.py

Runs every workload briefly on a seed that was not used for tuning and
checks that the reference check passes and that every metric named in
BENCHMARK.json is reported; checks that a deliberately corrupted sink
result fails the run; and checks that the benchmark refuses to run from
a directory holding only BENCHMARK.json and perfbench/.
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
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
HELD_OUT_SEED = "777"


def run(workload, trace=0, corrupt=0, cwd=ROOT, seconds=2):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", HELD_OUT_SEED,
                             "--seconds", str(seconds), "--trace", str(trace),
                             "--corrupt-result", str(corrupt)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    def test_every_workload_matches_reference(self):
        names = [m["name"] for m in SPEC["end_to_end"]]
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = run(w["name"])
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                r = result(proc)
                self.assertTrue(r["correct"], proc.stderr[-2000:])
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(sorted(r["metrics"]), sorted(names))
                for name in names:
                    self.assertGreater(r["metrics"][name]["value"], 0, name)

    def test_traced_pass_reports_every_layer_metric(self):
        names = [m["name"] for m in SPEC["per_layer"]]
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = run(w["name"], trace=1)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                r = result(proc)
                self.assertTrue(r["correct"], proc.stderr[-2000:])
                self.assertEqual(sorted(r["metrics"]), sorted(names))

    def test_corrupted_result_is_caught(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                proc = run("feedback_gate", trace=trace, corrupt=1)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                r = result(proc)
                self.assertFalse(r["correct"])
                self.assertGreaterEqual(r["failed"], 1)

    def test_refuses_to_run_without_the_engine(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            cmd = SPEC["command"] + ["--workload", "join_shards", "--seed", "1",
                                     "--seconds", "1", "--trace", "0"]
            proc = subprocess.run(cmd, cwd=d, env=env, capture_output=True,
                                  text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    sys.exit(unittest.main())
