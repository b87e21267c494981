"""Tests of the repository benchmark, run from the checkout root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each case drives perfbench/run.py (which builds on first use) with a fixed
--calls count, so runs are short and their exact counts are reproducible.
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
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

# Enough calls for every workload-identity check to fire: the switch needs
# glitches (2% of frames) and evictions, the hot stream a few batches.
CALLS = {"cold_batch_m14": 4, "hot_stream_m12": 24, "switch_m6_open": 3000}


def run(workload, seed, trace, calls=None, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace),
           "--calls", str(calls or CALLS[workload])]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    return done


def result(done):
    last = done.stdout.strip().splitlines()[-1]
    return json.loads(last)


def report_line(done, prefix):
    for line in done.stdout.splitlines():
        if line.startswith(prefix):
            return line
    raise AssertionError("no %r line in:\n%s" % (prefix, done.stdout))


class PerfbenchTest(unittest.TestCase):
    def test_spec_names_the_three_workloads(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(CALLS))

    def test_every_metric_printed_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in CALLS:
                with self.subTest(workload=workload, trace=trace):
                    done = run(workload, 1, trace)
                    self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
                    got = result(done)
                    self.assertEqual(set(got), {"correct", "attempted", "failed", "metrics"})
                    self.assertEqual({k: v["unit"] for k, v in got["metrics"].items()}, expected)
                    for metric in got["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))

    def test_seed_delivers_everything(self):
        for workload in CALLS:
            with self.subTest(workload=workload):
                got = result(run(workload, 1, 0))
                self.assertTrue(got["correct"])
                self.assertGreater(got["attempted"], 0)
                self.assertEqual(got["failed"], 0)

    def test_held_out_seed_passes_the_gate(self):
        for workload in CALLS:
            with self.subTest(workload=workload):
                done = run(workload, 987654321, 0)
                self.assertEqual(done.returncode, 0, done.stdout)
                got = result(done)
                self.assertTrue(got["correct"])
                self.assertEqual(got["failed"], 0)

    def test_same_seed_same_inputs_and_counts(self):
        for workload in CALLS:
            with self.subTest(workload=workload):
                a, b, other = run(workload, 7, 0), run(workload, 7, 0), run(workload, 8, 0)
                self.assertEqual(report_line(a, "inputs:"), report_line(b, "inputs:"))
                self.assertEqual(report_line(a, "counts:"), report_line(b, "counts:"))
                self.assertNotEqual(report_line(a, "inputs:"), report_line(other, "inputs:"))

    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            cmd = [sys.executable, "perfbench/run.py", "--workload", "cold_batch_m14",
                   "--seed", "1", "--seconds", "1", "--trace", "0"]
            done = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
