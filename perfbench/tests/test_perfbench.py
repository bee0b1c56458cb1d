"""Smoke tests for the benchmark itself.

Run from the repository root (builds Oak and the harness on first use):

    python3 -m unittest discover -s perfbench/tests -v

Each workload runs once end to end and once traced at `--seconds 1`;
every metric BENCHMARK.json names must come back with its unit and
every response must be correct. The request stream must be a pure
function of the seed.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    CONTRACT = json.load(fh)
# replicated_ingest is run by hand, outside BENCHMARK.json (README.md).
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]] + ["replicated_ingest"]


def run(*args):
    done = subprocess.run([sys.executable, RUN, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def stream_hash(workload, seed):
    return run("--workload", workload, "--seed", str(seed), "--seconds", "10",
               "--plan-only")["stream_hash"]


class StreamHash(unittest.TestCase):
    def test_same_seed_same_stream(self):
        for w in WORKLOADS:
            self.assertEqual(stream_hash(w, 7), stream_hash(w, 7), w)

    def test_different_seed_different_stream(self):
        for w in WORKLOADS:
            self.assertNotEqual(stream_hash(w, 7), stream_hash(w, 8), w)


class Smoke(unittest.TestCase):
    def check(self, result, expected):
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])

    def test_every_workload_end_to_end(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result = run("--workload", w, "--seed", "3", "--seconds", "1", "--trace", "0")
                self.check(result, CONTRACT["end_to_end"])
                self.assertEqual(result["metrics"]["ok_frac"]["value"], 1)

    def test_every_workload_traced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result = run("--workload", w, "--seed", "3", "--seconds", "1", "--trace", "1")
                self.check(result, CONTRACT["per_layer"])


if __name__ == "__main__":
    unittest.main()
