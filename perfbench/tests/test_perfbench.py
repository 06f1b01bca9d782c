"""Tests of the repo benchmark itself.

    python3 -m unittest discover -s perfbench/tests

Run from the root of a checkout. The smoke tests build perfbench/ like the
benchmark does and run every workload at its tiny smoke size.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = json.loads((BENCH_DIR / "workloads.json").read_text())["workloads"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(workload, trace, *extra, cwd=ROOT, env=None):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900,
                          env=env)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class ContractTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(BENCHMARK), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertEqual(BENCHMARK["paths"], ["perfbench"])
        self.assertTrue(1 <= BENCHMARK["run_seconds"] <= 60)
        names = [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(names, list(WORKLOADS))
        for w in BENCHMARK["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
        all_names = names + [m["name"] for m in metrics]
        self.assertEqual(len(all_names), len(set(all_names)))
        for name in all_names:
            self.assertRegex(name, NAME)
        for m in metrics:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_moves_map_per_layer_onto_end_to_end_metrics(self):
        end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
        per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
        mapped = set()
        for spec in WORKLOADS.values():
            for target, layers in spec["moves"].items():
                self.assertIn(target, end_to_end)
                self.assertLessEqual(set(layers), per_layer)
                mapped |= set(layers)
        self.assertEqual(per_layer - mapped, set())


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, declared in ((0, BENCHMARK["end_to_end"]),
                                    (1, BENCHMARK["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    done = run_bench(workload, trace, "--smoke")
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    result = last_json(done.stdout)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in declared})
                    for m in result["metrics"].values():
                        self.assertTrue(math.isfinite(m["value"]))

    def test_gate_catches_one_perturbed_compare(self):
        for workload, spec in WORKLOADS.items():
            if "app" not in spec["params"]:
                continue  # the simulator computes no scores
            with self.subTest(workload=workload):
                done = run_bench(workload, 0, "--smoke", "--perturb", "0,1")
                self.assertNotEqual(done.returncode, 0)
                result = last_json(done.stdout)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)

    def test_refuses_without_the_program_sources(self):
        # Share one already-built $CARGO_TARGET_DIR between this checkout
        # and the copy, so a cached configure of this checkout cannot stand
        # in for the copy's missing sources.
        env = dict(os.environ)
        env["CARGO_TARGET_DIR"] = str(
            (ROOT / env.get("CARGO_TARGET_DIR", ".bench_build")).resolve())
        built = run_bench("sim-forensics-16", 0, "--smoke", env=env)
        self.assertEqual(built.returncode, 0, built.stderr[-2000:])
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run_bench("forensics-dist-cache", 0, cwd=tmp, env=env)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
