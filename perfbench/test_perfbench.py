#!/usr/bin/env python3
"""The benchmark's own tests: a short mode of every workload.

Run from the repository root (builds the benchmark on first use, a few minutes
in all):

    python3 perfbench/test_perfbench.py

Each workload, run for one second, must print every metric BENCHMARK.json
names with its unit, pass its output checks on two seeds, reproduce its
forecast_mse and output digest exactly across two runs and across
MSD_THREADS=1 and 4, and fail when its oracle is corrupted on purpose.
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
SECONDS = "1"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
with open(os.path.join(HERE, "workloads.json")) as f:
    WORKLOADS = json.load(f)["workloads"]


def run(workload, seed=1, trace=0, threads=None, corrupt=False, env=None,
        cwd=ROOT):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", SECONDS, "--trace", str(trace)]
    if threads:
        command += ["--threads", str(threads)]
    if corrupt:
        command.append("--corrupt-oracle")
    proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          env=env, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, lines, result


def digest_line(lines):
    """The line pinning the outputs: digest and forecast_mse, exact."""
    found = [line for line in lines if line.startswith("digest ")]
    assert len(found) == 1, lines
    return " ".join(field for field in found[0].split()
                    if field.split("=")[0] in
                    ("digest", "outputs", "open_replies", "forecasts",
                     "forecast_mse"))


class WorkloadTest:
    """Mixed into one TestCase per workload."""
    workload = None

    def check_metrics(self, result, kind):
        names = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        self.assertEqual(set(result["metrics"]), set(names))
        for name, unit in names.items():
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
            self.assertIsInstance(result["metrics"][name]["value"],
                                  (int, float), name)

    def check_passed(self, proc, result):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

    def test_untraced_repeats_and_is_thread_count_invariant(self):
        proc, lines, first = run(self.workload)
        self.check_passed(proc, first)
        self.check_metrics(first, "end_to_end")
        for value in first["metrics"].values():
            self.assertGreater(value["value"], 0)
        self.assertTrue(any(line.startswith("provenance ") for line in lines))
        pinned = digest_line(lines)
        proc, lines, again = run(self.workload)
        self.check_passed(proc, again)
        self.assertEqual(digest_line(lines), pinned)
        # The other side of MSD_THREADS=1 vs 4 from the workload's own.
        other = 4 if WORKLOADS[self.workload]["threads"] == 1 else 1
        proc, lines, swapped = run(self.workload, threads=other)
        self.check_passed(proc, swapped)
        self.assertEqual(digest_line(lines), pinned)
        self.assertEqual(swapped["metrics"]["forecast_mse"],
                         first["metrics"]["forecast_mse"])

    def test_second_seed_passes_every_check(self):
        proc, _, result = run(self.workload, seed=2)
        self.check_passed(proc, result)

    def test_traced_prints_every_per_layer_metric(self):
        proc, lines, result = run(self.workload, trace=1)
        self.check_passed(proc, result)
        self.check_metrics(result, "per_layer")
        self.assertFalse([line for line in lines if "VIOLATED" in line])
        trace = os.path.join(ROOT, ".bench_build", "traces",
                             f"{self.workload}-seed1.json")
        with open(trace) as f:
            doc = json.load(f)
        self.assertTrue(doc["traceEvents"])
        self.assertIn("provenance", doc)

    def test_corrupted_oracle_fails(self):
        proc, _, result = run(self.workload, corrupt=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)


class OfflineFp32(WorkloadTest, unittest.TestCase):
    workload = "offline_fp32"


class OfflineInt8(WorkloadTest, unittest.TestCase):
    workload = "offline_int8"


class OnlineSocket(WorkloadTest, unittest.TestCase):
    workload = "online_socket"


class TrainForecast(WorkloadTest, unittest.TestCase):
    workload = "train_forecast"


class Guards(unittest.TestCase):
    def test_refuses_a_program_changing_environment(self):
        for name in ("MSD_PLAN", "MSD_QUANT", "MSD_DISABLE_POOL",
                     "MSD_POOL_CAP_MB"):
            env = dict(os.environ, **{name: "0"})
            proc, _, result = run("train_forecast", env=env)
            self.assertNotEqual(proc.returncode, 0, name)
            self.assertIsNone(result, name)

    def test_fails_without_the_program_sources(self):
        parent = os.path.join(ROOT, ".bench_build", "tmp")
        os.makedirs(parent, exist_ok=True)
        bare = tempfile.mkdtemp(dir=parent)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc, _, result = run("offline_fp32", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
