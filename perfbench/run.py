#!/usr/bin/env python3
"""Builds the perfbench binary from source and measures one workload.

Run from the repository root:

    python3 perfbench/run.py --workload offline_fp32 --seed 1 --seconds 6 --trace 0

The last line of stdout is the result object. --trace 1 prints the
per-layer metrics instead of the end-to-end ones and writes the spans to
.bench_build/traces/. The build (CMake, Release) lands in .bench_build/.
--threads overrides the workload's MSD_THREADS; --corrupt-oracle flips one
expected output so the benchmark's own checks must fail.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "msd_perfbench")
CONFIG = os.path.join("perfbench", "workloads.json")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then lets CMake decide what is out of date."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
             "msd_perfbench"],
            stdout=sys.stderr, check=True)


def commit():
    """The checked-out commit, read from .git without leaving the checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=0)
    parser.add_argument("--corrupt-oracle", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, CONFIG)) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        log(f"unknown workload {args.workload!r}; have {sorted(workloads)}")
        return 2
    if args.seconds <= 0:
        log("--seconds must be positive")
        return 2
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("no library sources next to perfbench/: nothing to measure")
        return 2

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 2

    env = dict(os.environ)
    threads = args.threads or workloads[args.workload]["threads"]
    env["MSD_THREADS"] = str(threads)
    # Relative to the checkout root, which is the child's working directory:
    # AF_UNIX socket paths must stay short.
    work_dir = os.path.join(".bench_build", "runs",
                            f"{args.workload}-{os.getpid()}")
    trace_dir = os.path.join(".bench_build", "traces")
    os.makedirs(os.path.join(ROOT, work_dir), exist_ok=True)
    os.makedirs(os.path.join(ROOT, trace_dir), exist_ok=True)
    common = ["--workload", args.workload, "--config", CONFIG,
              "--work-dir", work_dir]
    try:
        fixture = subprocess.run([BINARY, "fixture"] + common, cwd=ROOT,
                                 env=env, stdout=sys.stderr,
                                 timeout=RUN_TIMEOUT_S)
        if fixture.returncode != 0:
            log("fixture step failed")
            return fixture.returncode or 1
        command = [BINARY, "run"] + common + [
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--benchmark-json", "BENCHMARK.json",
            "--trace-out", os.path.join(
                trace_dir, f"{args.workload}-seed{args.seed}.json"),
            "--commit", commit()]
        if args.corrupt_oracle:
            command.append("--corrupt-oracle")
        sys.stdout.flush()
        result = subprocess.run(command, cwd=ROOT, env=env,
                                timeout=RUN_TIMEOUT_S)
        return result.returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
