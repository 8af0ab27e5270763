#!/usr/bin/env python3
"""Builds and runs one workload of the end-to-end decision-path benchmark.

    python3 e2ebench/run.py --workload metro_pick --seed 1 --seconds 20 \
        --trace 0

Run it from the root of a checkout. Each run first brings the build in
.bench_build/ up to date (the first run configures it and compiles the
scheduler libraries from src/ and the benchmark, about two minutes of CPU;
later runs find nothing to do), then runs the workload. The benchmark's
report goes to standard output, one "name value unit" line for every
metric it measured, and its last line is the result JSON:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The result line carries the metrics BENCHMARK.json names: its end_to_end
metrics for --trace 0, its per_layer metrics for --trace 1.

Exit status: 0 when the run's correctness checks passed, 1 when one
failed, 2 when the benchmark could not be built or run (no result line).
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
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
# The benchmark itself exits well inside this; a hung run is killed.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(message):
    print("e2ebench/run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds e2e_bench; build output goes to a log."""
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    # Concurrent runs in one checkout must not build over each other.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "a") as log:
            steps = []
            if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
                generator = ("Ninja" if shutil.which("ninja")
                             else "Unix Makefiles")
                steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-G",
                              generator, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
            jobs = str(min(4, os.cpu_count() or 1))
            steps.append(["cmake", "--build", BUILD_DIR, "--target",
                          "e2e_bench", "-j", jobs])
            for cmd in steps:
                try:
                    done = subprocess.run(cmd, stdout=log, stderr=log,
                                          timeout=BUILD_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    fail("build timed out; see " + log_path)
                if done.returncode != 0:
                    if cmd[1] == "-S":
                        # A failed configure leaves a cache that would
                        # skip configuring next time.
                        cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
                        if os.path.exists(cache):
                            os.remove(cache)
                    fail("build failed; see " + log_path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [m["name"] for m in
             bench["per_layer" if args.trace == "1" else "end_to_end"]]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stdout.write(done.stdout)
        fail("e2e_bench exited with %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        fail("e2e_bench printed no result line")
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        print("\n".join(lines[:-1]))
        fail("e2e_bench did not measure " + ", ".join(missing))
    result["metrics"] = {n: result["metrics"][n] for n in names}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
