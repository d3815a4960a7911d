#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

The C++ benchmark program (perfbench/src) is configured and built with CMake
into .bench_build/perfbench at the checkout root; a rebuild is incremental.
Its report goes to stdout and its last line is one JSON object with the
keys correct, attempted, failed and metrics. Build output goes to stderr.
Exits non-zero, printing no result, when the build fails or the program
crashes or hangs; exits 1 after printing the result when a check or an
operation failed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(BUILD_DIR, "traces")
RECORDED = os.path.join(HERE, "recorded_estimates.txt")
WORKLOADS = ["ingest_stream", "query_mix", "federated_window", "estimate_plus"]
# A run measures for --seconds plus repeated set-up and checks; the slowest
# workload stays far below this, so hitting it means a hang.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark program; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (report lines, parsed result, exit code)."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", TRACE_DIR, "--recorded", RECORDED]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %ds" %
                 (workload, RUN_TIMEOUT_S))
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.exit("perfbench: %s exited with %d and printed no result line" %
                 (workload, done.returncode))
    return lines[:-1], result, done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    binary = build()
    if args.workload != "all":
        lines, result, code = run_one(binary, args.workload, args.seed,
                                      args.seconds, args.trace)
        print("\n".join(lines))
        print(json.dumps(result))
        sys.exit(code)

    # Every workload in turn; the last line merges them, metric names
    # prefixed with the workload.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        lines, result, code = run_one(binary, workload, args.seed,
                                      args.seconds, args.trace)
        worst = max(worst, code)
        print("\n".join(lines))
        print(json.dumps(result))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][workload + "." + name] = metric
    print(json.dumps(merged))
    sys.exit(worst)


if __name__ == "__main__":
    main()
