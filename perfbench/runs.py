#!/usr/bin/env python3
"""Collects a set of benchmark runs into a directory, for compare.py.

    python3 perfbench/runs.py --out DIR [--workloads a,b] [--seeds 1-10]
                              [--seconds S]

Runs perfbench/run.py untraced once per workload x seed (workloads
interleaved, so slow drift in the machine spreads over all of them) and stores each run's
full output as DIR/<workload>.<seed>.out. Seconds default to BENCHMARK.json's
run_seconds.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    for seed in parse_seeds(args.seeds):
        for workload in args.workloads.split(","):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            path = os.path.join(args.out, "%s.%d.out" % (workload, seed))
            with open(path, "w") as f:
                f.write(done.stdout)
            last = done.stdout.rstrip("\n").split("\n")[-1]
            print("%-18s seed %-4d exit %d  %s" %
                  (workload, seed, done.returncode, last[:100]), flush=True)


if __name__ == "__main__":
    main()
