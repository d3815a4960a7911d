#!/usr/bin/env python3
"""Smoke test for the benchmark: a short untraced and a short traced run of
every workload, asserting that every check passes and every metric named in
BENCHMARK.json, and every end-to-end figure the report names per workload,
is present.

    python3 perfbench/smoke_test.py

Exits 0 when everything holds, 1 otherwise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_SECONDS = 1

# The end-to-end figures each workload's report prints under their own
# names (the JSON line carries them under the generic BENCHMARK.json names).
REPORTED = {
    "ingest_stream": ["setup_s", "ingest_rps", "ingest_cpu_ns_per_report",
                      "i2q_p50_ms", "i2q_p99_ms", "error_rate",
                      "peak_rss_mb"],
    "query_mix": ["setup_s", "query_qps", "query_p50_us", "query_p99_us",
                  "error_rate", "peak_rss_mb"],
    "federated_window": ["setup_s", "ingest_rps", "ingest_cpu_ns_per_report",
                         "i2q_p50_ms", "i2q_p99_ms", "error_rate",
                         "peak_rss_mb"],
    "estimate_plus": ["setup_s", "estimate_s", "join_rel_error",
                      "error_rate", "peak_rss_mb"],
}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", str(RUN_SECONDS), "--trace",
           str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = {"correct": False, "attempted": 0, "failed": 0,
                  "metrics": {}}
    return done.returncode, lines[:-1], result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: [m["name"] for m in bench["end_to_end"]],
                1: [m["name"] for m in bench["per_layer"]]}
    problems = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            before = len(problems)
            code, report, result = run(workload, trace)
            where = "%s trace=%d" % (workload, trace)
            if code != 0:
                problems.append("%s: exit code %d" % (where, code))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: checks failed (%d of %d)" % (
                    where, result["failed"], result["attempted"]))
            if result["attempted"] < 1:
                problems.append("%s: nothing attempted" % where)
            if sorted(result["metrics"]) != sorted(expected[trace]):
                problems.append("%s: metrics %s, expected %s" % (
                    where, sorted(result["metrics"]), sorted(expected[trace])))
            for name, metric in result["metrics"].items():
                if not isinstance(metric.get("value"), (int, float)):
                    problems.append("%s: %s has no numeric value" % (where,
                                                                     name))
            names = {line.split()[0] for line in report if line.strip()}
            for name in REPORTED[workload]:
                if name not in names:
                    problems.append("%s: report lacks %s" % (where, name))
            print("%-30s %s" % (where, "ok" if len(problems) == before
                                       else "FAILED"), flush=True)
    for p in problems:
        print("FAIL " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
