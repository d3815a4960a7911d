#!/usr/bin/env python3
"""Summarizes one set of benchmark runs, or compares two.

    python3 perfbench/compare.py BASE_DIR [CHANGE_DIR]

Each directory holds <workload>.<seed>.out files, the full output of
run.py (see runs.py). Only untraced runs carry the end-to-end metrics that
are compared; the bounds and directions come from BENCHMARK.json.

One set: per workload x end-to-end metric, the median, quartiles and spread
(quartile distance over median), and whether the spread stays within the
metric's bound.

Two sets: for each workload x end-to-end metric, both medians and quartiles,
the share of seed-paired runs the change won (ties count for neither), and a
verdict:
  improved   the change won at least 9 in 10 pairs and the medians differ
             by more than the base set's own quartile distance;
  no worse   the change's median is not worse than the base's by more than
             the bound (or every change run beats every base run);
  unresolved a set's spread is wider than the bound, so "no worse" cannot be
             told from noise;
  worse      the change's median is worse than the base's by more than the
             bound.
The wall-clock figures each report prints under its workload's own names
(rates such as ingest_rps and query_qps, latency percentiles such as
i2q_p50_ms) carry no bound, since load from outside the process moves them
further than any bound allows. They are compared by the pairs rule alone:
improved or slower when one side won at least 9 in 10 pairs and the medians
differ by more than the base set's quartile distance, unresolved otherwise.
They never change the exit status.

Exits 1 when any bounded pairing is worse or a run failed its checks.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def wall_clock_direction(name):
    """'higher' or 'lower' for a printed wall-clock figure, else None."""
    if name.endswith(("_rps", "_qps", "_per_s")):
        return "higher"
    if any("_p%d_" % p in name for p in (50, 90, 99, 100)):
        return "lower"
    return None


def wall_clock_figures(lines):
    """{name: value} of the report's printed wall-clock figures."""
    figures = {}
    in_section = False
    for line in lines:
        if line.startswith("end-to-end"):
            in_section = True
        elif not line.startswith("  "):
            in_section = False
        elif in_section:
            parts = line.split()
            if len(parts) >= 2 and wall_clock_direction(parts[0]):
                figures[parts[0]] = float(parts[1])
    return figures


def load_set(path):
    """{workload: {seed: result}} from the last line of each .out file; each
    result also holds the report's wall-clock figures under "wall"."""
    runs = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".out"):
            continue
        workload, seed = name[:-len(".out")].rsplit(".", 1)
        with open(os.path.join(path, name)) as f:
            lines = f.read().rstrip("\n").split("\n")
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = {"correct": False, "metrics": {}}
        result["wall"] = wall_clock_figures(lines[:-1])
        runs.setdefault(workload, {})[int(seed)] = result
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(runs, metric):
    return {seed: r["metrics"][metric]["value"] for seed, r in runs.items()
            if metric in r.get("metrics", {})}


def wall_values_of(runs, name):
    return {seed: r["wall"][name] for seed, r in runs.items()
            if name in r.get("wall", {})}


def better(a, b, direction):
    """True when value a reads better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(base, change, spec):
    direction, bound = spec["better"], spec["bound"]
    seeds = sorted(set(base) & set(change))
    wins = sum(better(change[s], base[s], direction) for s in seeds)
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    c_q1, c_med, c_q3 = quartiles(list(change.values()))
    gain = (b_med - c_med) if direction == "lower" else (c_med - b_med)
    worse_by = -gain / abs(b_med) if b_med else 0.0
    spread = max((b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    every = all(better(c, b, direction)
                for c in change.values() for b in base.values())
    if seeds and wins >= 0.9 * len(seeds) and gain > (b_q3 - b_q1):
        word = "improved"
    elif every:
        word = "no worse"
    elif spread > bound:
        word = "unresolved"
    elif worse_by <= bound:
        word = "no worse"
    else:
        word = "worse"
    return word, wins, len(seeds), (b_q1, b_med, b_q3), (c_q1, c_med, c_q3)


def pairs_verdict(base, change, direction):
    """Verdict for an unbounded figure: the 9-in-10 pairs rule both ways."""
    seeds = sorted(set(base) & set(change))
    wins = sum(better(change[s], base[s], direction) for s in seeds)
    losses = sum(better(base[s], change[s], direction) for s in seeds)
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    c_q1, c_med, c_q3 = quartiles(list(change.values()))
    if seeds and wins >= 0.9 * len(seeds) and abs(c_med - b_med) > b_q3 - b_q1:
        word = "improved"
    elif seeds and losses >= 0.9 * len(seeds) and \
            abs(c_med - b_med) > b_q3 - b_q1:
        word = "slower"
    else:
        word = "unresolved"
    return word, wins, len(seeds), (b_q1, b_med, b_q3), (c_q1, c_med, c_q3)


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    base = load_set(sys.argv[1])
    change = load_set(sys.argv[2]) if len(sys.argv) == 3 else None
    status = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        base_runs = base.get(workload, {})
        bad = [s for s, r in base_runs.items() if not r.get("correct")]
        if change is not None:
            bad += [s for s, r in change.get(workload, {}).items()
                    if not r.get("correct")]
        print("%s  (%d base runs%s)%s" % (
            workload, len(base_runs),
            "" if change is None else
            ", %d change runs" % len(change.get(workload, {})),
            "  FAILED CHECKS in seeds %s" % sorted(bad) if bad else ""))
        if bad:
            status = 1
        for name, spec in specs.items():
            b = values_of(base_runs, name)
            if not b:
                continue
            if change is None:
                q1, med, q3 = quartiles(list(b.values()))
                spread = (q3 - q1) / abs(med) if med else 0.0
                print("  %-14s median %-12.6g q1 %-12.6g q3 %-12.6g "
                      "spread %.4f  bound %.2f  %s" % (
                          name, med, q1, q3, spread, spec["bound"],
                          "ok" if spread <= spec["bound"] else "WIDE"))
                continue
            c = values_of(change.get(workload, {}), name)
            if not c:
                print("  %-14s missing from the change set" % name)
                status = 1
                continue
            word, wins, pairs, bq, cq = verdict(b, c, spec)
            if word == "worse":
                status = 1
            print("  %-14s base %-11.5g [%-.5g, %-.5g]  change %-11.5g "
                  "[%-.5g, %-.5g]  won %d/%d  %s" % (
                      name, bq[1], bq[0], bq[2], cq[1], cq[0], cq[2], wins,
                      pairs, word))
        names = sorted({n for r in base_runs.values() for n in r["wall"]})
        for name in names:
            b = wall_values_of(base_runs, name)
            if change is None:
                q1, med, q3 = quartiles(list(b.values()))
                print("  %-20s median %-12.6g q1 %-12.6g q3 %-12.6g "
                      "spread %.4f  no bound" % (
                          name, med, q1, q3, (q3 - q1) / abs(med) if med
                          else 0.0))
                continue
            c = wall_values_of(change.get(workload, {}), name)
            if not c:
                continue
            word, wins, pairs, bq, cq = pairs_verdict(
                b, c, wall_clock_direction(name))
            print("  %-20s base %-11.5g [%-.5g, %-.5g]  change %-11.5g "
                  "[%-.5g, %-.5g]  won %d/%d  %s (no bound)" % (
                      name, bq[1], bq[0], bq[2], cq[1], cq[0], cq[2], wins,
                      pairs, word))
    sys.exit(status)


if __name__ == "__main__":
    main()
