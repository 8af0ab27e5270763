#!/usr/bin/env python3
"""Steadiness driver for the end-to-end benchmark.

    python3 e2ebench/steady.py [--runs 10] [--sets 2]

Runs every workload of BENCHMARK.json --runs times per set through
e2ebench/run.py for its run_seconds, each run with the next seed (set 1
takes seeds 1..runs, set 2 the ones after), alternating the workload
order from round to round so slow drifts of the host touch every
workload alike. For every metric a run reports (the gated end-to-end
metrics of BENCHMARK.json and the ones it only prints) it shows the
median, the quartiles (statistics.quantiles, n=4), min and max across
the runs, and the spread: the distance between the quartiles as a share
of the median. A gated metric is steady when its spread is below a third
of its bound. With --sets 2 each gated metric's second median is also
compared with the first: it may be worse by at most the bound.

Exit status: 0 when every run was correct and every check held, 1
otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ROW = "  %-18s %12.6g %12.6g %12.6g %12.6g %12.6g %7.2f%% %s"
SHIFT = "  %-10s %-18s %12.6g -> %12.6g  worse by %6.2f%% (bound %3.0f%%) %s"


def spread(values):
    """(q1, median, q3, spread): the quartiles of statistics.quantiles
    and their distance as a share of the median; a metric that read 0 in
    every run has spread 0."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    if med == 0:
        return q1, med, q3, (0.0 if q1 == q3 else float("inf"))
    return q1, med, q3, (q3 - q1) / med


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative = better)."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def run_once(workload, seed, seconds):
    """The run's result line, plus every "name value unit" report line."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}}
    result["exit"] = done.returncode
    result["report"] = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            try:
                result["report"][parts[0]] = float(parts[1])
            except ValueError:
                pass
    return result


def run_set(workloads, runs, seconds, first_seed):
    values = {w: {} for w in workloads}
    ok = True
    for r in range(runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = first_seed + r
            res = run_once(w, seed, seconds)
            good = res.get("correct") is True and res["exit"] == 0
            ok = ok and good
            summary = " ".join("%s=%.6g" % (k, v)
                               for k, v in sorted(res["report"].items()))
            print("  %-10s seed %-4d %s %s" % (
                w, seed, "ok" if good else "INCORRECT", summary), flush=True)
            for name, v in res["report"].items():
                values[w].setdefault(name, []).append(v)
    return values, ok


def report(values, bounds):
    ok = True
    medians = {}
    for w, metrics in values.items():
        print("%s:" % w)
        print("  %-18s %12s %12s %12s %12s %12s %8s %6s" % (
            "metric", "median", "q1", "q3", "min", "max", "spread",
            "bound"))
        for name in list(bounds) + sorted(set(metrics) - set(bounds)):
            vals = metrics.get(name, [])
            if len(vals) < 2:
                print("  %-18s missing" % name)
                ok = ok and name not in bounds
                continue
            q1, med, q3, sp = spread(vals)
            if name not in bounds:
                print(ROW % (name, med, q1, q3, min(vals), max(vals),
                             100 * sp, "  not gated"))
                continue
            bound = bounds[name][0]
            medians[(w, name)] = med
            steady = sp < bound / 3
            ok = ok and steady
            print(ROW % (name, med, q1, q3, min(vals), max(vals), 100 * sp,
                         "%5.0f%% %s" % (100 * bound,
                                         "" if steady else "UNSTEADY")))
    return medians, ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=[1, 2])
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in bench["end_to_end"]}
    all_ok = True
    set_medians = []
    for s in range(args.sets):
        first = 1 + s * args.runs
        print("set %d: %d runs per workload, %d s each, seeds %d..%d" % (
            s + 1, args.runs, seconds, first, first + args.runs - 1),
            flush=True)
        values, ok = run_set(workloads, args.runs, seconds, first)
        medians, steady = report(values, bounds)
        set_medians.append(medians)
        all_ok = all_ok and ok and steady
    if args.sets == 2:
        print("second set vs first (worse by at most the bound):")
        for key, first in sorted(set_medians[0].items()):
            second = set_medians[1].get(key)
            if second is None:
                continue
            bound, better = bounds[key[1]]
            change = worse_by(first, second, better)
            held = change <= bound
            all_ok = all_ok and held
            print(SHIFT % (key[0], key[1], first, second, 100 * change,
                           100 * bound, "" if held else "REGRESSED"))
    print("all runs correct and steady" if all_ok
          else "NOT steady or NOT correct")
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
