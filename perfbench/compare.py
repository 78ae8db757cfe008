#!/usr/bin/env python3
"""Summarises one result set, or compares two (parent, change).

    python3 perfbench/compare.py results/parent
    python3 perfbench/compare.py results/parent results/change

A result set is a directory written by perfbench/sweep.py. For each workload
and each end-to-end metric of BENCHMARK.json this prints the median and the
quartiles of the untraced runs and the spread (interquartile range over
median) against the metric's bound. With two sets it adds a verdict:

  better      the change wins at least 9 in 10 of the run pairs (ties count
              for neither side) and the medians differ by more than the
              parent's interquartile range; or the spread is wider than the
              bound but every change run beats every parent run
  worse       the change's median is worse than the parent's by more than
              the bound
  unresolved  the spread of either set is wider than the bound
  unchanged   none of the above: within the bound

Runs are paired in seed order. When a set holds traced runs it also prints
each workload's tracing overhead: the median traced.pass_norm_s minus the
median untraced pass_norm_s.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(directory):
    runs = {}
    with open(os.path.join(directory, "results.jsonl")) as f:
        for line in f:
            rec = json.loads(line)
            key = (rec["workload"], rec["trace"])
            runs.setdefault(key, []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["seed"])
    return runs


def values(recs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in recs
            if metric in r["result"]["metrics"]]


def stats(vals):
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def verdict(parent, change, bound, lower_better):
    def better(a, b):  # is a better than b
        return a < b if lower_better else a > b

    pm, pq1, pq3, ps = stats(parent)
    cm, _, _, cs = stats(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    if wins >= 0.9 * len(pairs) and abs(cm - pm) > pq3 - pq1 and \
            better(cm, pm):
        return "better"
    if max(ps, cs) > bound:
        if all(better(c, p) for c in change for p in parent):
            return "better"
        return "unresolved"
    worse_by = (cm - pm) / pm if lower_better else (pm - cm) / pm
    return "worse" if worse_by > bound else "unchanged"


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    sets = [load(d) for d in sys.argv[1:]]
    for w in spec["workloads"]:
        name = w["name"]
        if not all((name, 0) in s for s in sets):
            continue
        print("== %s" % name)
        for m in spec["end_to_end"]:
            row = "  %-20s" % m["name"]
            series = [values(s[(name, 0)], m["name"]) for s in sets]
            for vals in series:
                med, q1, q3, spread = stats(vals)
                row += "  n=%-2d median %-12.6g [%.6g, %.6g] spread %.4f" % (
                    len(vals), med, q1, q3, spread)
            row += "  bound %.3f" % m["bound"]
            if len(series) == 2:
                row += "  " + verdict(series[0], series[1], m["bound"],
                                      m["better"] == "lower")
            print(row)
        for i, s in enumerate(sets):
            if (name, 1) in s:
                traced = statistics.median(
                    values(s[(name, 1)], "traced.pass_norm_s"))
                plain = statistics.median(values(s[(name, 0)], "pass_norm_s"))
                print("  set %d tracing overhead: %.6f s (%+.2f%% of "
                      "pass_norm_s %.6f s)" % (i + 1, traced - plain,
                                              100 * (traced - plain) / plain,
                                              plain))


if __name__ == "__main__":
    main()
