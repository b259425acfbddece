#!/usr/bin/env python3
"""Compare benchmark results of two commits.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines that `run.py --record FILE` appended, one per
untraced run.  Runs of the two sides are paired by workload and seed.
For every workload and end-to-end metric of BENCHMARK.json the report
gives each side's median and quartiles, the share of pairs the change
won (ties count for neither side), and a verdict:

  improved    the change won at least 9/10 of the pairs and the medians
              differ, in the better direction, by more than the
              distance between the parent's quartiles
  worse       the change's median is worse than the parent's by more
              than the metric's bound (a share of the parent's median)
  unresolved  the parent's own spread (quartile distance over median)
              is wider than the bound, and not every change run beats
              every parent run
  unchanged   otherwise
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """{workload: {seed: [result, ...]}} for the untraced runs in path."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"] == 0:
                out.setdefault(rec["workload"], {}).setdefault(
                    rec["seed"], []).append(rec["result"])
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent, change, bound, lower_is_better):
    """(verdict, wins share) for paired value lists."""
    sign = 1 if lower_is_better else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    share = wins / len(pairs)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gain = sign * (p_med - c_med)
    if share >= 0.9 and gain > p_q3 - p_q1:
        return "improved", share
    if -gain > bound * p_med:
        return "worse", share
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if (p_q3 - p_q1) > bound * p_med and not all_better:
        return "unresolved", share
    return "unchanged", share


def compare(parent, change, spec):
    rows = []
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        p_runs = [r for s in seeds for r in parent[workload][s]]
        c_runs = [r for s in seeds for r in change[workload][s]]
        n = min(len(p_runs), len(c_runs))
        p_runs, c_runs = p_runs[:n], c_runs[:n]
        if not n:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            v, share = verdict(pv, cv, m["bound"], m["better"] == "lower")
            rows.append((workload, name, m["unit"], quartiles(pv),
                         quartiles(cv), share, n, v))
        rows.append((workload, "fail_frac", "",
                     _fails(p_runs), _fails(c_runs), None, n, None))
    return rows


def _fails(runs):
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    return failed, attempted


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 64
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    rows = compare(load(argv[0]), load(argv[1]), spec)
    print("%-9s %-12s %-30s %-30s %6s %5s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "won", "pairs", "verdict"))
    worse = False
    for wl, name, unit, p, c, share, n, v in rows:
        if v is None:
            print("%-9s %-12s %-30s %-30s %6s %5d  %s" % (
                wl, name, "%d/%d failed" % p, "%d/%d failed" % c, "", n,
                "worse" if c[0] > p[0] else ""))
            worse |= c[0] > p[0]
            continue
        fmt = "%.4g [%.4g, %.4g] " + unit
        print("%-9s %-12s %-30s %-30s %5.0f%% %5d  %s" % (
            wl, name, fmt % (p[1], p[0], p[2]), fmt % (c[1], c[0], c[2]),
            100 * share, n, v))
        worse |= v == "worse"
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
