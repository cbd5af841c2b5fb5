#!/usr/bin/env python3
"""Compares benchmark results of a parent commit and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]
    python3 perfbench/compare.py --self-test

Each input holds prague_bench records, one JSON object per line (the
--out file of prague_bench, or .bench_build/results.jsonl of run.py).
Untraced, non-smoke records are grouped by workload; within a workload,
parent and change runs are paired by seed (then by order). For every
workload x end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles, the change's win share over the pairs, and a verdict:

  improved      the change wins at least 9/10 of the pairs (ties count for
                neither) over at least 10 pairs, the medians differ by more
                than the parent's own quartile spread, and no more
                operations failed than at the parent
  worse         the change's median is worse than the parent's by more than
                the metric's bound
  unresolved    the parent's spread is wider than the bound and not every
                change run beats every parent run
  within bound  otherwise
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_records(path):
    records = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            rec = json.loads(line)
            header = rec.get("header", {})
            if header.get("traced") or header.get("smoke"):
                continue
            records.append(rec)
    return records


def by_workload(records):
    groups = {}
    for rec in records:
        groups.setdefault(rec["header"]["workload"], []).append(rec)
    return groups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair_up(parent, change):
    """Pairs runs with equal seeds first, then the rest in order."""
    change_by_seed = {}
    for rec in change:
        change_by_seed.setdefault(rec["header"]["seed"], []).append(rec)
    pairs, left_parent = [], []
    for rec in parent:
        same = change_by_seed.get(rec["header"]["seed"])
        if same:
            pairs.append((rec, same.pop(0)))
        else:
            left_parent.append(rec)
    left_change = [r for runs in change_by_seed.values() for r in runs]
    pairs.extend(zip(left_parent, left_change))
    return pairs


def verdict(metric, parent_values, change_values, pairs_values, failed):
    """Returns (verdict, wins, pairs) for one workload x metric."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p_q1, p_med, p_q3 = quartiles(parent_values)
    c_med = quartiles(change_values)[1]

    def better(c, p):
        return c < p if lower else c > p

    wins = sum(1 for p, c in pairs_values if better(c, p))
    losses = sum(1 for p, c in pairs_values if better(p, c))
    n = len(pairs_values)
    spread = p_q3 - p_q1
    if (n >= MIN_PAIRS and wins >= WIN_SHARE * n and losses < wins and
            abs(c_med - p_med) > spread and better(c_med, p_med) and
            failed["change"] <= failed["parent"]):
        return "improved", wins, n
    worse_by = (c_med - p_med) if lower else (p_med - c_med)
    if p_med != 0 and worse_by / abs(p_med) > bound:
        return "worse", wins, n
    rel_spread = spread / abs(p_med) if p_med else 0
    all_better = all(better(c, p) for c in change_values for p in parent_values)
    if rel_spread > bound and not all_better:
        return "unresolved", wins, n
    return "within bound", wins, n


def compare(parent_records, change_records, benchmark, out=sys.stdout):
    """Prints the comparison table; returns {(workload, metric): verdict}."""
    parent_groups = by_workload(parent_records)
    change_groups = by_workload(change_records)
    verdicts = {}
    for workload in sorted(set(parent_groups) & set(change_groups)):
        parent, change = parent_groups[workload], change_groups[workload]
        pairs = pair_up(parent, change)
        failed = {"parent": sum(r["failed"] for r in parent),
                  "change": sum(r["failed"] for r in change)}
        print("== %s: %d parent runs, %d change runs, %d pairs, failed %d -> %d"
              % (workload, len(parent), len(change), len(pairs),
                 failed["parent"], failed["change"]), file=out)
        print("%-20s %-32s %-32s %8s %7s  %s" % (
            "metric", "parent median [q1, q3]", "change median [q1, q3]",
            "delta", "wins", "verdict"), file=out)
        for metric in benchmark["end_to_end"]:
            name = metric["name"]

            def values(runs):
                return [r["metrics"][name]["value"] for r in runs
                        if name in r["metrics"]]

            p_vals, c_vals = values(parent), values(change)
            if not p_vals or not c_vals:
                continue
            pair_vals = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                         for p, c in pairs
                         if name in p["metrics"] and name in c["metrics"]]
            v, wins, n = verdict(metric, p_vals, c_vals, pair_vals, failed)
            verdicts[(workload, name)] = v
            pq, cq = quartiles(p_vals), quartiles(c_vals)
            delta = (cq[1] - pq[1]) / pq[1] * 100 if pq[1] else 0.0
            print("%-20s %-32s %-32s %+7.1f%% %3d/%-3d  %s" % (
                name,
                "%.4g [%.4g, %.4g]" % (pq[1], pq[0], pq[2]),
                "%.4g [%.4g, %.4g]" % (cq[1], cq[0], cq[2]),
                delta, wins, n, v), file=out)
    return verdicts


# ---- self-test ---------------------------------------------------------------

def _fixture(workload, values, failed=0):
    return [{"header": {"workload": workload, "seed": i + 1, "traced": False,
                        "smoke": False},
             "failed": failed,
             "metrics": {"latency_ms": {"value": v, "unit": "ms"}}}
            for i, v in enumerate(values)]


def self_test():
    bench = {"end_to_end": [{"name": "latency_ms", "unit": "ms",
                             "better": "lower", "bound": 0.10}]}
    steady = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]
    cases = {
        "improved": (steady, [v * 0.8 for v in steady], 0),
        "worse": (steady, [v * 1.3 for v in steady], 0),
        "within bound": (steady, [v * 1.02 for v in steady], 0),
        "unresolved": ([6, 14, 8, 12, 10, 7, 13, 9, 11, 10],
                       [7, 13, 9, 12, 10, 8, 14, 9, 11, 10], 0),
    }
    devnull = open(os.devnull, "w")
    failures = 0
    for expected, (parent, change, _) in cases.items():
        got = compare(_fixture("w", parent), _fixture("w", change), bench,
                      out=devnull)[("w", "latency_ms")]
        if got != expected:
            print("self-test: expected %s, got %s" % (expected, got))
            failures += 1
    # A gain does not count when more operations fail than at the parent.
    got = compare(_fixture("w", steady), _fixture("w", [v * 0.8 for v in steady],
                                                  failed=1),
                  bench, out=devnull)[("w", "latency_ms")]
    if got == "improved":
        print("self-test: a change with more failures was called improved")
        failures += 1
    # Fewer than ten pairs never support a claim.
    got = compare(_fixture("w", steady[:5]),
                  _fixture("w", [v * 0.8 for v in steady[:5]]),
                  bench, out=devnull)[("w", "latency_ms")]
    if got == "improved":
        print("self-test: five pairs were enough to claim a gain")
        failures += 1
    devnull.close()
    print("self-test: %s" % ("ok" if failures == 0 else "%d failed" % failures))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent or not args.change:
        parser.error("give PARENT.jsonl and CHANGE.jsonl, or --self-test")
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    verdicts = compare(load_records(args.parent), load_records(args.change),
                       benchmark)
    return 1 if "worse" in verdicts.values() else 0


if __name__ == "__main__":
    sys.exit(main())
