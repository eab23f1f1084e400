#!/usr/bin/env python3
"""Compares mcf0_bench results of a parent commit and a change.

usage:
  python3 bench/mcf0_bench/compare.py --parent P1.json P2.json ... \
                                      --change C1.json C2.json ...

Each file is a bench_result.json written by one harness run (a directory
stands for every *.json in it, in name order). Runs are paired by
workload in the order given, so pass them in the order they ran; the
i-th parent run of a workload is paired with its i-th change run.
Metric names, directions and bounds come from BENCHMARK.json.

One row per (workload, metric): each side's median and quartiles, the
change's wins over the paired parent runs, the median over the pairs of
change / parent, and a verdict:
  improved    at least 10 pairs, the change wins at least 9 in 10 of
              them (ties count for neither side), and the medians differ
              by more than the parent's interquartile range;
  regressed   over the pairs, the median of change / parent is worse
              than 1 by more than the metric's bound, so drift of the
              machine between the two sides' runs cancels within each
              pair; a metric without a bound uses the mirror image of
              "improved";
  unresolved  the parent's own spread is wider than the bound, unless
              every change run beats every parent run; also any gain on
              a workload where the change fails a larger share of its
              operations than the parent (the error-rate rule);
  unchanged   otherwise.
Workload-specific values (a run's "details") follow the metrics. Those
measured in time units are judged like per-layer metrics, lower being
better; the others are listed without a verdict.
Exit status 1 when a listed metric regressed, the error rate rose, or
a change run failed a check.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SPEC = os.path.normpath(os.path.join(HERE, "..", "..", "BENCHMARK.json"))
MIN_PAIRS = 10
WIN_SHARE = 0.9
TIME_UNITS = {"ns", "us", "ms", "s"}
ROW = "%-22s %-36s %-34s %-34s %-7s %-7s %s"


def expand(paths):
    files = []
    for path in paths:
        if os.path.isdir(path):
            files += sorted(os.path.join(path, f) for f in os.listdir(path)
                            if f.endswith(".json"))
        else:
            files.append(path)
    return files


def load_runs(paths):
    """workload -> list of runs ({values, units, attempted, failed, correct})."""
    runs = {}
    for path in expand(paths):
        with open(path) as f:
            result = json.load(f)
        for run in result.get("runs", []):
            values, units = {}, {}
            for group in ("metrics", "details"):
                for name, metric in run[group].items():
                    values[name] = metric["value"]
                    units[name] = metric["unit"]
            runs.setdefault(run["workload"], []).append({
                "values": values, "units": units,
                "attempted": run["attempted"], "failed": run["failed"],
                "correct": run["correct"]})
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def error_rate(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def paired_ratio(pairs):
    """Median over the pairs of change / parent (None if no parent is
    non-zero)."""
    ratios = [c / p for p, c in pairs if p]
    return statistics.median(ratios) if ratios else None


def verdict(metric, parent, change):
    """(the change's wins, pairs, paired ratio, verdict) for one metric on
    one workload."""
    higher = metric["better"] == "higher"
    bound = metric.get("bound")
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if (c > p if higher else c < p))
    losses = sum(1 for p, c in pairs if (c < p if higher else c > p))
    gain = (cmed - pmed) if higher else (pmed - cmed)
    spread = pq3 - pq1
    decisive = len(pairs) >= MIN_PAIRS
    ratio = paired_ratio(pairs)
    worse_by = None if ratio is None else (1 - ratio if higher else ratio - 1)

    if decisive and wins >= WIN_SHARE * len(pairs) and gain > spread:
        result = "improved"
    elif bound is None:
        regressed = (decisive and losses >= WIN_SHARE * len(pairs)
                     and -gain > spread)
        result = "regressed" if regressed else "unchanged"
    elif worse_by is not None and worse_by > bound:
        result = "regressed"
    elif pmed and spread / abs(pmed) > bound:
        all_better = (min(change) > max(parent) if higher
                      else max(change) < min(parent))
        result = "unchanged" if all_better else "unresolved"
    else:
        result = "unchanged"
    return wins, len(pairs), ratio, result


def summary(values):
    q1, med, q3 = quartiles(values)
    return "%.6g [%.6g, %.6g]" % (med, q1, q3)


def ratio_text(ratio):
    return "-" if ratio is None else "%.3f" % ratio


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--spec", default=DEFAULT_SPEC,
                        help="BENCHMARK.json (default: the repo root's)")
    args = parser.parse_args()

    with open(args.spec) as f:
        spec = json.load(f)
    listed = spec["end_to_end"] + spec["per_layer"]
    listed_names = {m["name"] for m in listed}
    parent_runs = load_runs(args.parent)
    change_runs = load_runs(args.change)

    print(ROW % ("workload", "metric", "parent median [q1, q3]",
                 "change median [q1, q3]", "wins", "c/p", "verdict"))
    failing = False
    for workload in (w["name"] for w in spec["workloads"]):
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        if not parent or not change:
            continue
        if not all(r["correct"] for r in change):
            print("%-22s a change run failed a correctness check" % workload)
            failing = True
        more_errors = error_rate(change) > error_rate(parent)
        failing |= more_errors
        print(ROW % (workload, "error_rate (failed / attempted)",
                     "%.6g" % error_rate(parent), "%.6g" % error_rate(change),
                     "", "", "regressed" if more_errors else ""))

        details = []
        for run in parent:
            details += [n for n in run["values"]
                        if n not in listed_names and n not in details]
        for name in [m["name"] for m in listed] + details:
            p = [r["values"][name] for r in parent if name in r["values"]]
            c = [r["values"][name] for r in change if name in r["values"]]
            if not p or not c:
                continue
            metric = next((m for m in listed if m["name"] == name), None)
            unit = next(r["units"][name] for r in parent if name in r["units"])
            if metric is None and unit in TIME_UNITS:
                metric = {"name": name, "better": "lower"}
            wins, pairs, ratio, result = (
                verdict(metric, p, c) if metric
                else (0, min(len(p), len(c)), paired_ratio(zip(p, c)), "-"))
            if result == "improved" and more_errors:
                result = "unresolved"  # a gain does not count
            failing |= result == "regressed" and name in listed_names
            print(ROW % (workload, name, summary(p), summary(c),
                         "%d/%d" % (wins, pairs), ratio_text(ratio), result))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
