#!/usr/bin/env python3
"""Compare two sets of benchmark runs: a parent commit and a change.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``bench/run.py --out FILE`` appends, one
per workload run.  The i-th run of a workload in one file is paired
with the i-th run of that workload in the other; run the two sides
alternately, flipping which one goes first in every pair.  One row is
printed per workload and end-to-end metric:

* improved   -- at least 10 pairs, the change wins at least 9 in 10 of
  them (ties count for neither side), and the medians differ by more
  than the parent's interquartile range;
* unresolved -- the parent's own spread is wider than the metric's
  bound, and not every change run beats every parent run;
* worse      -- the change's median is worse than the parent's by more
  than the bound fixed in BENCHMARK.json;
* unchanged  -- otherwise.

Exits 1 when any row is worse or any run failed its output checks.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent, change, better: str, bound: float) -> str:
    """One metric on one workload; ``parent[i]`` pairs with ``change[i]``."""
    sign = 1 if better == "higher" else -1
    q1, median, q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    gain = sign * (change_median - median)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gain > q3 - q1):
        return "improved"
    dominates = (min(change) > max(parent) if sign > 0
                 else max(change) < min(parent))
    if q3 - q1 > bound * abs(median) and not dominates:
        return "unresolved"
    if -gain > bound * abs(median):
        return "worse"
    return "unchanged"


def load(path):
    """{workload: [record, ...]} of the untraced runs, in file order."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        if not record["trace"]:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def compare(parent_path, change_path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(parent_path), load(change_path)
    status = 0

    def spread(values):
        q1, median, q3 = quartiles(values)
        return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"

    print(f"{'workload':<14} {'metric':<12} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'wins':<7} verdict")
    for workload in parent:
        if workload not in change:
            print(f"{workload:<14} missing from {change_path}")
            continue
        a, b = parent[workload], change[workload]
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        if not all(r["correct"] and "metrics" in r for r in a + b):
            print(f"{workload:<14} a run failed its output checks")
            status = 1
            continue
        parent_first = sum(1 for x, y in zip(a, b)
                           if x["started"] < y["started"])
        if abs(2 * parent_first - n) > 1:
            print(f"{workload:<14} warning: pairs did not alternate "
                  f"({parent_first} of {n} ran the parent first)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            xs = [r["metrics"][name] for r in a]
            ys = [r["metrics"][name] for r in b]
            result = verdict(xs, ys, metric["better"], metric["bound"])
            status |= result == "worse"
            sign = 1 if metric["better"] == "higher" else -1
            wins = sum(1 for x, y in zip(xs, ys) if sign * (y - x) > 0)
            print(f"{workload:<14} {name:<12} {spread(xs):<34} "
                  f"{spread(ys):<34} {f'{wins}/{n}':<7} {result}")
    return status


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    sys.exit(compare(sys.argv[1], sys.argv[2]))
