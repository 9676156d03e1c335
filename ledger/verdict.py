#!/usr/bin/env python3
"""Reads a ledger file of benchmark runs (`BENCH_<pr>.jsonl`) and prints, for
each sitting, workload and end-to-end metric of BENCHMARK.json, what a
parent/change comparison turns on:

* each side's median over its runs, and the parent's interquartile range;
* pairs won: pairs of the sitting (same `pair` number) in which the side is
  better than the parent on that metric, out of the pairs both sides ran;
* claim: `yes` when the side wins at least nine pairs in ten and its median
  is better than the parent's by more than the parent's IQR;
* spread: the side's IQR against 25 % of the parent's median, the check that
  refuses runs "spread too widely to tell" (`ok` when within it).

Rows are grouped by `sitting` (rows without one form the sitting `-`), by
whether they are traced, and by `side`; every side that is not `parent` is
compared with the parent rows of its sitting. Quartiles are linear
interpolation between order statistics (`statistics.quantiles`, inclusive).

Usage: python3 ledger/verdict.py ledger/BENCH_40.jsonl [more files...]

Stdlib only. Exits 1 if any line of a file does not parse as a run (a JSON
object with `metrics`, `side` and `workload`), after printing the rest.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def load(paths):
    runs, bad = [], []
    for path in paths:
        with open(path) as f:
            for number, line in enumerate(f, 1):
                if not line.strip():
                    continue
                try:
                    run = json.loads(line)
                    run["metrics"], run["side"], run["workload"]
                    runs.append(run)
                except (ValueError, KeyError, TypeError) as e:
                    bad.append(f"{path}:{number}: {e}")
    return runs, bad


def value(run, metric):
    entry = run["metrics"].get(metric)
    return None if entry is None else entry["value"]


def main(paths):
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    runs, bad = load(paths)
    groups = defaultdict(lambda: defaultdict(list))
    for run in runs:
        key = (run.get("sitting", "-"), run["workload"], bool(run.get("trace")))
        groups[key][run["side"]].append(run)
    header = ["sitting", "workload", "metric", "side", "runs", "median",
              "parent_median", "parent_iqr", "pairs_won", "claim",
              "iqr", "spread_bound", "spread"]
    print("\t".join(header))
    for (sitting, workload, traced), sides in sorted(groups.items()):
        label = sitting + (" (traced)" if traced else "")
        parent = sides.get("parent", [])
        for metric in metrics:
            name, higher = metric["name"], metric["better"] == "higher"
            base = [v for v in (value(r, name) for r in parent) if v is not None]
            base_median = statistics.median(base) if base else None
            base_iqr = None
            if base:
                q1, q3 = quartiles(sorted(base))
                base_iqr = q3 - q1
            by_pair = {r.get("pair"): value(r, name) for r in parent}
            for side, side_runs in sorted(sides.items(), key=lambda s: (s[0] != "parent", s[0])):
                vals = [v for v in (value(r, name) for r in side_runs) if v is not None]
                if not vals:
                    continue
                median = statistics.median(vals)
                q1, q3 = quartiles(sorted(vals))
                row = [label, workload, name, side, str(len(vals)), f"{median:.6g}"]
                if side == "parent" or base_median is None:
                    row += [""] * 4 + [f"{q3 - q1:.6g}", "", ""]
                    print("\t".join(row))
                    continue
                won = total = 0
                for r in side_runs:
                    mine, theirs = value(r, name), by_pair.get(r.get("pair"))
                    if r.get("pair") is None or mine is None or theirs is None:
                        continue
                    total += 1
                    won += (mine > theirs) if higher else (mine < theirs)
                gain = (median - base_median) if higher else (base_median - median)
                claim = total > 0 and won * 10 >= 9 * total and gain > base_iqr
                bound = 0.25 * base_median
                row += [f"{base_median:.6g}", f"{base_iqr:.6g}", f"{won}/{total}",
                        "yes" if claim else "no", f"{q3 - q1:.6g}", f"{bound:.6g}",
                        "ok" if q3 - q1 <= bound else "WIDE"]
                print("\t".join(row))
    print(f"# {len(runs)} runs parsed, {len(bad)} lines not")
    for line in bad:
        print(f"# unparsed: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
