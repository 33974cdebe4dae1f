"""Compare two result sets of the benchmark, metric by metric and workload by workload.

    python3 bench/compare.py parent.jsonl change.jsonl

Both files are written by bench/series.py (untraced runs); runs are paired
by (workload, seed). For every end-to-end metric of BENCHMARK.json and every
workload the verdict is one of:

* improved   - the change wins at least 9/10 of the pairs (ties count for
               neither side) and the medians differ, in the better direction,
               by more than the parent's interquartile distance;
* unresolved - the parent's own spread (interquartile distance / median) is
               wider than the metric's bound, and not every change run beats
               every parent run;
* worse      - the change's median is worse than the parent's by more than
               the bound (a share of the parent's median);
* no worse   - otherwise.

Exit status 1 when any pair of (metric, workload) is worse, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(path: str):
    runs = {}
    with open(path) as stream:
        for line in stream:
            if line.strip():
                row = json.loads(line)
                runs[(row["workload"], row["seed"])] = row["result"]
    return runs


def verdict(parent, change, better: str, bound: float):
    """Classify paired samples (same order) of one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    spread = (q3 - q1) / p_med if p_med else float("inf")
    gain = sign * (c_med - p_med)
    if wins >= 0.9 * len(parent) and gain > q3 - q1:
        return "improved", p_med, c_med, spread
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", p_med, c_med, spread
    if p_med and -gain / abs(p_med) > bound:
        return "worse", p_med, c_med, spread
    return "no worse", p_med, c_med, spread


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = _load(args.parent), _load(args.change)
    keys = sorted(set(parent) & set(change))
    any_worse = False
    print(f"{'workload':18s} {'metric':18s} {'pairs':>5s} {'parent':>12s} {'change':>12s} "
          f"{'spread':>7s} {'bound':>5s}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds = [seed for name, seed in keys if name == workload]
        if len(seeds) < 2:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [parent[(workload, s)]["metrics"][name]["value"] for s in seeds]
            c = [change[(workload, s)]["metrics"][name]["value"] for s in seeds]
            label, p_med, c_med, spread = verdict(p, c, metric["better"], metric["bound"])
            any_worse |= label == "worse"
            print(f"{workload:18s} {name:18s} {len(seeds):5d} {p_med:12.6g} {c_med:12.6g} "
                  f"{spread:7.4f} {metric['bound']:5.2f}  {label}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
