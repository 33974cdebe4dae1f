"""Run the benchmark several times per workload and summarize the spread.

    python3 bench/series.py --seeds 1-10 --out results.jsonl [--workloads a,b] [--trace 0]
    python3 bench/series.py --seeds 1-10 --out change.jsonl --pair ../parent --pair-out parent.jsonl

Each run is ``bench/run.py`` in a fresh process, one after another. Every
result line is appended to --out as {"workload", "seed", "trace", "result"}.
With --pair, every seed is also run in a second checkout (the parent) and
written to --pair-out, alternating which side runs first; feed both files to
bench/compare.py.

For each end-to-end metric the summary prints the median over the runs and
the quartile spread (Q3 - Q1, from statistics.quantiles(n=4)) as a share of
the median, next to the bound recorded in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def summarize(rows, spec) -> None:
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    by_workload = {}
    for row in rows:
        by_workload.setdefault(row["workload"], []).append(row["result"])
    for workload, results in by_workload.items():
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {len(results)} runs, all correct: {correct}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            line = f"  {name:36s} median {statistics.median(values):12.6g} {unit:14s}"
            if len(values) >= 2:
                share = spread(values)
                bound = bounds.get(name)
                line += f" spread {share:7.4f}"
                if bound:
                    verdict = "ok" if share < bound / 3 else ("within bound" if share <= bound else "TOO WIDE")
                    line += f"  bound {bound:.2f}  {verdict}"
            print(line)


def _run_once(spec, root: Path, workload: str, seed: int, trace: int) -> dict:
    command = [*spec["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True,
                          timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"workload": workload, "seed": seed, "trace": trace, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", help="comma-separated; default all in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--pair", help="root of a second checkout to run alternately")
    parser.add_argument("--pair-out", help="result file for the --pair checkout")
    args = parser.parse_args(argv)
    spec = load_spec()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    sides = [(ROOT, args.out)]
    if args.pair:
        sides.append((Path(args.pair).resolve(), args.pair_out))
    rows = []
    for name in names:
        for seed in parse_seeds(args.seeds):
            for root, out in sides if seed % 2 else sides[::-1]:
                row = _run_once(spec, root, name, seed, args.trace)
                if root == ROOT:
                    rows.append(row)
                with open(out, "a") as sink:
                    sink.write(json.dumps(row) + "\n")
                print(f"{name} seed {seed} ({root}): done", file=sys.stderr)
    summarize(rows, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
