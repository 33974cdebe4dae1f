"""Time the calls that read value sequences, for one or more source trees.

    python tools/time_reads.py src ../parent/src --rounds 5

Each round runs every tree once, in turn, in a fresh interpreter that
imports spectral_tetris from that tree; a call's figure is the best of 7
repeats of a batch, in microseconds, and the table shows each tree's
median over the rounds. The calls are the ones whose inputs repeat:

- st_ready_search of 71 copies of one unit norm on the flat M = 20
  spectrum, as equal_norm_frame feeds them;
- as_spectrum of 20 distinct values;
- integer_units of those 71 norms and 20 values;
- verify_frame of construct_untf(8, 400) against 8 copies of one int 50
  and 400 copies of one int 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

CALLS = r"""
import json, sys, timeit
sys.path.insert(0, sys.argv[1])
from fractions import Fraction as F
from spectral_tetris import construct_untf, verify_frame
from spectral_tetris.sequences import as_spectrum, integer_units, st_ready_search

norms, flat = (F(1),) * 71, [F(71, 20)] * 20
distinct = [F(k, 20) + 1 for k in range(1, 21)]
matrix = construct_untf(8, 400)
calls = {
    "st_ready_search": (lambda: st_ready_search(norms, flat), 200),
    "as_spectrum": (lambda: as_spectrum(distinct), 2000),
    "integer_units": (lambda: integer_units(norms, distinct), 1000),
    "verify_frame": (lambda: verify_frame(matrix, [50] * 8, [1] * 400), 50),
}
print(json.dumps({
    name: min(timeit.repeat(call, number=number, repeat=7)) / number * 1e6
    for name, (call, number) in calls.items()
}))
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", help="source directories that hold spectral_tetris")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    samples = {tree: [] for tree in args.trees}
    for _ in range(args.rounds):
        for tree in args.trees:
            out = subprocess.run(
                [sys.executable, "-c", CALLS, tree], check=True, capture_output=True, text=True
            )
            samples[tree].append(json.loads(out.stdout))
    names = list(samples[args.trees[0]][0])
    print("call".ljust(18) + "".join(tree.rjust(24) for tree in args.trees))
    for name in names:
        medians = [statistics.median(run[name] for run in samples[tree]) for tree in args.trees]
        print(name.ljust(18) + "".join(f"{value:22.1f}us" for value in medians))
    return 0


if __name__ == "__main__":
    sys.exit(main())
