"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload wide_exact --seed 1 --seconds 10 --trace 0

The program under test is the ``spectral_tetris`` package in ``src/`` next
to this directory; nothing installed elsewhere is used. Inputs come from
``--seed`` only. One closed-loop client in this one process runs passes over
the generated instances until ``--seconds`` have gone by (the last pass is
finished), and every instance's output is checked.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, the traced
passes also making the extra probe calls outside the timed region. The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it print the same metrics for people.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

# Extra fresh interpreters that measure set-up; set-up is reported as the
# median of these and the run's own set-up.
SETUP_SAMPLES = 10
# Reference quanta timed before and after each set-up.
QUANTA = 20


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small instances, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program():
    """Import spectral_tetris from src/ in this checkout, or exit non-zero."""
    if not (SRC / "spectral_tetris" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'spectral_tetris'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import spectral_tetris

    if SRC.resolve() not in Path(spectral_tetris.__file__).resolve().parents:
        sys.exit(f"error: imported {spectral_tetris.__file__}, not the checkout's src/")
    import measure
    import workloads

    return measure, workloads


def _setup(args):
    """Import, generate and warm up; returns the normalized seconds it took,
    the modules, the instances, the pipeline and the work directory.

    A fresh interpreter lands in a slow or a fast phase of the shared host;
    in a slow one the reference quantum ran 1.75x and set-up 1.3x slower,
    since set-up is partly loading, which the neighbours slow less. Scaling
    set-up by the square root of the quantum ratio cut the spread of single
    set-ups from 21% to 7% there."""
    sys.path.insert(0, str(BENCH_DIR))
    import reference

    quanta = [reference.seconds() for _ in range(QUANTA)]
    start = time.perf_counter()
    measure, workloads = _import_program()
    if args.workload not in workloads.GENERATORS:
        sys.exit(f"error: unknown workload {args.workload!r}")
    instances = workloads.generate(args.workload, args.seed, args.tiny)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    run = workloads.pipeline(args.workload, workdir)
    measure.warm_up(instances, run)
    elapsed = time.perf_counter() - start
    quanta += [reference.seconds() for _ in range(QUANTA)]
    seconds = elapsed * math.sqrt(reference.NOMINAL_S / statistics.median(quanta))
    return seconds, measure, workloads, instances, run, workdir


def _child_setup_seconds(args) -> float:
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        command.append("--tiny")
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = _parse(argv)
    WORKDIR.mkdir(exist_ok=True)
    setup_s, measure, workloads, instances, run, workdir = _setup(args)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        check = workloads.CHECKS[args.workload]
        if args.trace:
            result = measure.traced_run(args, instances, run, check, workdir)
            trace_path = WORKDIR / f"trace-{args.workload}-seed{args.seed}.json"
            result.tracer.write(str(trace_path), result.summary)
            metrics = result.metrics
        else:
            result = measure.untraced_run(args, instances, run, check)
            setups = [setup_s] + [_child_setup_seconds(args) for _ in range(SETUP_SAMPLES)]
            metrics = dict(result.metrics)
            metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    measure.print_report(args, instances, result, metrics)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
