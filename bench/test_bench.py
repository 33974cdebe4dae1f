"""Self-test of the benchmark: python3 -m pytest bench/test_bench.py

Runs every workload at a tiny size and checks that every metric named in
BENCHMARK.json is printed with its unit, that a known-good instance set
(no instance expected to hit a budget) has failure ratio 0, that the same
seed gives identical inputs, and that the benchmark refuses to run without
the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from tracing import NULL_TRACER  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    command = [*SPEC["command"], *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace, group):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in SPEC[group]}
    assert set(result["metrics"]) == set(expected)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == expected[name]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
        assert name in done.stdout.split("{")[0]  # also printed for people


@pytest.mark.parametrize("workload", NAMES)
def test_known_good_instances_all_verify(workload, tmp_path):
    run = workloads.pipeline(workload, str(tmp_path))
    check = workloads.CHECKS[workload]
    instances = [i for i in workloads.generate(workload, 5, tiny=True) if not i.expect_cut]
    assert instances
    verdicts = [check(inst, run(inst, NULL_TRACER)) for inst in instances]
    assert verdicts == [None] * len(instances)


@pytest.mark.parametrize("workload", NAMES)
def test_same_seed_same_inputs(workload):
    def prints(seed):
        return [i.fingerprint() for i in workloads.generate(workload, seed)]

    assert prints(11) == prints(11)
    assert prints(11) != prints(12)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_spec_is_well_formed():
    import re

    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"] and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    names = [w["name"] for w in SPEC["workloads"]]
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
        assert "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names)) and all(name.fullmatch(n) for n in names)
    assert all(unit.fullmatch(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
