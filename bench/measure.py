"""The timed loop, the traced run with its probes, and the metric arithmetic.

Timing covers the program's calls for one instance, from the request to the
checked result (the program's own verification included); the benchmark's
output check and the probes run outside it. Throughput is taken per pass
(instances of one pass / their summed latency) and reported as the median
over passes, so a pause that hits one pass does not move it.

Times are reference-normalized (see reference.py): right after each
instance the benchmark times one reference quantum and scales the instance's
wall time by nominal/measured quantum time. That cut the spread of pass
times from 13-18% to 3% on a shared host; the raw wall-clock throughput is
printed beside the normalized metrics.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import reference
import spectral_tetris as st
from tracing import NULL_TRACER, Tracer, self_times, span_totals
from workloads import BUDGET_CUT, Instance

LAYERS = ("sequences", "construct", "fusion", "verify", "json_io", "cli")


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    budget_cuts: int = 0
    latencies: List[float] = field(default_factory=list)
    wall_busy: float = 0.0
    untraced_passes: List[float] = field(default_factory=list)
    traced_passes: List[float] = field(default_factory=list)
    traced_cuts: List[int] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, dict] = field(default_factory=dict)
    summary: Dict[str, object] = field(default_factory=dict)
    tracer: Optional[Tracer] = None


def warm_up(instances: List[Instance], run) -> None:
    """Run the smallest instance of every family once, untimed."""
    smallest: Dict[str, Instance] = {}
    for inst in instances:
        if inst.family not in smallest or inst.n < smallest[inst.family].n:
            smallest[inst.family] = inst
    for inst in smallest.values():
        try:
            run(inst, NULL_TRACER)
        except Exception:
            pass  # the timed loop reports it


def _one_pass(instances, run, check, result: RunResult, tracer=None, probe=None) -> float:
    """Run, time and check every instance once; returns the normalized busy time."""
    spans = NULL_TRACER if tracer is None else tracer
    busy = 0.0
    cuts = 0
    for inst in instances:
        error = out = None
        if tracer is not None:
            tracer.instance = inst.ident
        start = time.perf_counter()
        try:
            with spans.span("bench.instance"):
                out = run(inst, spans)
        except Exception as failure:
            error = failure
        elapsed = time.perf_counter() - start
        result.wall_busy += elapsed
        elapsed *= reference.NOMINAL_S / reference.seconds()
        busy += elapsed
        result.latencies.append(elapsed)
        result.attempted += 1
        if error is not None:
            verdict = f"unexpected {type(error).__name__}: {error}"
        else:
            verdict = check(inst, out)
        if verdict == BUDGET_CUT:
            result.budget_cuts += 1
            cuts += 1
        elif verdict is not None:
            result.failed += 1
            if len(result.failures) < 10:
                result.failures.append(f"instance {inst.ident} ({inst.family}): {verdict}")
        if probe is not None and out is not None:
            with tracer.span("bench.probe"):
                probe(inst, out)
    if tracer is not None:
        result.traced_cuts.append(cuts)
    return busy


def _percentile_ms(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) * 1000.0


def untraced_run(args, instances, run, check) -> RunResult:
    result = RunResult()
    deadline = time.perf_counter() + args.seconds
    while not result.untraced_passes or time.perf_counter() < deadline:
        result.untraced_passes.append(_one_pass(instances, run, check, result))
    per_pass = [len(instances) / busy for busy in result.untraced_passes]
    result.metrics = {
        "throughput_per_s": {"value": statistics.median(per_pass), "unit": "instances/s"},
        "latency_p50_ms": {"value": _percentile_ms(result.latencies, 50), "unit": "ms"},
        "latency_p90_ms": {"value": _percentile_ms(result.latencies, 90), "unit": "ms"},
        "success_ratio": {
            "value": (result.attempted - result.failed - result.budget_cuts) / result.attempted,
            "unit": "ok/attempted",
        },
    }
    return result


# -- traced run -----------------------------------------------------------------------


class Probes:
    """Extra calls the traced run makes on each instance's own data."""

    def __init__(self, workload: str, tracer: Tracer, workdir: str):
        self.workload = workload
        self.tracer = tracer
        self.workdir = workdir
        self.ops: Dict[str, List[float]] = {"mul": [], "add": [], "inverse": [], "sqrt": []}
        self.terms: List[int] = []
        self.nonzeros: List[int] = []
        self.mu_heuristic: List[bool] = []
        self.exact_reports: List[bool] = []
        self.orderings: List[str] = []
        self.json_bytes: List[int] = []
        self.cli_overhead: List[float] = []
        self.cli_calls = 0

    def __call__(self, inst: Instance, out) -> None:
        span = self.tracer.span
        built = list(out.get("built", ()))
        frames = list(out.get("frames", ()))
        if self.workload == "cli_files":
            built, frames = self._cli_direct(inst, out, span)
        spectrum = inst.params.get("spectrum")
        if spectrum is not None:
            with span("sequences.mu"):
                count = st.maximal_block_number(spectrum)
            self.mu_heuristic.append(count.heuristic)
        for matrix, realized, report in frames:
            self.exact_reports.append(report.exact)
            with span("verify.orthogonality_distance"):
                st.orthogonality_distance(matrix)
            with span("verify.frame_operator"):
                st.frame_operator(matrix)
            with span("verify.sparsity"):
                st.sparsity_report(matrix, realized)
        for frame, _dims, report in out.get("fusions", ()):
            if report is not None:
                self.exact_reports.append(report.exact)
            if frame.meta.get("algorithm") == "weighted_fusion":
                self.orderings.append(frame.meta["ordering"])
        self.json_bytes += out.get("json_bytes", [])
        self.nonzeros.append(sum(matrix.nonzero_count for matrix in built))
        self._time_arithmetic(built)

    def _time_arithmetic(self, matrices) -> None:
        values = []
        for matrix in matrices:
            entries = [
                value.modulus if isinstance(value, st.ComplexRadicalEntry) else value
                for value in matrix.entries.values()
            ]
            self.terms += [len(value.terms) for value in entries]
            step = max(1, len(entries) // 8)
            values += entries[::step][:8]
        clock = time.perf_counter
        for a, b in zip(values, values[1:] + values[:1]):
            radicand, coefficient = a.terms[0]
            square = coefficient * coefficient * radicand
            t0 = clock()
            a * b
            t1 = clock()
            a + b
            t2 = clock()
            a.inverse()
            t3 = clock()
            st.RadicalScalar.sqrt(square)
            t4 = clock()
            self.ops["mul"].append(t1 - t0)
            self.ops["add"].append(t2 - t1)
            self.ops["inverse"].append(t3 - t2)
            self.ops["sqrt"].append(t4 - t3)

    def _cli_direct(self, inst: Instance, out, span):
        """The library calls a CLI job wraps, made directly on the same inputs."""
        p = inst.params
        path = os.path.join(self.workdir, f"direct{inst.ident}.json")
        start = time.perf_counter()
        frames = []
        if p["command"] == "sffr":
            with span("fusion.build"):
                frame = st.sffr(p["spectrum"], p["subspaces"], p["dim"])
            with span("verify.fusion"):
                report = st.verify_fusion(frame, p["spectrum"])
            self.exact_reports.append(report.exact)
            built = frame.generator
            encode, decode, verify = st.fusion_to_json, st.fusion_from_json, st.verify_fusion
            args = (p["spectrum"],)
        else:
            with span("construct.build"):
                if p["command"] == "untf":
                    built = st.construct_untf(p["m"], p["n"])
                else:
                    built = st.pnstc(p["norms"], p["spectrum"])
            with span("verify.frame"):
                report = st.verify_frame(built, p["spectrum"], p["norms"])
            frames.append((built, p["spectrum"], report))
            encode, decode, verify = st.matrix_to_json, st.matrix_from_json, st.verify_frame
            args = (p["spectrum"], p["norms"])
        if p["format"] == "json":
            with span("json_io.encode"):
                document = encode(frame if p["command"] == "sffr" else built)
            with span("json_io.write"):
                st.write_document(path, document)
            with span("json_io.read"):
                loaded = st.read_document(path)
            with span("json_io.decode"):
                decoded = decode(loaded)
            with span("verify.fusion" if p["command"] == "sffr" else "verify.frame"):
                verify(decoded, *args)
            self.json_bytes.append(os.path.getsize(out["path"]))
        direct = time.perf_counter() - start
        self.cli_calls += len(out["calls"])
        self.cli_overhead.append(self._last_instance_seconds("cli.run") - direct)
        return [built], frames

    def _last_instance_seconds(self, name: str) -> float:
        """Seconds in spans called name inside the instance just timed."""
        spans = self.tracer.spans
        root = len(spans) - 1
        while spans[root][0] != "bench.instance":
            root -= 1
        return sum(end - begin for span_name, begin, end, _p, _i in spans[root:]
                   if span_name == name)


def traced_run(args, instances, run, check, workdir) -> RunResult:
    result = RunResult()
    tracer = Tracer()
    probes = Probes(args.workload, tracer, workdir)
    deadline = time.perf_counter() + args.seconds
    while len(result.traced_passes) < 1 or time.perf_counter() < deadline:
        result.untraced_passes.append(_one_pass(instances, run, check, result))
        result.traced_passes.append(
            _one_pass(instances, run, check, result, tracer=tracer, probe=probes)
        )
    result.tracer = tracer
    result.metrics, result.summary = _layer_metrics(result, tracer, probes, len(instances))
    return result


def _median_us(values: List[float]) -> float:
    return statistics.median(values) * 1e6 if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _layer_metrics(result: RunResult, tracer: Tracer, probes: Probes, pass_size: int):
    spans = tracer.spans
    totals = span_totals(spans)
    count = len(result.traced_passes) * pass_size

    def per_instance_ms(name):
        return totals.get(name, 0.0) / count * 1000.0

    own = self_times(spans, "bench.instance")
    timed = sum(own.values())
    shares = {layer: _share(own.get(layer, 0.0), timed) for layer in LAYERS}
    shares["bench"] = _share(own.get("bench", 0.0), timed)
    verify_total = totals.get("verify.frame", 0.0) + totals.get("verify.fusion", 0.0)
    build_total = totals.get("construct.build", 0.0) + totals.get("fusion.build", 0.0)
    frame_total = totals.get("verify.frame", 0.0)
    cli_runs = [end - begin for name, begin, end, _p, _i in spans if name == "cli.run"]

    values = {
        "exact_numeric.mul_us": (_median_us(probes.ops["mul"]), "us"),
        "exact_numeric.add_us": (_median_us(probes.ops["add"]), "us"),
        "exact_numeric.inverse_us": (_median_us(probes.ops["inverse"]), "us"),
        "exact_numeric.sqrt_us": (_median_us(probes.ops["sqrt"]), "us"),
        "exact_numeric.terms_per_entry": (_mean(probes.terms), "count"),
        "construct.build_ms": (per_instance_ms("construct.build"), "ms"),
        "construct.nonzeros": (_mean(probes.nonzeros), "count"),
        "sequences.search_ms": (per_instance_ms("sequences.search"), "ms"),
        "sequences.budget_cut_count": (_mean(result.traced_cuts), "count"),
        "sequences.mu_ms": (per_instance_ms("sequences.mu"), "ms"),
        "sequences.mu_heuristic_share": (_mean(probes.mu_heuristic), "ratio"),
        "fusion.build_ms": (per_instance_ms("fusion.build"), "ms"),
        "fusion.search_share": (_mean(o == "search" for o in probes.orderings), "ratio"),
        "verify.frame_ms": (per_instance_ms("verify.frame"), "ms"),
        "verify.fusion_ms": (per_instance_ms("verify.fusion"), "ms"),
        "verify.orthogonality_distance_ms": (per_instance_ms("verify.orthogonality_distance"), "ms"),
        "verify.orthogonality_distance_share": (
            _share(totals.get("verify.orthogonality_distance", 0.0), frame_total), "ratio"),
        "verify.frame_operator_ms": (per_instance_ms("verify.frame_operator"), "ms"),
        "verify.frame_operator_share": (
            _share(totals.get("verify.frame_operator", 0.0), frame_total), "ratio"),
        "verify.sparsity_ms": (per_instance_ms("verify.sparsity"), "ms"),
        "verify.sparsity_share": (_share(totals.get("verify.sparsity", 0.0), frame_total), "ratio"),
        "verify.exact_share": (_mean(probes.exact_reports), "ratio"),
        "verify.check_to_build_ratio": (_share(verify_total, build_total), "ratio"),
        "json_io.encode_ms": (per_instance_ms("json_io.encode"), "ms"),
        "json_io.decode_ms": (per_instance_ms("json_io.decode"), "ms"),
        "json_io.bytes": (_mean(probes.json_bytes), "bytes"),
        "json_io.write_ms": (per_instance_ms("json_io.write"), "ms"),
        "json_io.read_ms": (per_instance_ms("json_io.read"), "ms"),
        "cli.run_ms": (_mean(cli_runs) * 1000.0, "ms"),
        "cli.overhead_ms": (
            _share(sum(probes.cli_overhead), probes.cli_calls) * 1000.0, "ms"),
        "trace.overhead_ratio": (
            statistics.median(result.traced_passes) / statistics.median(result.untraced_passes),
            "ratio"),
    }
    for layer in LAYERS:
        values[f"{layer}.self_share"] = (shares[layer], "ratio")
    values["bench.self_share"] = (shares["bench"], "ratio")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    dominant = max(LAYERS, key=lambda layer: shares[layer])
    summary = {
        "traced_instances": count,
        "self_seconds": own,
        "span_seconds": totals,
        "dominant_layer": dominant,
    }
    return metrics, summary


def print_report(args, instances, result: RunResult, metrics) -> None:
    mode = "traced (per-layer)" if args.trace else "untraced (end-to-end)"
    print(f"workload {args.workload}  seed {args.seed}  {mode}")
    print(f"  pass: {len(instances)} instances; passes: {len(result.untraced_passes)} untraced, "
          f"{len(result.traced_passes)} traced; latency samples: {len(result.latencies)}")
    print(f"  wall-clock throughput (not normalized): "
          f"{result.attempted / result.wall_busy:.6g} instances/s")
    print(f"  checked: attempted {result.attempted}, failed {result.failed}, "
          f"budget cuts {result.budget_cuts}, failure ratio "
          f"{(result.failed + result.budget_cuts) / result.attempted:.4f}")
    for line in result.failures:
        print(f"  FAILED {line}")
    if result.summary:
        print(f"  dominant layer (self time): {result.summary['dominant_layer']}")
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:14.6g} {entry['unit']}")
    sys.stdout.flush()
