"""In-memory spans around the benchmark's calls into each layer.

A span is (name, start, end, parent, instance): the parent is the index of
the enclosing span (-1 at the top) and instance is the id of the generated
instance the call served. Spans are only collected when tracing is on; the
untraced run uses NULL_TRACER, whose span() is a shared no-op context.

Layer names are the package modules (``verify.frame`` belongs to ``verify``).
Spans named ``bench.*`` are the benchmark's own glue: ``bench.instance`` wraps
one timed instance, ``bench.probe`` wraps the extra per-layer calls the
traced run makes outside the timed region.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Dict, List, Optional

_NULL_CONTEXT = contextlib.nullcontext()


class _Span:
    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._record = [name, 0.0, 0.0, -1, tracer.instance]

    def __enter__(self):
        tracer = self._tracer
        record = self._record
        record[3] = tracer._stack[-1] if tracer._stack else -1
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def __exit__(self, *exc_info):
        self._record[2] = time.perf_counter()
        self._tracer._stack.pop()
        return False


class Tracer:
    """Collects spans in memory; write() dumps them once at the end."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.instance: Optional[int] = None

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def write(self, path: str, summary: Dict[str, object]) -> None:
        columns = ["name", "start", "end", "parent", "instance"]
        with open(path, "w") as stream:
            json.dump({"columns": columns, "spans": self.spans, "summary": summary}, stream)
            stream.write("\n")


class _NullTracer:
    def span(self, name: str):
        return _NULL_CONTEXT


NULL_TRACER = _NullTracer()


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: List[list], root: str) -> Dict[str, float]:
    """Seconds of self time per layer under every top-level span named root.

    A span's self time is its duration minus the durations of its direct
    children; children never overlap because the benchmark is one thread.
    """
    keep: Dict[int, bool] = {}
    child_time: Dict[int, float] = {}
    for index, (name, start, end, parent, _instance) in enumerate(spans):
        inside = name == root if parent < 0 else keep.get(parent, False)
        keep[index] = inside
        if inside and parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals: Dict[str, float] = {}
    for index, (name, start, end, _parent, _instance) in enumerate(spans):
        if keep[index]:
            own = (end - start) - child_time.get(index, 0.0)
            totals[layer_of(name)] = totals.get(layer_of(name), 0.0) + own
    return totals


def span_totals(spans: List[list]) -> Dict[str, float]:
    """Total seconds per span name (inclusive of children)."""
    totals: Dict[str, float] = {}
    for name, start, end, _parent, _instance in spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
    return totals
