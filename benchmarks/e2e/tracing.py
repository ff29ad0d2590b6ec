"""In-memory spans recorded from the benchmark's side of each layer call.

A :class:`Tracer` times every call the workloads make into a layer's
public functions.  The timing itself is always on — the workloads read
their samples from ``span.seconds`` — but spans are only *kept* (id,
parent, attrs) when the tracer is enabled, so an untraced run pays two
``perf_counter`` calls per layer call and nothing else.  Kept spans are
written as JSON lines when the workload ends; nothing touches the disk
while the clock runs.

Span fields: ``id``, ``parent`` (None for the root), ``workload``,
``run`` (repetition index), ``name`` (``<layer>.<call>``), ``t0``/``t1``
(``perf_counter`` seconds) and ``attrs`` (counts: edges, supersteps,
bytes, ...).  A span's *self time* is its duration minus the part of
that interval its children cover (children may overlap — concurrent
client connections — so the cover is a union of intervals).
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional

__all__ = ["Span", "Tracer", "layer_of", "layer_table", "self_times", "validate_spans"]


class Span:
    """One timed call; a context manager handed out by :meth:`Tracer.span`."""

    __slots__ = ("tracer", "id", "parent", "name", "run", "t0", "t1", "attrs")

    def __init__(self, tracer: "Tracer", name: str, run: int, attrs: Dict[str, object]) -> None:
        self.tracer = tracer
        self.name = name
        self.run = run
        self.attrs = attrs
        self.id = 0
        self.parent: Optional[int] = None
        self.t0 = 0.0
        self.t1 = 0.0

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    def __enter__(self) -> "Span":
        self.tracer._open(self)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.t1 = time.perf_counter()
        self.tracer._close(self)

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "parent": self.parent,
            "workload": self.tracer.workload,
            "run": self.run,
            "name": self.name,
            "t0": self.t0,
            "t1": self.t1,
            "attrs": self.attrs,
        }


class Tracer:
    """Span factory with a parent stack; keeps spans only when ``enabled``."""

    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, run: int = 0, **attrs: object) -> Span:
        return Span(self, name, run, attrs)

    def _open(self, span: Span) -> None:
        if self.enabled:
            span.id = len(self.spans) + 1
            span.parent = self._stack[-1].id if self._stack else None
            self.spans.append(span)
            self._stack.append(span)

    def _close(self, span: Span) -> None:
        if self.enabled:
            self._stack.pop()

    def record(self, name: str, t0: float, t1: float, parent: Span, run: int = 0, **attrs) -> None:
        """Add a finished span under ``parent`` — for calls that complete
        concurrently (client connections) and so cannot use the stack."""
        if self.enabled:
            span = Span(self, name, run, attrs)
            span.id = len(self.spans) + 1
            span.parent = parent.id
            span.t0, span.t1 = t0, t1
            self.spans.append(span)

    def dump(self) -> List[Dict[str, object]]:
        return [span.as_dict() for span in self.spans]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _children(spans: List[Dict[str, object]]) -> Dict[int, List[Dict[str, object]]]:
    children: Dict[int, List[Dict[str, object]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    return children


def _covered(span: Dict[str, object], children: List[Dict[str, object]]) -> float:
    """Length of the union of ``children``'s intervals inside ``span``."""
    covered = 0.0
    edge = span["t0"]
    for child in sorted(children, key=lambda item: item["t0"]):
        start, stop = max(child["t0"], edge), min(child["t1"], span["t1"])
        if stop > start:
            covered += stop - start
            edge = stop
    return covered


def self_times(spans: Iterable[Dict[str, object]]) -> Dict[int, float]:
    """Self time of every span: duration minus the union of its children."""
    spans = list(spans)
    children = _children(spans)
    return {
        span["id"]: (span["t1"] - span["t0"]) - _covered(span, children.get(span["id"], ()))
        for span in spans
    }


def layer_table(spans: Iterable[Dict[str, object]], root_name: str) -> Dict[str, object]:
    """Self seconds per layer and per span name under the ``root_name`` span,
    with each one's share of that root's duration, and the attributed share
    (everything but the root's own self time).

    Sibling spans that overlap (two client connections in flight) would
    add up to more than the wall-clock they span; their subtrees are
    scaled by ``covered / summed durations`` of their parent, so every
    share is of wall-clock and the shares add up to the attributed share.
    """
    spans = list(spans)
    roots = [span for span in spans if span["name"] == root_name]
    if not roots:
        return {"wall_s": 0.0, "attributed_share": 0.0, "layers": {}, "stages": {}}
    root = roots[0]
    children = _children(spans)
    own = self_times(spans)
    wall = root["t1"] - root["t0"]
    layers: Dict[str, float] = {}
    stages: Dict[str, float] = {}
    pending = [(root, 1.0)]
    while pending:
        span, weight = pending.pop()
        if span is not root:
            seconds = own[span["id"]] * weight
            layers[layer_of(span["name"])] = layers.get(layer_of(span["name"]), 0.0) + seconds
            stages[span["name"]] = stages.get(span["name"], 0.0) + seconds
        below = children.get(span["id"], [])
        summed = sum(child["t1"] - child["t0"] for child in below)
        scale = min(1.0, _covered(span, below) / summed) if summed else 1.0
        pending.extend((child, weight * scale) for child in below)

    def shares(table: Dict[str, float]) -> Dict[str, Dict[str, float]]:
        ordered = sorted(table.items(), key=lambda item: -item[1])
        return {
            name: {"self_s": seconds, "share": seconds / wall if wall else 0.0}
            for name, seconds in ordered
        }

    return {
        "wall_s": wall,
        "attributed_share": 1.0 - own[root["id"]] / wall if wall else 0.0,
        "layers": shares(layers),
        "stages": shares(stages),
    }


def validate_spans(spans: Iterable[Dict[str, object]]) -> List[str]:
    """Structural problems of a trace (empty list = well-formed): unknown
    parents, children outside their parent, negative self times."""
    spans = list(spans)
    by_id = {span["id"]: span for span in spans}
    problems = []
    if len(by_id) != len(spans):
        problems.append("duplicate span ids")
    for span in spans:
        if span["t1"] < span["t0"]:
            problems.append(f"span {span['id']} ends before it starts")
        if span["parent"] is None:
            continue
        parent = by_id.get(span["parent"])
        if parent is None:
            problems.append(f"span {span['id']} has unknown parent {span['parent']}")
        elif span["t0"] < parent["t0"] or span["t1"] > parent["t1"]:
            problems.append(f"span {span['id']} ({span['name']}) lies outside its parent")
    for span_id, seconds in self_times(spans).items():
        if seconds < -1e-9:
            problems.append(f"span {span_id} has negative self time {seconds}")
    return problems
