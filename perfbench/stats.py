"""Summary statistics and span roll-ups shared by the benchmark's processes.

Pure stdlib + numpy; imports nothing from ``repro`` so the parent process
(which only spawns and aggregates) stays light.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

#: Samples a tail percentile must leave beyond it (choosing-metrics rule),
#: and the percentiles it is chosen from. The grid is coarse so that each
#: workload's op count stays inside one step on a host whose speed drifts
#: by half: tune-cold and model-exec report p50, serve-warm p98 and
#: tune-warm p99 on a 2-core Xeon.
TAIL_BEYOND = 10
TAIL_GRID = (50, 90, 95, 98, 99, 99.9)


def median(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def tail(values) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile of :data:`TAIL_GRID`
    with at least :data:`TAIL_BEYOND` samples beyond it (the median when
    there are too few samples for any)."""
    n = len(values)
    if n == 0:
        return float("nan"), 50.0
    pct = max(
        (p for p in TAIL_GRID if n * (1 - p / 100) >= TAIL_BEYOND), default=50
    )
    return float(np.percentile(values, pct)), float(pct)


def chunked_rate(ms: list[float], parts: int) -> float:
    """Ops per second, as the median over ``parts`` equal consecutive
    slices of the ops (each slice: its ops over its summed time), so one
    stalled stretch of a run does not move the figure."""
    slices = [s for s in np.array_split(np.asarray(ms), max(parts, 1)) if len(s)]
    return median([len(s) / (s.sum() / 1e3) for s in slices])


def geomean(values) -> float:
    values = [v for v in values if v > 0 and math.isfinite(v)]
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def self_seconds(spans) -> dict[str, float]:
    """``span_id -> self time``: a span's duration minus the part of its
    interval that its children cover (overlapping children counted once)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = s.duration - covered
    return out


def rollup(spans) -> dict[str, dict]:
    """Per span name: count, total and self milliseconds, median duration."""
    selfs = self_seconds(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    return {
        name: {
            "count": len(group),
            "total_ms": 1e3 * sum(s.duration for s in group),
            "self_ms": 1e3 * sum(selfs[s.span_id] for s in group),
            "p50_ms": 1e3 * median([s.duration for s in group]),
        }
        for name, group in sorted(by_name.items())
    }


def per_op(spans, root: str = "bench.op") -> list[list]:
    """Spans grouped by the benchmark op (``root`` span) whose trace they
    belong to, in op order."""
    by_trace = defaultdict(list)
    for s in spans:
        by_trace[s.trace_id].append(s)
    roots = sorted((s for s in spans if s.name == root), key=lambda s: s.start)
    return [by_trace[r.trace_id] for r in roots]


def op_ms(op_spans, name: str, attr: tuple[str, object] | None = None) -> float:
    """Summed milliseconds of the ``name`` spans of one op (optionally only
    those whose attribute ``attr[0]`` equals ``attr[1]``)."""
    return 1e3 * sum(
        s.duration
        for s in op_spans
        if s.name == name and (attr is None or s.attrs.get(attr[0]) == attr[1])
    )


def op_self_ms(op_spans, name: str) -> float:
    selfs = self_seconds(op_spans)
    return 1e3 * sum(selfs[s.span_id] for s in op_spans if s.name == name)
