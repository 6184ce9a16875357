"""Observability: span tracing, metrics, memo counters, and exporters.

``repro.obs`` is the cross-cutting layer every other subsystem reports
into: the compile service opens a span per request, the tuner per tune
and per search round, the evaluator per measurement batch and candidate,
and the codegen stack per lowering/compile — all through the one
process-wide tracer returned by :func:`get_tracer`, which defaults to a
disabled no-op so the instrumentation costs (almost) nothing until
``repro trace`` / ``repro serve --trace`` turns it on.

It is also the one home of :class:`MetricsRegistry` (:mod:`.metrics`) and
of :class:`LRUCache`, the counted memo every cache layer uses
(:mod:`.memo`). The package is stdlib-only, so any module may import it.
"""

from .export import (
    TRACE_FILENAME,
    chrome_trace,
    load_trace_jsonl,
    prometheus_text,
    save_chrome_trace,
    save_trace_jsonl,
    trace_coverage,
    validate_chrome_trace,
)
from .memo import LRUCache, MemoStats, memo_stats, reset_memos
from .metrics import MetricsRegistry, get_metrics, reset_metrics, set_metrics
from .tracer import (
    DEFAULT_MAX_SPANS,
    FlightRecorder,
    Span,
    SpanRecord,
    Tracer,
    current_span,
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
    tracing_enabled,
)

__all__ = [
    "DEFAULT_MAX_SPANS",
    "TRACE_FILENAME",
    "FlightRecorder",
    "LRUCache",
    "MemoStats",
    "MetricsRegistry",
    "Span",
    "SpanRecord",
    "Tracer",
    "chrome_trace",
    "current_span",
    "disable_tracing",
    "enable_tracing",
    "get_metrics",
    "get_tracer",
    "load_trace_jsonl",
    "memo_stats",
    "prometheus_text",
    "reset_memos",
    "reset_metrics",
    "save_chrome_trace",
    "save_trace_jsonl",
    "set_metrics",
    "set_tracer",
    "trace_coverage",
    "tracing_enabled",
    "validate_chrome_trace",
]
