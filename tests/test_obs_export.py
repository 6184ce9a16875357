"""Tests for the trace/metrics exporters (`repro.obs.export`)."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import (
    Tracer,
    chrome_trace,
    load_trace_jsonl,
    prometheus_text,
    save_chrome_trace,
    save_trace_jsonl,
    trace_coverage,
    validate_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry


def _sample_tracer() -> Tracer:
    """root > (child-with-event, leaf), plus a span on a second thread."""
    tracer = Tracer()
    with tracer.span("root", model="gqa") as root:
        with tracer.span("child") as child:
            child.event("mark", n=1)
        with tracer.span("leaf"):
            pass

        def worker():
            with tracer.span("pool-item", parent=root):
                pass

        t = threading.Thread(target=worker, name="pool-0")
        t.start()
        t.join()
    return tracer


class TestChromeTrace:
    def test_empty_trace_is_valid(self):
        doc = chrome_trace([])
        assert doc["traceEvents"] == []
        validate_chrome_trace(doc)

    def test_phases_and_nesting(self):
        tracer = _sample_tracer()
        doc = chrome_trace(tracer.recorder)
        validate_chrome_trace(doc)
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"M", "B", "E", "X", "i"}
        # the root has children, so it opens a B/E pair; childless spans
        # are X completes; the span event is an instant
        by_phase = {ph: [e for e in doc["traceEvents"] if e["ph"] == ph] for ph in phases}
        assert {e["name"] for e in by_phase["B"]} == {"root"}
        assert {e["name"] for e in by_phase["X"]} == {"child", "leaf", "pool-item"}
        assert [e["name"] for e in by_phase["i"]] == ["mark"]

    def test_timestamps_rebased_and_microseconds(self):
        tracer = _sample_tracer()
        records = tracer.recorder.spans()
        doc = chrome_trace(records)
        ts = [e["ts"] for e in doc["traceEvents"] if e["ph"] != "M"]
        assert min(ts) == 0.0
        root = next(r for r in records if r.name == "root")
        root_b = next(e for e in doc["traceEvents"] if e["ph"] == "B")
        root_e = next(e for e in doc["traceEvents"] if e["ph"] == "E")
        assert root_e["ts"] - root_b["ts"] == pytest.approx(
            root.duration * 1e6, rel=1e-3, abs=0.01
        )

    def test_thread_metadata_rows(self):
        tracer = _sample_tracer()
        doc = chrome_trace(tracer.recorder)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(meta) == 2  # main thread + pool-0
        assert {e["args"]["name"] for e in meta} >= {"pool-0"}

    def test_span_ids_exported_in_args(self):
        tracer = _sample_tracer()
        doc = chrome_trace(tracer.recorder)
        child = next(e for e in doc["traceEvents"] if e.get("name") == "child")
        assert child["args"]["trace_id"] and child["args"]["parent_id"]

    def test_nonserializable_attrs_are_coerced(self):
        tracer = Tracer()
        with tracer.span("odd", obj=object(), nan=float("nan"), seq=(1, 2)):
            pass
        doc = chrome_trace(tracer.recorder)
        json.dumps(doc)  # must not raise
        args = next(e for e in doc["traceEvents"] if e.get("name") == "odd")["args"]
        assert args["seq"] == [1, 2]
        assert args["nan"] == "nan"

    def test_save_validates_and_writes(self, tmp_path):
        tracer = _sample_tracer()
        path = save_chrome_trace(tracer.recorder, tmp_path / "out" / "t.json")
        doc = json.loads(open(path, encoding="utf-8").read())
        validate_chrome_trace(doc)


class TestValidateChromeTrace:
    def test_rejects_non_dict(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])

    def test_rejects_unknown_phase(self):
        with pytest.raises(ValueError, match="unknown phase"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "Q", "name": "x", "pid": 1, "tid": 1, "ts": 0}]}
            )

    def test_rejects_missing_required_keys(self):
        with pytest.raises(ValueError, match="missing name/pid/tid"):
            validate_chrome_trace({"traceEvents": [{"ph": "X", "ts": 0, "dur": 1}]})

    def test_rejects_negative_ts(self):
        with pytest.raises(ValueError, match="bad ts"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 1,
                                  "ts": -1, "dur": 1}]}
            )

    def test_rejects_unbalanced_begin(self):
        with pytest.raises(ValueError, match="unclosed"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "B", "name": "x", "pid": 1, "tid": 1, "ts": 0}]}
            )

    def test_rejects_end_without_begin(self):
        with pytest.raises(ValueError, match="E without matching B"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "E", "name": "x", "pid": 1, "tid": 1, "ts": 0}]}
            )

    def test_rejects_x_without_dur(self):
        with pytest.raises(ValueError, match="bad dur"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0}]}
            )

    def test_rejects_end_before_begin(self):
        with pytest.raises(ValueError, match="precedes"):
            validate_chrome_trace(
                {"traceEvents": [
                    {"ph": "B", "name": "x", "pid": 1, "tid": 1, "ts": 5},
                    {"ph": "E", "name": "x", "pid": 1, "tid": 1, "ts": 3},
                ]}
            )


class TestPrometheusText:
    def test_registry_and_snapshot_agree(self):
        registry = MetricsRegistry()
        registry.counter("serve.requests").inc(3)
        registry.gauge("serve.queue.depth").set(2)
        hist = registry.histogram("serve.latency.warm")
        for v in (0.1, 0.2, 0.3, 0.4):
            hist.observe(v)
        from_registry = prometheus_text(registry)
        from_snapshot = prometheus_text(registry.snapshot())
        assert from_registry == from_snapshot

    def test_every_metric_is_exposed(self):
        registry = MetricsRegistry()
        registry.counter("serve.requests").inc()
        registry.counter("serve.hits.hot").inc()
        registry.gauge("serve.inflight").set(1)
        registry.histogram("serve.latency.cold").observe(1.5)
        text = prometheus_text(registry)
        assert "repro_serve_requests_total 1" in text
        assert "repro_serve_hits_hot_total 1" in text
        assert "repro_serve_inflight 1" in text
        for q in ("0.5", "0.9", "0.95", "0.99"):
            assert f'repro_serve_latency_cold{{quantile="{q}"}}' in text
        assert "repro_serve_latency_cold_sum 1.5" in text
        assert "repro_serve_latency_cold_count 1" in text

    def test_exposition_shape(self):
        registry = MetricsRegistry()
        registry.counter("a.b").inc()
        text = prometheus_text(registry)
        lines = text.splitlines()
        assert text.endswith("\n")
        assert lines[0].startswith("# HELP repro_a_b_total")
        assert lines[1] == "# TYPE repro_a_b_total counter"
        assert lines[2] == "repro_a_b_total 1"
        # sample lines are "name value" or 'name{labels} value'
        for line in lines:
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            assert name and value

    def test_empty_histogram_quantiles_are_nan(self):
        registry = MetricsRegistry()
        registry.histogram("h")
        text = prometheus_text(registry)
        assert 'repro_h{quantile="0.5"} NaN' in text
        assert "repro_h_count 0" in text

    def test_rejects_wrong_type(self):
        with pytest.raises(TypeError):
            prometheus_text(42)


class TestTraceJsonl:
    def test_roundtrip_from_record_list(self, tmp_path):
        tracer = _sample_tracer()
        path = save_trace_jsonl(tracer.recorder.spans(), tmp_path / "spans.jsonl")
        docs = load_trace_jsonl(path)
        assert {d["name"] for d in docs} == {"root", "child", "leaf", "pool-item"}

    def test_roundtrip_from_recorder(self, tmp_path):
        tracer = _sample_tracer()
        path = save_trace_jsonl(tracer.recorder, tmp_path / "spans.jsonl")
        assert len(load_trace_jsonl(path)) == 4


class TestTraceCoverage:
    def test_full_coverage(self):
        import time

        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                time.sleep(0.002)
            with tracer.span("b"):
                time.sleep(0.002)
        # children nearly tile the root (context-manager overhead only)
        assert trace_coverage(tracer.recorder) > 0.9

    def test_no_children_is_zero(self):
        tracer = Tracer()
        with tracer.span("lonely"):
            pass
        assert trace_coverage(tracer.recorder) == 0.0

    def test_no_roots_is_zero(self):
        assert trace_coverage([]) == 0.0

    def test_overlapping_children_not_double_counted(self):
        tracer = Tracer()
        with tracer.span("root") as root:

            def worker():
                with tracer.span("concurrent", parent=root):
                    pass

            threads = [threading.Thread(target=worker) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert trace_coverage(tracer.recorder) <= 1.0

    def test_root_name_filter(self):
        tracer = Tracer()
        with tracer.span("tune"):
            with tracer.span("search"):
                pass
        assert trace_coverage(tracer.recorder, root_name="tune") > 0
        assert trace_coverage(tracer.recorder, root_name="absent") == 0.0
