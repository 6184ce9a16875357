"""Telemetry registry: instrument semantics, snapshots, thread safety."""

import json
import threading

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    load_snapshot,
    save_snapshot,
)


class TestCounter:
    def test_increments(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_decrease(self):
        c = Counter("c")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_concurrent_increments_are_lost_update_free(self):
        c = Counter("c")

        def hammer():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("g")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13


class TestHistogram:
    def test_streaming_stats(self):
        h = Histogram("h")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == 10.0
        assert h.min == 1.0 and h.max == 4.0
        assert h.mean == 2.5

    def test_percentiles_interpolate(self):
        h = Histogram("h")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(95) == pytest.approx(95.05)
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0

    def test_percentile_bounds(self):
        h = Histogram("h")
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_empty_percentile_is_nan(self):
        import math

        assert math.isnan(Histogram("h").percentile(50))

    def test_window_is_bounded(self):
        h = Histogram("h")
        for v in range(Histogram.WINDOW + 500):
            h.observe(float(v))
        assert h.count == Histogram.WINDOW + 500
        # the window holds only the most recent observations
        assert h.percentile(0) == 500.0

    def test_snapshot_shape(self):
        h = Histogram("h")
        h.observe(2.0)
        snap = h.snapshot()
        assert snap["count"] == 1
        assert snap["p50"] == 2.0 and snap["p95"] == 2.0
        empty = Histogram("e").snapshot()
        assert empty["count"] == 0 and empty["p50"] is None


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError, match="is a counter"):
            reg.gauge("a")

    def test_value_accessor(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(3)
        reg.gauge("g").set(7)
        assert reg.value("a") == 3
        assert reg.value("g") == 7
        reg.histogram("h").observe(1.0)
        with pytest.raises(TypeError):
            reg.value("h")
        with pytest.raises(KeyError):
            reg.value("missing")

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("serve.requests").inc(2)
        reg.gauge("serve.queue.depth").set(1)
        reg.histogram("serve.latency.warm").observe(0.001)
        snap = reg.snapshot()
        doc = json.loads(json.dumps(snap))
        assert doc["counters"]["serve.requests"] == 2
        assert doc["gauges"]["serve.queue.depth"] == 1
        assert doc["histograms"]["serve.latency.warm"]["count"] == 1
        assert json.loads(reg.to_json())["counters"]["serve.requests"] == 2

    def test_snapshots_are_monotonic_under_concurrent_writers(self):
        reg = MetricsRegistry()
        stop = threading.Event()
        seen: list[dict] = []

        def writer():
            while not stop.is_set():
                reg.counter("serve.requests").inc()
                reg.counter("serve.tunes").inc(2)

        def sampler():
            while not stop.is_set():
                seen.append(reg.snapshot()["counters"])

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads.append(threading.Thread(target=sampler))
        for t in threads:
            t.start()
        import time

        time.sleep(0.2)
        stop.set()
        for t in threads:
            t.join()
        seen.append(reg.snapshot()["counters"])
        assert len(seen) >= 2
        for before, after in zip(seen, seen[1:]):
            for name, value in before.items():
                assert after.get(name, 0) >= value


class TestSnapshotPersistence:
    def test_round_trip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("serve.requests").inc(5)
        path = tmp_path / "metrics" / "serve_metrics.json"
        written = save_snapshot(reg.snapshot(), path)
        loaded = load_snapshot(written)
        assert loaded["counters"]["serve.requests"] == 5

    def test_load_missing_returns_none(self, tmp_path):
        assert load_snapshot(tmp_path / "absent.json") is None

    def test_load_corrupt_returns_none(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert load_snapshot(path) is None
        path.write_text("[1, 2]")  # valid JSON, wrong shape
        assert load_snapshot(path) is None


class TestLabeled:
    def test_joins_parts_with_dots(self):
        from repro.obs.metrics import labeled

        assert labeled("exec.fallback", "compiled", "no-compiler") == (
            "exec.fallback.compiled.no-compiler"
        )

    def test_sanitizes_dotted_parts(self):
        from repro.obs.metrics import labeled

        # a part containing dots must not fabricate extra name segments
        assert labeled("serve.hits", "a.b") == "serve.hits.a-b"

    def test_skips_empty_parts(self):
        from repro.obs.metrics import labeled

        assert labeled("base", "", "x") == "base.x"
        assert labeled("base") == "base"

    def test_coerces_non_strings(self):
        from repro.obs.metrics import labeled

        assert labeled("bucket", 128) == "bucket.128"


class TestSharedPercentiles:
    def test_summary_matches_histogram_snapshot(self):
        from repro.obs.metrics import PERCENTILES, percentile_summary

        values = [float(i) for i in range(1, 101)]
        summary = percentile_summary(values)
        h = Histogram("h")
        for v in values:
            h.observe(v)
        snap = h.snapshot()
        for key, _ in PERCENTILES:
            assert snap[key] == summary[key]

    def test_empty_summary_is_none(self):
        # None (not NaN) so snapshots stay plain-JSON serializable; the
        # Prometheus exporter renders missing quantiles as NaN samples.
        from repro.obs.metrics import PERCENTILES, percentile_summary

        summary = percentile_summary([])
        for key, _ in PERCENTILES:
            assert summary[key] is None

    def test_window_parameter_documented_in_snapshot(self):
        h = Histogram("h", window=8)
        for v in range(100):
            h.observe(float(v))
        snap = h.snapshot()
        assert snap["window"] == 8
        assert snap["count"] == 100  # count/sum are exact, not windowed
        assert snap["p50"] >= 92.0  # percentiles come from the recent window

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            Histogram("h", window=0)

    def test_registry_histogram_window_passthrough(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", window=16)
        assert h.snapshot()["window"] == 16


class TestAtomicSnapshot:
    def test_accounting_identity_holds_in_every_snapshot(self):
        """Regression: snapshots must be cut under one lock so cross-metric
        identities hold. Writers bump ``serve.requests`` *before* an outcome
        counter; a torn snapshot could read the outcome increment without
        the request increment and show outcomes > requests."""
        reg = MetricsRegistry()
        outcomes = ("serve.hits.hot", "serve.coalesced", "serve.tunes", "serve.shed")
        stop = threading.Event()
        violations: list[dict] = []

        def writer(outcome):
            while not stop.is_set():
                reg.counter("serve.requests").inc()
                reg.counter(outcome).inc()

        def sampler():
            while not stop.is_set():
                counters = reg.snapshot()["counters"]
                served = sum(counters.get(o, 0) for o in outcomes)
                if served > counters.get("serve.requests", 0):
                    violations.append(counters)

        threads = [threading.Thread(target=writer, args=(o,)) for o in outcomes]
        threads += [threading.Thread(target=sampler) for _ in range(2)]
        for t in threads:
            t.start()
        import time

        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join()
        assert not violations, violations[0]

    def test_snapshot_under_concurrent_histogram_writers(self):
        reg = MetricsRegistry()
        stop = threading.Event()
        errors: list[Exception] = []

        def writer():
            i = 0
            while not stop.is_set():
                reg.histogram("h").observe(float(i % 50))
                i += 1

        def sampler():
            while not stop.is_set():
                try:
                    snap = reg.snapshot()["histograms"]["h"]
                    assert snap["count"] >= 0
                    json.dumps(snap)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads.append(threading.Thread(target=sampler))
        for t in threads:
            t.start()
        import time

        time.sleep(0.2)
        stop.set()
        for t in threads:
            t.join()
        assert not errors
