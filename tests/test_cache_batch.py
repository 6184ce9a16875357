"""Batch tuning through ``Session.tune_all``: signature dedup, concurrency,
queue bounds, cache interplay."""

import pytest

from repro.cache import ScheduleCache
from repro.config import SessionConfig
from repro.ir.chain import attention_chain, gemm_chain
from repro.session import Session

QUICK = dict(population_size=64, top_n=4, max_rounds=2, min_rounds=1)


def batch_session(tmp_path=None, serve_workers=2, **knobs):
    cache = dict(cache_dir=str(tmp_path)) if tmp_path else dict(cache_enabled=False)
    return Session(
        SessionConfig.make(seed=0, serve_workers=serve_workers, **cache, **QUICK, **knobs)
    )


def tune_all(chains, tmp_path=None, **knobs):
    with batch_session(tmp_path, **knobs) as session:
        return session.tune_all(chains)


class TestDedup:
    def test_duplicate_shapes_share_one_report(self):
        chains = [
            gemm_chain(1, 128, 128, 64, 64, name="layer0"),
            gemm_chain(1, 128, 128, 64, 64, name="layer1"),  # same shape
            attention_chain(4, 128, 128, 32, 32, name="attn"),
        ]
        result = tune_all(chains)
        assert result.unique == 2
        assert result.duplicates == 1
        assert len(result.reports) == 3
        # the two duplicated chains got the *same* report object
        assert result.reports[0] is result.reports[1]
        assert result.reports[2] is not result.reports[0]
        assert result.signatures[0] == result.signatures[1]

    def test_reports_align_with_input_order(self):
        g = gemm_chain(1, 128, 128, 64, 64, name="g")
        a = attention_chain(4, 128, 128, 32, 32, name="a")
        result = tune_all([a, g, a])
        assert result.reports[0].chain.name == "a"
        assert result.reports[1].chain.name == "g"
        assert result.reports[0] is result.reports[2]

    def test_empty_batch(self):
        result = tune_all([])
        assert result.reports == [] and result.unique == 0 and result.duplicates == 0


class TestConcurrency:
    def test_worker_count_does_not_change_results(self):
        chains = [
            gemm_chain(1, 128, 128, 64, 64, name="g1"),
            gemm_chain(1, 96, 96, 32, 32, name="g2"),
            attention_chain(4, 128, 128, 32, 32, name="a1"),
        ]
        serial = tune_all(chains, serve_workers=1)
        threaded = tune_all(chains, serve_workers=3)
        for s, t in zip(serial.reports, threaded.reports):
            assert s.best_candidate.key == t.best_candidate.key
            assert s.best_time == t.best_time

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            batch_session(serve_workers=0)

    def test_batch_larger_than_queue_limit_completes(self):
        """No submit of a batch is load-shed, whatever the queue bound."""
        chains = [gemm_chain(1, 96 + 16 * i, 96, 32, 32, name=f"q{i}") for i in range(3)]
        result = tune_all(chains, serve_workers=1, queue_limit=1)
        assert result.unique == 3
        assert [r.chain.name for r in result.reports] == ["q0", "q1", "q2"]
        assert all(r.best_time > 0 for r in result.reports)


class TestCacheInterplay:
    def test_batch_fills_cache_and_second_batch_hits(self, tmp_path):
        chains = [
            gemm_chain(1, 128, 128, 64, 64, name="g"),
            attention_chain(4, 128, 128, 32, 32, name="a"),
        ]
        first = tune_all(chains, tmp_path)
        assert first.cache_hits == 0
        assert first.tuning_seconds > 0
        second = tune_all(chains, tmp_path)
        assert second.cache_hits == second.unique == 2
        assert second.tuning_seconds == 0.0
        for a, b in zip(first.reports, second.reports):
            assert a.best_candidate.key == b.best_candidate.key

    def test_concurrent_writes_to_one_cache(self, tmp_path):
        """Several workers storing into one cache must not corrupt it."""
        chains = [
            gemm_chain(1, 128, 128, 64, 64, name="g1"),
            gemm_chain(1, 96, 96, 32, 32, name="g2"),
            gemm_chain(1, 96, 80, 64, 48, name="g3"),
            attention_chain(4, 128, 128, 32, 32, name="a1"),
        ]
        tune_all(chains, tmp_path, serve_workers=4)
        reopened = ScheduleCache(tmp_path)
        assert reopened.stats().disk_entries == 4
