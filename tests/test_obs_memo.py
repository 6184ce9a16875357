"""The one memo primitive: LRU behavior, counters, thread safety, registry,
and the codegen memos built on it."""

import sys
import threading

import pytest

from repro.codegen import program as program_mod
from repro.codegen import render_c
from repro.codegen.runtime import _KERNELS, kernel_cache_stats
from repro.ir.chain import gemm_chain
from repro.obs import LRUCache, memo_stats, reset_memos
from repro.tiling.expr import TilingExpr
from repro.tiling.schedule import build_schedule


class TestLRU:
    def test_basic_get_put(self):
        lru = LRUCache("test", capacity=4)
        e = object()
        lru.put("sig1", e)
        assert lru.get("sig1") is e
        assert lru.get("sig2") is None
        assert len(lru) == 1

    def test_eviction_is_least_recently_used(self):
        lru = LRUCache("test", capacity=2)
        lru.put("a", "A")
        lru.put("b", "B")
        lru.get("a")  # refresh a, so b is now oldest
        lru.put("c", "C")
        assert "a" in lru and "c" in lru and "b" not in lru

    def test_capacity_zero_disables(self):
        lru = LRUCache("test", capacity=0)
        lru.put("a", "A")
        assert len(lru) == 0 and lru.get("a") is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache("test", capacity=-1)


class TestCounters:
    def test_every_lookup_is_a_hit_or_a_miss(self):
        lru = LRUCache("test", capacity=3)
        keys = ["a", "b", "a", "c", "a", "d", "b", "e", "a", "a"]
        for key in keys:
            lru.get_or_compute(key, lambda: key.upper())
        for key in keys[:4]:
            lru.get(key)
        stats = lru.stats()
        assert stats.hits + stats.misses == len(keys) + 4
        assert stats.hits > 0 and stats.misses > 0

    def test_get_or_compute_counts_once_and_caches(self):
        lru = LRUCache("test", capacity=4)
        calls = []
        assert lru.get_or_compute("k", lambda: calls.append(1) or False) is False
        assert lru.get_or_compute("k", lambda: calls.append(1) or True) is False
        assert calls == [1]
        assert (lru.hits, lru.misses) == (1, 1)

    def test_compute_error_stores_nothing(self):
        lru = LRUCache("test", capacity=4)

        def boom():
            raise KeyError("nope")

        with pytest.raises(KeyError):
            lru.get_or_compute("k", boom)
        assert "k" not in lru and lru.misses == 1

    def test_eviction_increments_evictions(self):
        lru = LRUCache("test", capacity=1)
        lru.put("a", 1)
        assert lru.evictions == 0
        lru.put("b", 2)
        assert lru.evictions == 1
        assert lru.stats().entries == 1

    def test_peek_and_pop_do_not_count(self):
        lru = LRUCache("test", capacity=2)
        lru.put("a", 1)
        assert lru.peek("a") == 1 and lru.pop("a") == 1 and lru.pop("a") is None
        assert (lru.hits, lru.misses, lru.evictions) == (0, 0, 0)

    def test_clear_zeroes_counters(self):
        lru = LRUCache("test", capacity=1)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("b")
        lru.get("zz")
        lru.clear()
        assert lru.stats().entries == 0
        assert (lru.hits, lru.misses, lru.evictions) == (0, 0, 0)


class TestThreadSafety:
    def test_concurrent_get_put_stays_bounded(self):
        lru = LRUCache("test", capacity=2)
        errors: list[Exception] = []
        start = threading.Barrier(8)

        def hammer(tid: int) -> None:
            try:
                start.wait(timeout=30)
                for i in range(2000):
                    key = (tid + i) % 5
                    lru.put(key, i)
                    lru.get((key + 1) % 5)
                    assert len(lru) <= lru.capacity
            except Exception as exc:  # surfaced by the main thread below
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(8)]
        # Switch threads as often as the interpreter allows, so an unlocked
        # check-then-act inside the memo would interleave.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(lru) <= lru.capacity
        assert lru.hits + lru.misses == 8 * 2000


class TestRegistry:
    def test_live_memos_are_listed_by_name(self):
        names = {s.name for s in memo_stats()}
        for name in ("codegen.lower", "codegen.lowerable", "codegen.render",
                     "codegen.renderable", "codegen.kernel"):
            assert name in names

    def test_reset_memos_clears_every_memo(self):
        lru = LRUCache("test.reset", capacity=2)
        lru.put("a", 1)
        lru.get("a")
        reset_memos()
        (stats,) = [s for s in memo_stats() if s.name == "test.reset"]
        assert stats.entries == 0 and stats.hits == 0

    def test_kernel_cache_stats_is_a_view_of_the_memo(self):
        _KERNELS.get("absent")
        assert kernel_cache_stats().misses == _KERNELS.misses == 1


def _fresh_schedule():
    chain = gemm_chain(1, 64, 48, 32, 32, name="memo-renderable")
    return build_schedule(
        chain, TilingExpr.parse("mhnk"), {"m": 16, "n": 16, "k": 16, "h": 16}
    )


class TestCodegenMemos:
    def test_schedule_renderable_one_lookup_per_query(self):
        memo = render_c._RENDERABLE
        memo.clear()
        schedule = _fresh_schedule()
        assert render_c.schedule_renderable(schedule) is True
        assert (memo.hits, memo.misses) == (0, 1)
        assert render_c.schedule_renderable(_fresh_schedule()) is True
        assert (memo.hits, memo.misses) == (1, 1)

    def test_schedule_lowerable_one_lookup_per_query(self):
        memo = program_mod._LOWERABLE
        memo.clear()
        assert program_mod.schedule_lowerable(_fresh_schedule()) is True
        assert program_mod.schedule_lowerable(_fresh_schedule()) is True
        assert (memo.hits, memo.misses) == (1, 1)

    def test_lower_memo_rebinds_the_callers_schedule(self):
        first, second = _fresh_schedule(), _fresh_schedule()
        assert program_mod.lower_schedule(first).schedule is first
        program = program_mod.lower_schedule(second)
        assert program.schedule is second
        assert program_mod._LOWERED.hits == 1
