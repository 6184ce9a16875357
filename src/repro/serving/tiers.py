"""Tiered schedule cache: a TTL/LRU hot tier over the persistent cache.

The serving layer answers most requests without touching the tuner, and at
high request rates even the :class:`~repro.cache.cache.ScheduleCache` is
too slow a front line — a disk-backed hit re-reads counters and flushes
the store file. :class:`TieredCache` adds a *hot tier*: a small,
thread-safe, in-memory map with both TTL expiry (entries go stale — a
redeployed cache directory or a re-warmed store must win eventually) and
LRU size eviction. Lookups resolve::

    hot tier (TTL + LRU)  ->  ScheduleCache LRU  ->  JSON store  ->  miss

and every resolution is labelled with the tier that served it
(``"hot"`` / ``"memory"`` / ``"disk"`` / ``None``), which is what feeds
the per-tier hit counters in the metrics registry and the
``repro cache stats`` tier breakdown.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.cache.cache import ScheduleCache
from repro.cache.store import CacheEntry
from repro.obs import LRUCache, MetricsRegistry

__all__ = ["HotTier", "TieredCache", "TIERS"]

#: Tier labels, fastest first. ``None`` marks a miss.
TIERS = ("hot", "memory", "disk")


class HotTier:
    """Thread-safe in-memory map with TTL expiry and LRU size eviction.

    TTL expiry over an :class:`~repro.obs.memo.LRUCache` of
    ``signature -> (entry, inserted_at)``, which owns recency and counters.

    Args:
        capacity: Maximum live entries (0 disables the tier).
        ttl: Seconds an entry stays servable after insertion; ``None``
            disables expiry. Expired entries are treated as misses and
            dropped on contact (plus bulk-dropped by :meth:`purge`).
        clock: Monotonic time source, injectable for the TTL tests.
    """

    def __init__(
        self,
        capacity: int = 256,
        ttl: float | None = 300.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if ttl is not None and ttl <= 0:
            raise ValueError(f"hot-tier ttl must be > 0 or None, got {ttl}")
        self._memo = LRUCache("serve.hot", capacity=capacity)
        self.capacity = capacity
        self.ttl = ttl
        self._clock = clock
        self.expirations = 0

    @property
    def evictions(self) -> int:
        return self._memo.evictions

    def _expired(self, inserted_at: float) -> bool:
        return self.ttl is not None and self._clock() - inserted_at > self.ttl

    def get(self, signature: str) -> CacheEntry | None:
        with self._memo.lock:
            item = self._memo.peek(signature)
            if item is not None and self._expired(item[1]):
                self._memo.pop(signature)
                self.expirations += 1
            item = self._memo.get(signature)
        return None if item is None else item[0]

    def put(self, signature: str, entry: CacheEntry) -> None:
        self._memo.put(signature, (entry, self._clock()))

    def purge(self) -> int:
        """Drop every expired entry; returns how many were dropped."""
        with self._memo.lock:
            stale = [
                sig
                for sig, (_, inserted_at) in self._memo.items()
                if self._expired(inserted_at)
            ]
            for sig in stale:
                self._memo.pop(sig)
            self.expirations += len(stale)
            return len(stale)

    def clear(self) -> None:
        """Drop every entry and zero the eviction/expiration counters."""
        with self._memo.lock:
            self._memo.clear()
            self.expirations = 0

    def __len__(self) -> int:
        return len(self._memo)

    def __contains__(self, signature: str) -> bool:
        # contact-free check (no recency refresh, but expiry still applies)
        item = self._memo.peek(signature)
        return item is not None and not self._expired(item[1])


class TieredCache:
    """Hot tier + :class:`ScheduleCache`, with per-tier telemetry.

    Args:
        cache: The persistent (or memory-only) schedule cache underneath;
            ``None`` builds a memory-only one.
        capacity/ttl/clock: Hot-tier knobs (see :class:`HotTier`).
        telemetry: Optional :class:`~repro.obs.metrics.MetricsRegistry`;
            when present every lookup increments ``serve.cache.hits.<tier>``
            or ``serve.cache.misses``.
    """

    def __init__(
        self,
        cache: ScheduleCache | None = None,
        capacity: int = 256,
        ttl: float | None = 300.0,
        telemetry: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.cache = cache if cache is not None else ScheduleCache(path=None)
        self.hot = HotTier(capacity=capacity, ttl=ttl, clock=clock)
        self.telemetry = telemetry

    def _count(self, tier: str | None) -> None:
        if self.telemetry is None:
            return
        if tier is None:
            self.telemetry.counter("serve.cache.misses").inc()
        else:
            self.telemetry.counter(f"serve.cache.hits.{tier}").inc()

    # -- keys ----------------------------------------------------------------

    def signature_for(self, chain, gpu, variant: str = "mcfuser") -> str:
        return self.cache.signature_for(chain, gpu, variant)

    # -- lookup / store ------------------------------------------------------

    def lookup(self, signature: str) -> tuple[CacheEntry | None, str | None]:
        """Resolve a precomputed signature; returns ``(entry, tier)``.

        A hot hit never touches the underlying cache (no disk flush, no
        LRU churn); hits found below are promoted into the hot tier.
        """
        entry = self.hot.get(signature)
        if entry is not None:
            self._count("hot")
            return entry, "hot"
        entry, tier = self.cache.lookup(signature)
        if entry is not None:
            self.hot.put(signature, entry)
        self._count(tier)
        return entry, tier

    def get(self, chain, gpu, variant: str = "mcfuser"):
        """Chain-level lookup (see :meth:`lookup`); returns ``(entry, tier)``."""
        return self.lookup(self.signature_for(chain, gpu, variant))

    def put(self, chain, gpu, report, signature: str | None = None) -> CacheEntry | None:
        """Write-through store: persistent cache first, then the hot tier.

        ``signature`` overrides the exact workload key (bucketed entries
        are stored under their bucket-generic signature).
        """
        entry = self.cache.put(chain, gpu, report, signature=signature)
        if entry is not None:
            self.hot.put(entry.signature, entry)
        return entry

    def schedule_for(self, entry: CacheEntry, chain):
        return self.cache.schedule_for(entry, chain)

    # -- maintenance ---------------------------------------------------------

    def stats(self) -> dict:
        """Tier sizes + underlying cache counters (JSON-able)."""
        base = self.cache.stats()
        return {
            "hot_entries": len(self.hot),
            "hot_capacity": self.hot.capacity,
            "hot_ttl": self.hot.ttl,
            "hot_evictions": self.hot.evictions,
            "hot_expirations": self.hot.expirations,
            "memory_entries": base.memory_entries,
            "disk_entries": base.disk_entries,
            "hits": base.hits,
            "misses": base.misses,
            "path": base.path,
        }

    def clear(self) -> None:
        self.hot.clear()
        self.cache.clear()
