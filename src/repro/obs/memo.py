"""The one bounded-memo primitive: a named, locked, counted LRU.

Every in-process memo — lowered programs, rendered kernels, lower/render
verdicts, compiled modules, loaded kernels, the schedule cache's memory
layer, the serving hot tier — is an :class:`LRUCache`. Each registers
itself (weakly, so per-instance memos leave with their owner), so
:func:`memo_stats` reports them all and :func:`reset_memos` resets them all.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

__all__ = ["LRUCache", "MemoStats", "memo_stats", "reset_memos"]

_MISSING = object()
_REGISTRY: "weakref.WeakSet[LRUCache]" = weakref.WeakSet()
_REGISTRY_LOCK = threading.Lock()


@dataclass(frozen=True)
class MemoStats:
    """Point-in-time counters of one memo (see :meth:`LRUCache.stats`)."""

    name: str
    entries: int
    capacity: int
    hits: int
    misses: int
    evictions: int


class LRUCache:
    """Bounded, thread-safe key -> value map with least-recently-used eviction.

    ``get``/``get_or_compute`` refresh recency and count one hit or miss;
    ``peek`` and ``in`` do neither. Capacity 0 disables the memo. ``None``
    is not storable (``get`` returns it for a miss). ``lock`` is re-entrant
    so an owner can make a compound check-and-drop atomic.
    """

    def __init__(self, name: str, capacity: int = 128) -> None:
        if capacity < 0:
            raise ValueError(f"LRU capacity must be >= 0, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.lock = threading.RLock()
        self._entries: OrderedDict = OrderedDict()
        self.hits = self.misses = self.evictions = 0
        with _REGISTRY_LOCK:
            _REGISTRY.add(self)

    def get(self, key):
        with self.lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(key)
            return value

    def get_or_compute(self, key, fn: Callable[[], object]):
        """The cached value for ``key``, else ``fn()`` stored and returned.

        ``fn`` runs outside the lock (it may consult other memos); an
        exception from it propagates and stores nothing.
        """
        value = self.get(key)
        if value is None:
            value = fn()
            self.put(key, value)
        return value

    def peek(self, key):
        with self.lock:
            return self._entries.get(key)

    def put(self, key, value) -> None:
        if self.capacity == 0:
            return
        with self.lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def pop(self, key):
        with self.lock:
            return self._entries.pop(key, None)

    def items(self) -> list:
        """Snapshot of ``(key, value)`` pairs, least recent first."""
        with self.lock:
            return list(self._entries.items())

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        with self.lock:
            self._entries.clear()
            self.hits = self.misses = self.evictions = 0

    def stats(self) -> MemoStats:
        with self.lock:
            return MemoStats(self.name, len(self._entries), self.capacity,
                             self.hits, self.misses, self.evictions)

    def __len__(self) -> int:
        with self.lock:
            return len(self._entries)

    def __contains__(self, key) -> bool:
        with self.lock:
            return key in self._entries


def memo_stats() -> list[MemoStats]:
    """Counters of every live memo, sorted by name."""
    with _REGISTRY_LOCK:
        memos = list(_REGISTRY)
    return sorted((m.stats() for m in memos), key=lambda s: s.name)


def reset_memos() -> None:
    """Clear every live memo and zero its counters."""
    with _REGISTRY_LOCK:
        memos = list(_REGISTRY)
    for memo in memos:
        memo.clear()
