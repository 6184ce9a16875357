"""Serving layer: the in-process fusion compile service.

Composes the cache (PR 1) and the parallel search engine (PR 2) into a
concurrent serving story: signature-first admission, request coalescing,
a TTL/LRU hot cache tier, and priority lanes with load shedding, all
counted in a :class:`~repro.obs.metrics.MetricsRegistry`. See :mod:`repro.serving.service` for the full design
and ``docs/architecture.md`` ("Serving layer") for the diagram.
"""

from repro.serving.service import (
    LANES,
    CompileService,
    ModelTicket,
    QueueFull,
    ServeResult,
    ServeTicket,
    ServiceClosed,
)
from repro.serving.tiers import TIERS, HotTier, TieredCache

__all__ = [
    "LANES",
    "TIERS",
    "CompileService",
    "ModelTicket",
    "QueueFull",
    "ServeResult",
    "ServeTicket",
    "ServiceClosed",
    "HotTier",
    "TieredCache",
]
