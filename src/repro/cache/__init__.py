"""Compilation cache: persistent schedule reuse.

MCFuser's headline is *rapid* tuning; this package makes repeated tuning
free. The pieces:

* :mod:`repro.cache.signature` — content hashes over (op chain, shapes,
  dtype, GPU spec, variant); the cache key everything below shares.
* :mod:`repro.cache.store`     — entry format and the versioned
  JSON-on-disk store with eviction and corruption recovery.
* :mod:`repro.cache.cache`     — :class:`ScheduleCache`, the two-level
  front door the tuner consults before any enumeration.

Batch tuning of workload lists (``repro cache warmup``) runs through the
compile service: :meth:`repro.session.Session.tune_all`.

See ``docs/architecture.md`` for where the cache sits in the pipeline.
"""

from repro.cache.cache import CacheStats, ScheduleCache, default_cache, default_cache_dir
from repro.cache.signature import (
    SIGNATURE_VERSION,
    chain_fingerprint,
    gpu_fingerprint,
    schedule_signature,
    workload_signature,
)
from repro.cache.store import SCHEMA_VERSION, CacheDecodeError, CacheEntry, PersistentStore

__all__ = [
    "SIGNATURE_VERSION",
    "SCHEMA_VERSION",
    "chain_fingerprint",
    "gpu_fingerprint",
    "workload_signature",
    "schedule_signature",
    "CacheDecodeError",
    "CacheEntry",
    "PersistentStore",
    "CacheStats",
    "ScheduleCache",
    "default_cache",
    "default_cache_dir",
]
