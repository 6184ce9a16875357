"""Session: the long-lived resources a :class:`SessionConfig` implies.

A :class:`~repro.config.SessionConfig` is pure data — every knob, nothing
alive. A :class:`Session` turns it into the working set those knobs call
for, created lazily and shared across everything the session runs:

* the persistent :class:`~repro.cache.cache.ScheduleCache` (when
  ``config.cache.enabled``),
* the persistent :class:`~repro.search.cost_model.LearnedCostModel` +
  measurement dataset (when the config asks for cost-model guidance),
* a :class:`~repro.obs.metrics.MetricsRegistry`,
* the process tracer (enabled when ``config.obs.trace``),
* and, on first use, a :class:`~repro.serving.service.CompileService`.

So instead of hand-wiring five objects::

    cache = ScheduleCache(default_cache_dir())
    model = LearnedCostModel.load(...) or LearnedCostModel(...)
    tuner = MCFuserTuner(A100, cache=cache, cost_model=model, config=config)
    report = tuner.tune(chain)

callers write::

    from repro import Session, SessionConfig

    session = Session(SessionConfig.make(seed=3, strategy="evolutionary"))
    report = session.tune(chain)            # chain-level
    result = session.compile("bert-small")  # model-level

The session is a context manager; ``close()`` shuts down the compile
service (if one was started) and persists the cost model (if one learned
anything new).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.config import SessionConfig
from repro.gpu.specs import GPUSpec, by_name
from repro.obs import MetricsRegistry, enable_tracing, get_tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache.cache import ScheduleCache
    from repro.frontend.executor import E2EResult
    from repro.ir.chain import ComputeChain
    from repro.search.cost_model import LearnedCostModel
    from repro.search.tuner import MCFuserTuner, TuneReport
    from repro.serving.service import CompileService

__all__ = ["BatchResult", "Session"]


@dataclass
class BatchResult:
    """Outcome of one :meth:`Session.tune_all` call.

    Attributes:
        reports: One :class:`TuneReport` per *input* chain, aligned with the
            input order; duplicated shapes share the same report object.
        signatures: The workload signature of each input chain.
        unique: Number of distinct signatures actually scheduled.
        duplicates: Input chains that rode along on another chain's tuning.
        cache_hits: Unique signatures served from the cache (zero search).
        tuning_seconds: Total simulated tuning cost across unique tunes
            (cache hits contribute zero).
    """

    reports: list["TuneReport"]
    signatures: list[str]
    unique: int
    duplicates: int
    cache_hits: int
    tuning_seconds: float


#: Sentinel for "attribute not materialized yet" (``None`` is a real value:
#: e.g. the cache of a ``cache.enabled=False`` session).
_LAZY = object()


class Session:
    """Owns the shared resources of one tuning/serving session.

    Args:
        config: The session's :class:`~repro.config.SessionConfig`;
            ``None`` means :meth:`SessionConfig.default` (defaults with
            ``REPRO_*`` environment overrides applied).
        gpu: A live :class:`~repro.gpu.specs.GPUSpec` for custom hardware
            descriptions; ``None`` resolves the registered spec named by
            ``config.gpu``.

    Every heavy resource is created lazily on first access and cached on
    the session, so a ``Session`` is cheap to construct and only pays for
    what the caller actually touches. Resources are *owned* singletons: every
    tuner the session hands out and its compile service (which runs
    :meth:`tune_all` and :meth:`compile`) share the same cache, cost
    model, and metrics registry — that sharing is the point of having a
    session.
    """

    def __init__(
        self, config: SessionConfig | None = None, gpu: "GPUSpec | None" = None
    ) -> None:
        self.config = config if config is not None else SessionConfig.default()
        if not isinstance(self.config, SessionConfig):
            raise ValueError(
                f"config must be a SessionConfig, got {type(self.config).__name__}"
            )
        self.gpu = gpu if gpu is not None else by_name(self.config.gpu)
        self._cache = _LAZY
        self._cost_model = _LAZY
        #: The session's metrics registry (shared with its service).
        self.metrics = MetricsRegistry()
        self._service: "CompileService | None" = None
        if self.config.obs.trace:
            enable_tracing()

    # -- owned resources ------------------------------------------------------

    @property
    def cache(self) -> "ScheduleCache | None":
        """The persistent schedule cache (``None`` when disabled)."""
        if self._cache is _LAZY:
            if self.config.cache.enabled:
                from repro.cache.cache import ScheduleCache

                self._cache = ScheduleCache(self.config.cache.resolved_dir())
            else:
                self._cache = None
        return self._cache

    @property
    def cost_model(self) -> "LearnedCostModel | None":
        """The persistent learned cost model + dataset pair.

        Materialized only when the config asks for guidance
        (``search.cost_model`` or ``search.measure_topk > 0``); restored
        from the cache directory's snapshot when one exists so learning
        accumulates across processes.
        """
        if self._cost_model is _LAZY:
            if self.config.search.cost_model or self.config.search.measure_topk > 0:
                from repro.search.cost_model import (
                    LearnedCostModel,
                    MeasurementDataset,
                    default_dataset_path,
                    default_model_path,
                )

                directory = self.config.cache.resolved_dir()
                dataset = MeasurementDataset(default_dataset_path(directory))
                model = LearnedCostModel.load(
                    default_model_path(directory), dataset=dataset
                )
                if model is None:
                    model = LearnedCostModel(
                        dataset, seed=self.config.search.seed
                    )
                self._cost_model = model
            else:
                self._cost_model = None
        return self._cost_model

    @property
    def tracer(self):
        """The process tracer (a no-op tracer unless ``obs.trace`` or a
        caller enabled tracing)."""
        return get_tracer()

    @property
    def service(self) -> "CompileService":
        """The session's compile service, started on first access."""
        if self._service is None:
            from repro.serving.service import CompileService

            self._service = CompileService(
                self.gpu,
                cache=self.cache,
                telemetry=self.metrics,
                cost_model=self.cost_model,
                config=self.config,
            )
        return self._service

    # -- the work -------------------------------------------------------------

    def tuner(self) -> "MCFuserTuner":
        """A fresh tuner wired to the session's cache and cost model."""
        from repro.search.tuner import MCFuserTuner

        return MCFuserTuner(
            self.gpu,
            cache=self.cache,
            cost_model=self.cost_model,
            config=self.config,
        )

    def tune(self, chain: "ComputeChain") -> "TuneReport":
        """Tune one compute chain under the session config."""
        return self.tuner().tune(chain)

    def tune_all(self, chains: "Sequence[ComputeChain]") -> BatchResult:
        """Tune many chains through :attr:`service`, once per signature.

        Every chain is submitted up front: duplicates coalesce onto one
        tune (or hit the service's tiered cache), distinct shapes tune
        concurrently on ``config.serve.workers`` threads, and no submit is
        load-shed. Returns a :class:`BatchResult` whose ``reports`` align
        with ``chains``; duplicated shapes share the first ticket's report
        object. Deterministic: worker scheduling never affects which
        schedule a signature gets.
        """
        results = [ticket.result() for ticket in self.service.submit_all(chains)]
        by_sig: dict[str, "TuneReport"] = {}
        for result in results:
            by_sig.setdefault(result.signature, result.report)
        unique = list(by_sig.values())
        return BatchResult(
            reports=[by_sig[result.signature] for result in results],
            signatures=[result.signature for result in results],
            unique=len(unique),
            duplicates=len(chains) - len(unique),
            cache_hits=sum(1 for r in unique if r.cache_hit),
            tuning_seconds=sum(r.tuning_seconds for r in unique),
        )

    def compile(self, model, strategy: str = "mcfuser+relay") -> "E2EResult":
        """Compile a whole model (a :class:`~repro.ir.graph.Graph` or a
        model-level workload name) end to end under the session config.
        The MCFuser strategies tune its MBCI sub-graphs through
        :attr:`service` (coalescing + tiered cache + telemetry)."""
        from repro.frontend.executor import compile_model

        service = self.service if strategy.startswith("mcfuser") else None
        return compile_model(
            model, self.gpu, strategy, service=service, config=self.config
        )

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Shut down the service (if started) and persist what learned.

        Idempotent. The cost model is refit from any new measurements and
        snapshotted next to the cache so the next session warm-starts.
        """
        if self._service is not None:
            self._service.close()
            self._service = None
        model = self._cost_model
        if model is not _LAZY and model is not None:
            from repro.search.cost_model import default_model_path

            model.fit()
            if model.ready:
                model.save(
                    default_model_path(self.config.cache.resolved_dir())
                )

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"Session(gpu={self.gpu.name!r}, "
            f"variant_key={self.config.variant_key!r}, "
            f"hash={self.config.content_hash()[:8]})"
        )
