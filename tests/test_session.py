"""Tests for the Session layer: lazy resource ownership, config plumbing,
behavioral parity with hand-wired tuners, and the config-only contract of
every entry point (the old keyword knobs raise TypeError)."""

import warnings

import pytest

from repro.baselines.chimera import MCFuserChimeraBaseline
from repro.baselines.mcfuser import MCFuserBaseline
from repro.cache.cache import ScheduleCache
from repro.config import SessionConfig
from repro.experiments import serve_load
from repro.frontend.executor import compile_model
from repro.frontend.models import bert_encoder
from repro.gpu.specs import A100, by_name
from repro.ir.chain import gemm_chain
from repro.search.tuner import MCFuserTuner
from repro.serving.service import CompileService
from repro.session import Session

QUICK = dict(population_size=64, top_n=4, max_rounds=3, min_rounds=2, seed=0)


def quick_config(**extra):
    return SessionConfig.make(cache_enabled=False, **QUICK, **extra)


@pytest.fixture
def chain():
    return gemm_chain(batch=1, m=128, n=64, k=32, h=32, name="G1")


class TestConstruction:
    def test_default_config(self, monkeypatch):
        monkeypatch.delenv("REPRO_SEARCH_SEED", raising=False)
        session = Session()
        assert session.config == SessionConfig.default()
        assert session.gpu.name == by_name("a100").name

    def test_env_reaches_default_session(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEARCH_SEED", "7")
        assert Session().config.search.seed == 7

    def test_rejects_non_config(self):
        with pytest.raises(ValueError, match="SessionConfig"):
            Session(config={"seed": 3})

    def test_gpu_resolved_from_config(self):
        session = Session(SessionConfig.make(gpu="rtx3080", cache_enabled=False))
        assert session.gpu.name == by_name("rtx3080").name

    def test_explicit_gpu_wins(self):
        session = Session(SessionConfig.make(gpu="rtx3080"), gpu=A100)
        assert session.gpu is A100


class TestResourceOwnership:
    def test_cache_none_when_disabled(self):
        assert Session(quick_config()).cache is None

    def test_cache_materialized_once(self, tmp_path):
        session = Session(SessionConfig.make(cache_dir=str(tmp_path), **QUICK))
        cache = session.cache
        assert isinstance(cache, ScheduleCache)
        assert session.cache is cache  # owned singleton

    def test_cost_model_none_when_unguided(self):
        assert Session(quick_config()).cost_model is None

    def test_cost_model_materialized_when_guided(self, tmp_path):
        session = Session(
            SessionConfig.make(cache_dir=str(tmp_path), measure_topk=1, **QUICK)
        )
        model = session.cost_model
        assert model is not None
        assert session.cost_model is model

    def test_metrics_singleton(self):
        session = Session(quick_config())
        assert session.metrics is session.metrics

    def test_tuner_shares_session_resources(self, tmp_path):
        session = Session(SessionConfig.make(cache_dir=str(tmp_path), **QUICK))
        tuner = session.tuner()
        assert tuner.cache is session.cache
        assert tuner.config == session.config

    def test_service_wired_to_session(self, tmp_path):
        session = Session(
            SessionConfig.make(cache_dir=str(tmp_path), serve_workers=2, **QUICK)
        )
        try:
            service = session.service
            assert session.service is service
        finally:
            session.close()

    def test_close_idempotent(self):
        session = Session(quick_config())
        session.close()
        session.close()

    def test_context_manager_closes(self, tmp_path, chain):
        with Session(
            SessionConfig.make(cache_dir=str(tmp_path), serve_workers=2, **QUICK)
        ) as session:
            assert session.service is not None
        # service shut down; a fresh access restarts it
        assert session._service is None


class TestWork:
    def test_tune_matches_hand_wired_tuner(self, chain):
        cfg = quick_config()
        via_session = Session(cfg).tune(chain)
        direct = MCFuserTuner(A100, config=cfg).tune(chain)
        assert via_session.best_time == direct.best_time
        assert (
            via_session.best_candidate.describe() == direct.best_candidate.describe()
        )

    def test_tune_all(self, tmp_path):
        chains = [
            gemm_chain(batch=1, m=128, n=64, k=32, h=32, name="Ga"),
            gemm_chain(batch=1, m=64, n=64, k=32, h=32, name="Gb"),
        ]
        session = Session(SessionConfig.make(cache_dir=str(tmp_path), **QUICK))
        with session:
            result = session.tune_all(chains)
        assert len(result.reports) == len(chains)
        assert result.unique + result.duplicates == len(chains)

    def test_compile_model(self, tmp_path):
        session = Session(SessionConfig.make(cache_dir=str(tmp_path), **QUICK))
        result = session.compile(bert_encoder("Bert-Small", 128), strategy="relay")
        assert result.time > 0

    def test_trace_config_enables_tracing(self, tmp_path):
        from repro.obs import disable_tracing, get_tracer

        try:
            session = Session(
                SessionConfig.make(cache_dir=str(tmp_path), trace=True, **QUICK)
            )
            assert session.tracer is get_tracer()
            assert session.tracer.enabled
        finally:
            disable_tracing()


#: Every keyword the removed knob shims accepted, per entry point. Each
#: duplicated a SessionConfig field (``Session.compile``'s ``use_service``
#: picked a tune path that is now the only one). ``population_size``
#: stands for the dropped ``**tuner_kwargs`` catch-alls.
REMOVED_KEYWORDS = {
    "MCFuserTuner": (
        "variant", "population_size", "top_n", "epsilon", "max_rounds",
        "min_rounds", "seed", "strategy", "workers", "exec_backend", "verify",
        "measure_topk", "dynamic", "dynamic_loops",
    ),
    "Session.tune_all": ("max_workers",),
    "Session.compile": ("use_service",),
    "CompileService": (
        "workers", "queue_limit", "seed", "exec_backend", "tuner_kwargs",
        "measure_topk", "dynamic", "dynamic_loops",
    ),
    "CompileService.submit": (
        "variant", "strategy", "seed", "measure_workers", "tuner_kwargs",
        "measure_topk",
    ),
    "CompileService.submit_model": ("strategy", "tuner_kwargs"),
    "CompileService.prefetch": ("strategy", "tuner_kwargs"),
    "compile_model": (
        "seed", "tuner_kwargs", "search_strategy", "search_workers",
        "exec_backend", "measure_topk", "dynamic", "dynamic_loops",
    ),
    "serve_load.run": ("seed", "service_workers", "tuner_kwargs", "dynamic"),
    "MCFuserBaseline": ("population_size",),
    "MCFuserChimeraBaseline": ("population_size",),
}


def _call_with(entry: str, keyword: str) -> None:
    kw = {keyword: None}
    if entry.startswith("CompileService."):
        with CompileService(A100, config=quick_config()) as service:
            getattr(service, entry.partition(".")[2])("G1", **kw)
        return
    calls = {
        "MCFuserTuner": lambda: MCFuserTuner(A100, **kw),
        "Session.tune_all": lambda: Session(quick_config()).tune_all([], **kw),
        "Session.compile": lambda: Session(quick_config()).compile("bert-small", **kw),
        "CompileService": lambda: CompileService(A100, **kw),
        "compile_model": lambda: compile_model("bert-small", A100, "relay", **kw),
        "serve_load.run": lambda: serve_load.run(**kw),
        "MCFuserBaseline": lambda: MCFuserBaseline(**kw),
        "MCFuserChimeraBaseline": lambda: MCFuserChimeraBaseline(**kw),
    }
    calls[entry]()


class TestDeprecationShims:
    """The keyword knob shims are gone: every entry point is configured
    through ``config=`` alone, an old keyword raises :class:`TypeError`,
    and the config path emits no DeprecationWarning."""

    @pytest.mark.parametrize(
        "entry, keyword",
        [(entry, kw) for entry, kws in REMOVED_KEYWORDS.items() for kw in kws],
    )
    def test_removed_keyword_raises_type_error(self, entry, keyword):
        with pytest.raises(TypeError, match=keyword):
            _call_with(entry, keyword)

    def test_tuner_config_path_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            MCFuserTuner(A100, config=quick_config())

    def test_service_config_path_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            service = CompileService(A100, config=quick_config())
        service.close()

    def test_compile_model_config_path_is_silent(self):
        graph = bert_encoder("Bert-Small", 128)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            compile_model(graph, A100, "relay", config=quick_config())
