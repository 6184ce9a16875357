"""Engine streaming pipeline: laziness, incremental funnel, single-build."""

import pytest

from repro.config import SessionConfig
from repro.gpu.specs import A100
from repro.ir.chain import gemm_chain
from repro.search.engine import pipeline as pipeline_mod
from repro.search.engine.pipeline import PruningFunnel, stream_space
from repro.search.space import SearchSpace, generate_space
from repro.search.tuner import MCFuserTuner
from repro.tiling import schedule as schedule_mod


def _chain(name="eng"):
    return gemm_chain(1, 256, 256, 128, 128, name=name)


class TestStreaming:
    def test_nothing_enumerated_up_front(self):
        space = generate_space(_chain("lazy1"), A100)
        assert space._candidates is None
        assert not space.funnel.complete
        # The analytic funnel head is only filled once the pipeline starts.
        assert space.funnel.after_rule3 == 0

    def test_partial_iteration_is_partial(self):
        space = generate_space(_chain("lazy2"), A100)
        pairs = []
        for pair in space.iter_pairs():
            pairs.append(pair)
            if len(pairs) == 5:
                break
        assert not space.funnel.complete
        assert space.funnel.after_rule4 == 5
        # Abandoned iteration loses nothing: a fresh iterator replays the
        # same prefix in the same order.
        replay = []
        for pair in space.iter_pairs():
            replay.append(pair)
            if len(replay) == 5:
                break
        assert [c.key for c, _ in pairs] == [c.key for c, _ in replay]

    def test_pairs_carry_built_schedules(self):
        space = generate_space(_chain("lazy3"), A100)
        for cand, sched in space.iter_pairs():
            assert space.schedule_for(cand) is sched
            break

    def test_streamed_matches_eager_order(self):
        chain = _chain("lazy4")
        streamed = [c.key for c, _ in generate_space(chain, A100).iter_pairs()]
        materialized = [c.key for c in generate_space(chain, A100).candidates]
        assert streamed == materialized

    def test_funnel_completes_on_materialize(self):
        space = generate_space(_chain("lazy5"), A100)
        stats = space.stats
        assert space.funnel.complete
        assert stats.after_rule4 == len(space)
        assert stats.after_rule3 >= stats.after_rule4

    def test_stats_match_pre_engine_funnel(self):
        # The Fig. 7 configuration; counts pinned by the eager implementation.
        chain = gemm_chain(1, 1024, 1024, 512, 512, name="eng-fig7")
        stats = stream_space(chain, A100).stats
        assert stats.expressions == 26
        assert stats.classes_rule1 == 3
        assert stats.classes_rule2 == 2
        assert stats.original == 26 * 64 * 64 * 32 * 32

    def test_max_candidates_materializes_and_caps(self):
        space = generate_space(_chain("lazy6"), A100, max_candidates=20)
        assert len(list(space.iter_pairs())) == 20
        assert len(space) == 20


class TestFrozenSpace:
    def test_candidates_tuple_immutable(self):
        space = generate_space(_chain("frz1"), A100)
        assert isinstance(space.candidates, tuple)
        with pytest.raises(AttributeError):
            space.candidates = ()

    def test_contains_uses_cached_keys(self):
        space = generate_space(_chain("frz2"), A100)
        cand = space.candidates[0]
        assert space.contains(cand)
        assert space._keys is space._keys  # cached_property: one computation

    def test_from_candidates_eager(self):
        base = generate_space(_chain("frz3"), A100)
        sub = SearchSpace.from_candidates(
            base.chain, base.gpu, base.candidates[:10], base.stats, base.tile_options
        )
        assert len(sub) == 10
        assert sub.contains(base.candidates[0])
        assert not sub.contains(base.candidates[-1])
        assert sub.funnel.complete


class TestSingleBuild:
    """Regression for the historical build-twice waste: ``generate_space``
    built one schedule per candidate for validation and threw it away, then
    the tuner rebuilt every schedule it estimated or measured."""

    @pytest.fixture
    def counters(self, monkeypatch):
        counts = {"pipeline": 0, "space": 0}
        real = schedule_mod.build_schedule

        def counting(where):
            def _build(*args, **kwargs):
                counts[where] += 1
                return real(*args, **kwargs)

            return _build

        # Each consumer imported the symbol into its own namespace.
        monkeypatch.setattr(pipeline_mod, "build_schedule", counting("pipeline"))
        import repro.search.space as space_mod

        monkeypatch.setattr(space_mod, "build_schedule", counting("space"))
        return counts

    def test_schedules_built_once_per_candidate(self, counters):
        chain = gemm_chain(1, 256, 256, 64, 64, name="onebuild")
        report = MCFuserTuner(A100, config=SessionConfig.make(seed=0)).tune(chain)
        enumerated = counters["pipeline"]
        # Validation enumerates more points than survive Rule 4.
        assert enumerated >= report.pruning.after_rule3
        # The search (estimates + measurements + the final best schedule)
        # rebuilt nothing: every schedule came from the pipeline's build.
        assert counters["space"] == 0
        assert report.search.num_estimates > 0

    def test_space_rebuilds_only_on_optimize_mismatch(self, counters):
        chain = gemm_chain(1, 256, 256, 64, 64, name="onebuild2")
        space = generate_space(chain, A100)
        cand = space.candidates[0]
        before = counters["space"]
        space.schedule_for(cand, optimize=True)  # pipeline-built, cached
        assert counters["space"] == before
        space.schedule_for(cand, optimize=False)  # different flag: fresh build
        assert counters["space"] == before + 1
