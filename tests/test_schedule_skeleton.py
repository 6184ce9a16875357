"""Schedule skeletons: binding tiles into a memoized skeleton is exact.

:func:`~repro.tiling.schedule.build_schedule` builds the tile-independent
part of a schedule (a :class:`~repro.tiling.schedule.ScheduleSkeleton`)
once per (chain structure, expression, ``optimize``, extent-1 loops) and
binds extents and tiles into it. These tests check that a schedule bound
from a warm skeleton — one built for a *differently sized* chain with
different tiles — is indistinguishable from one built from scratch, that
concurrent builds of one key agree, that schedules are immutable, and the
exact skeleton counts of a cold G2 tune.
"""

import dataclasses
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SessionConfig
from repro.gpu.memory import estimate_shared_memory
from repro.gpu.specs import A100
from repro.ir.chain import ComputeChain
from repro.obs import memo_stats, reset_memos
from repro.search.pruning import rule3_tile_options
from repro.search.tuner import MCFuserTuner
from repro.tiling.enumeration import all_tilings
from repro.tiling.schedule import (
    _SKELETONS,
    InvalidScheduleError,
    ScheduleSkeleton,
    build_schedule,
)
from repro.workloads.registry import build_workload, workload_names

CHAINS = {name: build_workload(name) for name in workload_names(level="chain")}
EXPRS = {name: all_tilings(chain) for name, chain in CHAINS.items()}

#: Skeleton memo traffic of one cold default-config G2 tune: 32 skeletons
#: for the candidate space plus 3 optimize=False probes of Rule 2, and a
#: hit for every other build. The CI tuning-smoke job pins the same pair.
G2_SKELETON_MISSES = 35
G2_SKELETON_HITS = 688


def observe(schedule) -> dict:
    """Everything a consumer of a schedule can read, as plain values."""
    try:
        schedule.check_valid()
        error = None
    except InvalidScheduleError as exc:
        error = str(exc)
    return {
        "pretty": schedule.pretty(),
        "statements": schedule.statements(),
        "grid_dims": schedule.grid_dims,
        "residual": schedule.residual.render(),
        "dram_read": schedule.dram_read_bytes(),
        "dram_write": schedule.dram_write_bytes(),
        "flops": schedule.total_flops(),
        "buffers": schedule.tile_buffers(),
        "shm": schedule.shm_estimate(),
        "live": {t: schedule.live_copies(t) for t in schedule.chain.tensors},
        "valid": schedule.is_valid,
        "error": error,
    }


@st.composite
def build_case(draw):
    name = draw(st.sampled_from(sorted(CHAINS)))
    chain = CHAINS[name]
    expr = draw(st.sampled_from(EXPRS[name]))
    # Rule-3 options plus the full extent, so extent-1 collapses are drawn.
    tiles = {
        loop: draw(st.sampled_from(sorted(set(rule3_tile_options(size)) | {size})))
        for loop, size in chain.loops.items()
    }
    return chain, expr, tiles, draw(st.booleans())


def donor(chain, tiles):
    """A same-structure chain twice the size (other batch and name) with
    tiles that collapse exactly the loops ``tiles`` collapses on ``chain``."""
    bigger = ComputeChain(
        "donor",
        {loop: 2 * size for loop, size in chain.loops.items()},
        chain.blocks,
        chain.tensors,
        batch=chain.batch + 1,
        dtype=chain.dtype,
    )
    donor_tiles = {
        loop: 2 * size if tiles[loop] >= size else tiles[loop]
        for loop, size in chain.loops.items()
    }
    return bigger, donor_tiles


@settings(max_examples=300, deadline=None)
@given(case=build_case())
def test_warm_skeleton_binds_like_a_cold_build(case):
    chain, expr, tiles, optimize = case
    reset_memos()
    cold = observe(build_schedule(chain, expr, tiles, optimize=optimize))

    # Warm the memo with the skeletons of neighbouring keys too (nothing
    # collapsed, everything collapsed, the other optimize flag), so a key
    # that missed one of its parts would hand back a wrong skeleton.
    reset_memos()
    other_chain, other_tiles = donor(chain, tiles)
    for flag in (not optimize, optimize):
        for tile in (1, None):
            spread = {
                loop: tile or 2 * size for loop, size in chain.loops.items()
            }
            build_schedule(other_chain, expr, spread, optimize=flag)
    build_schedule(other_chain, expr, other_tiles, optimize=optimize)
    hits = _SKELETONS.hits
    warm = build_schedule(chain, expr, tiles, optimize=optimize)
    assert _SKELETONS.hits == hits + 1
    assert observe(warm) == cold
    assert cold["shm"] == estimate_shared_memory(cold["buffers"])


def test_concurrent_builds_of_one_key_agree():
    chain = CHAINS["S1"]
    expr = EXPRS["S1"][-1]
    tiles = {loop: 16 for loop in chain.loops}
    barrier = threading.Barrier(8)
    results: list = [None] * 8
    errors: list = []

    def build(i: int) -> None:
        try:
            barrier.wait()
            results[i] = observe(build_schedule(chain, expr, tiles))
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
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
    assert all(r == results[0] for r in results)
    assert len(_SKELETONS) == 1
    assert _SKELETONS.hits + _SKELETONS.misses == 8


def test_key_ignores_sizes_batch_and_name():
    chain = CHAINS["G1"]
    expr = EXPRS["G1"][0]
    tiles = {loop: 16 for loop in chain.loops}
    build_schedule(chain, expr, tiles)
    other, other_tiles = donor(chain, tiles)
    build_schedule(other, expr, other_tiles)
    assert (_SKELETONS.misses, _SKELETONS.hits) == (1, 1)
    # Collapsing one more loop to extent 1 is a different skeleton.
    build_schedule(chain, expr, {**tiles, "h": chain.loops["h"]})
    assert _SKELETONS.misses == 2
    ((key, skeleton),) = _SKELETONS.items()[:1]
    assert isinstance(skeleton, ScheduleSkeleton)
    assert not any(isinstance(part, ComputeChain) for part in key)


def test_schedule_is_immutable():
    chain = CHAINS["G1"]
    schedule = build_schedule(chain, EXPRS["G1"][0], {loop: 16 for loop in chain.loops})
    with pytest.raises(dataclasses.FrozenInstanceError):
        schedule.grid_dims = ()
    with pytest.raises(TypeError):
        schedule.tiles["m"] = 32
    with pytest.raises(TypeError):
        schedule.extents["m"] = 1
    assert schedule.dram_read_bytes() is schedule.dram_read_bytes()
    assert schedule.tile_buffers() == schedule.tile_buffers()


def test_cold_g2_tune_skeleton_counts():
    MCFuserTuner(A100, config=SessionConfig()).tune(CHAINS["G2"])
    (stats,) = [s for s in memo_stats() if s.name == "tiling.skeleton"]
    assert (stats.misses, stats.hits) == (G2_SKELETON_MISSES, G2_SKELETON_HITS)
    assert stats.evictions == 0
