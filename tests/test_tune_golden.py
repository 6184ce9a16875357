"""Seeded golden gate: cold tunes reproduce checked-in reports exactly.

For a fixed seed a cold tune is a deterministic function of the chain, the
GPU and the config. Six chains (Table II G1/G2/G6, Table III S1/S8 and the
fused group of the ``gqa-32x8`` zoo model) are tuned at seeds 0 and 7 under
the ``mcfuser`` and ``chimera`` variants (``chimera`` runs with
``optimize=False``), and every report must match
``tests/golden/tune_reports.json`` field for field: the simulated best time
and tuning seconds (as float hex, so equality is bit-exact), the winning
schedule's ``describe()`` and ``pretty()``, the estimate and measurement
counts, the round count and the pruning funnel.

Any host-side optimization of space generation or search must leave this
file unchanged. Regenerate only after an intentional change of the search
itself::

    PYTHONPATH=src python tests/test_tune_golden.py --regen
"""

import dataclasses
import json
import pathlib

import pytest

from repro.config import SessionConfig
from repro.frontend.partition import partition_graph
from repro.gpu.specs import A100
from repro.ir.chain import ComputeChain
from repro.search.tuner import MCFuserTuner
from repro.workloads.registry import build_workload

GOLDEN = pathlib.Path(__file__).parent / "golden" / "tune_reports.json"

CHAINS = ("G1", "G2", "G6", "S1", "S8", "gqa-32x8")
SEEDS = (0, 7)
VARIANTS = ("mcfuser", "chimera")
CASES = [
    f"{name}/{variant}/seed{seed}"
    for name in CHAINS
    for variant in VARIANTS
    for seed in SEEDS
]


def _chain(name: str):
    workload = build_workload(name)
    if isinstance(workload, ComputeChain):
        return workload
    return partition_graph(workload, A100).subgraphs[0].chain


def tune_record(case: str) -> dict:
    """The pinned fields of one cold tune."""
    name, variant, seed = case.split("/")
    config = SessionConfig.make(variant=variant, seed=int(seed.removeprefix("seed")))
    report = MCFuserTuner(A100, config=config).tune(_chain(name))
    return {
        "best_time": report.best_time.hex(),
        "tuning_seconds": report.tuning_seconds.hex(),
        "describe": report.best_schedule.describe(),
        "pretty": report.best_schedule.pretty(),
        "num_estimates": report.search.num_estimates,
        "num_measurements": report.search.num_measurements,
        "rounds": report.search.rounds,
        "pruning": dataclasses.asdict(report.pruning),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_cold_tune_matches_golden(case, golden):
    assert tune_record(case) == golden[case]


if __name__ == "__main__":  # pragma: no cover - maintenance entry point
    import sys

    if "--regen" not in sys.argv:
        sys.exit("usage: python tests/test_tune_golden.py --regen")
    GOLDEN.write_text(
        json.dumps({case: tune_record(case) for case in CASES}, indent=1) + "\n"
    )
    print(f"wrote {len(CASES)} reports to {GOLDEN}")
