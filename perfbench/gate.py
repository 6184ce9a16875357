"""Steadiness and determinism gate for the benchmark.

Usage (from the repository root)::

    python3 perfbench/gate.py --workload tune-cold --seeds 1-10
    python3 perfbench/gate.py --workload all --seeds 7,7   # same seed twice

Runs ``run.py`` once per listed seed and workload (untraced), then prints
for every end-to-end metric its median and its spread: the distance
between the first and third quartile as a share of the median (what
``statistics.quantiles(values, n=4)`` gives), next to the metric's bound
in ``BENCHMARK.json``. A spread must stay under its bound, and under a
third of it to count as steady. Runs of the same
seed must agree bit for bit on every ``sim_*`` metric, and every run must
report ``correct``. Exits non-zero when any of these fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    print(proc.stdout.splitlines()[-2], flush=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = (
        [w["name"] for w in bench["workloads"]]
        if args.workload == "all" else [args.workload]
    )
    seeds = parse_seeds(args.seeds)
    ok = True
    for workload in names:
        results = [(seed, run(workload, seed, bench["run_seconds"])) for seed in seeds]
        for seed, result in results:
            if not result["correct"]:
                print(f"FAIL {workload} seed {seed}: not correct "
                      f"({result['failed']}/{result['attempted']} failed)")
                ok = False
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for _, r in results]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
            else:
                spread = 0.0
            verdict = "steady" if spread < bound / 3 else "within" if spread <= bound else "UNSTEADY"
            if verdict == "UNSTEADY":
                ok = False
            print(f"{workload:<11} {metric:<22} median={med:<12.6g} spread={spread:.4f} "
                  f"bound={bound} {verdict}")
            if metric.startswith("sim_"):
                by_seed: dict[int, set] = {}
                for (seed, _), value in zip(results, values):
                    by_seed.setdefault(seed, set()).add(value)
                for seed, seen in by_seed.items():
                    if len(seen) > 1:
                        print(f"FAIL {workload} {metric}: seed {seed} not bit-identical: {sorted(seen)}")
                        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
