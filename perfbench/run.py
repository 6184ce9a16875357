"""Host wall-clock benchmark of the MCFuser reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tune-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

Each workload runs in fresh processes (``worker.py``) with a fresh
``REPRO_CACHE_DIR``, one OpenMP thread and service workers pinned to at
most the host's core count. Untraced runs (``--trace 0``) set up
:data:`SETUP_SAMPLES` times and report the end-to-end metrics; traced runs
(``--trace 1``) trace every other pass over the workload's inputs and
report the per-layer metrics plus the tracing overhead. One row per
workload is printed, then the result as one JSON object on the last line. A full
record (host fingerprint, sample counts, tail percentile, span roll-up
with self times, ratio bases) is written to
``.perfbench/results/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from host import fingerprint, nproc  # noqa: E402
from stats import median  # noqa: E402

WORKLOADS = ("tune-cold", "tune-warm", "serve-warm", "model-exec")

#: Processes that time the set-up per untraced run; ``setup_s`` is their
#: median (the middle one also runs the measured phase). tune-cold's set-up
#: is the shortest (about 1 s) and the noisiest, and the cheapest to repeat.
SETUP_SAMPLES = {"tune-cold": 5, "tune-warm": 3, "serve-warm": 3, "model-exec": 3}

#: OpenMP threads of the measuring process. A parallel region waits for
#: its slowest thread, so on a shared host every stall of either core
#: stalls it: with two threads on a 2-core VM, median model-exec forwards
#: ranged 203-250 ms over five runs, with one thread 312-324 ms. OpenMP
#: scaling is therefore not measured here (see README).
OMP_THREADS = 1

#: Whole-run budget: every child must finish inside it.
BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "sim_kernel_geomean_us": "us",
}

#: Printed in every row and kept in the record, but not bounded in
#: BENCHMARK.json: their run-to-run spread on a shared host exceeds the
#: largest bound the contract allows (see README, "End-to-end metrics").
UNBOUNDED = {"op_tail_ms": "ms", "ops_per_s": "1/s"}

PER_LAYER = {
    "search.space_ms": "ms",
    "search.loop_ms": "ms",
    "search.estimates_per_tune": "count",
    "search.measurements_per_tune": "count",
    "search.candidates_per_tune": "count",
    "search.estimates_per_candidate": "ratio",
    "codegen.finalize_ms": "ms",
    "cache.put_ms": "ms",
    "sim_tuning_geomean_s": "s",
    "cache.lookup_ms": "ms",
    "cache.store_bytes": "bytes",
    "cache.hit_share": "share",
    "search.rebuild_ms": "ms",
    "serving.request_ms.bucket": "ms",
    "serving.hits.bucket": "count",
    "serving.tunes": "count",
    "serving.shed": "count",
    "serving.gen_lag_ms": "ms",
    "serving.slo_miss_share": "share",
    "codegen.run_ms.compiled": "ms",
    "codegen.run_ms.vectorized": "ms",
    "codegen.run_ms.scalar": "ms",
    "codegen.fallbacks": "count",
    "codegen.gflops": "GFLOP/s",
    "codegen.mbytes": "MB",
    "codegen.kernel_compiles": "count",
    "codegen.kernel_disk_hits": "count",
    "frontend.partition_ms": "ms",
    "frontend.compile_model_ms": "ms",
    "trace.overhead_ms": "ms",
    "fail_share": "share",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child(workload, seed, seconds, trace, mode, work, index, deadline, threads):
    """Run one worker process to completion; returns its result dict."""
    run_dir = os.path.join(work, f"{workload}-{index}")
    os.makedirs(os.path.join(run_dir, "tmp"))
    out = os.path.join(run_dir, "result.json")
    env = dict(
        os.environ,
        REPRO_CACHE_DIR=os.path.join(run_dir, "cache"),
        XDG_CACHE_HOME=os.path.join(run_dir, "xdg"),
        TMPDIR=os.path.join(run_dir, "tmp"),  # the C compiler's scratch files
        OMP_NUM_THREADS=str(OMP_THREADS),
        PYTHONHASHSEED="0",
    )
    remaining = deadline - time.monotonic()
    if remaining <= 5:
        raise BenchError("out of time before all processes ran")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--mode", mode, "--workers", str(threads),
        "--deadline", str(max(remaining - 15, 1)), "--out", out,
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        _, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} {mode} process timed out") from None
    except BaseException:  # interrupted or terminated: never leave it running
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0 or not os.path.exists(out):
        raise BenchError(f"{workload} {mode} process failed:\n{err[-3000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload, seed, seconds, trace, work, deadline, threads):
    """Aggregate one workload's processes into its metrics and record."""
    def run(mode, index):
        return child(workload, seed, seconds, trace, mode, work, index, deadline, threads)

    # Set-up-only processes run before and after the measuring one, so the
    # set-up samples span the whole run: host speed shifts within seconds.
    probes = 0 if trace else SETUP_SAMPLES[workload] - 1
    before = [run("setup", k) for k in range(probes // 2)]
    full = run("full", probes // 2)
    after = [run("setup", k) for k in range(probes // 2 + 1, probes + 1)]
    setup_samples = [p["setup_s"] for p in before + [full] + after]
    if trace:
        # A layer the workload does not exercise reads 0; one it should
        # report but could not (no spans) stays null and fails the run.
        values = {name: full["layers"].get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER
    else:
        values = dict(full["e2e"], setup_s=median(setup_samples))
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record = dict(full, setup_samples=setup_samples, metrics=metrics)
    return record


def row(workload: str, record: dict, trace: int) -> str:
    counts = dict(record["counts"], setup_s=len(record["setup_samples"]))
    shown = dict(record["metrics"])
    if not trace:
        shown.update(
            {name: {"value": record["e2e"][name], "unit": unit} for name, unit in UNBOUNDED.items()}
        )
    parts = [f"{workload:<11}"]
    for name, m in shown.items():
        value = m["value"]
        text = f"{name}={value:.6g} {m['unit']}" if value is not None else f"{name}=n/a"
        if name in counts:
            text += f" (n={counts[name]})"
        if name == "op_tail_ms":
            text += f" [p{record['tail_percentile']}]"
        parts.append(text)
    parts.append(f"failed={record['failed']}/{record['attempted']}")
    if not trace:
        parts += [f"{name}={value:.4g} share" for name, value in record["shares"].items()]
    if not trace and workload == "serve-warm":
        rungs = ", ".join(
            f"{r['rate']}/s:{'ok' if r['passed'] else 'miss'}" for r in record["rungs"]
        )
        parts.append(f"ladder[{rungs}]")
    return " | ".join(parts)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run unwinds like an interrupted one: the running worker
    # is killed and waited for, and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program to measure under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S * (len(WORKLOADS) if args.workload == "all" else 1)
    threads = min(nproc(), 2)
    host = fingerprint(ROOT, args.seed, OMP_THREADS)
    work = os.path.join(ROOT, ".perfbench", "work", f"{os.getpid()}-{time.time_ns()}")
    results_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = {}
    try:
        for name in names:
            records[name] = run_workload(
                name, args.seed, args.seconds, args.trace, work, deadline, threads
            )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    host["compiled_backend"] = all(r["compiled_backend"] for r in records.values())
    print("host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    for name, record in records.items():
        print(row(name, record, args.trace))
        record["host"] = host
        path = os.path.join(results_dir, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)

    metrics = {}
    for name, record in records.items():
        prefix = "" if len(records) == 1 else f"{name}."
        for metric, m in record["metrics"].items():
            metrics[prefix + metric] = m
    failed = sum(r["failed"] for r in records.values())
    valid = all(m["value"] is not None for m in metrics.values())
    print(json.dumps({
        "correct": failed == 0 and valid,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
