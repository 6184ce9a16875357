"""One benchmark process: set up one workload, measure it, write a result.

Spawned by ``run.py`` in a fresh interpreter with a fresh
``REPRO_CACHE_DIR``; not meant to be run by hand. ``--mode setup`` stops
after the timed set-up (the extra set-up samples behind ``setup_s``);
``--mode full`` also runs the measured phase and the checks.
"""

import time

T_START = time.perf_counter()  # set-up time includes importing the program

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (set-up included)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_loop(workload, seconds: float, tracing, deadline: float):
    """Run ops back to back until ``seconds`` of op time and two passes
    over the workload's inputs (see ``Workload.min_ops``) are both done;
    inline checks run between ops, untimed. With tracing on, every other
    pass is traced. Returns the log and the ``(op, result)`` pairs still
    to be checked."""
    from repro.obs import get_tracer
    from workloads import OpLog, attempt

    need = 2 * workload.min_ops
    log, pending, busy, i = OpLog(), [], 0.0, 0
    while (busy < seconds or i < need) and time.perf_counter() < deadline:
        traced = tracing.select((i // workload.min_ops) % 2 == 1)
        t0 = time.perf_counter()
        with get_tracer().span("bench.op", i=i):
            result, exc = attempt(workload.op, i)
        dt = time.perf_counter() - t0
        tracing.select(False)
        busy += dt
        log.add(1e3 * dt, exc is None, traced)
        if exc is not None:
            workload.notes.setdefault("failures", []).append(
                f"op {i}: {type(exc).__name__}: {exc}"
            )
        elif workload.check_after:
            pending.append((i, result))
        else:
            check(workload, log, i, result)
        i += 1
    return log, pending


def check(workload, log, i: int, result) -> None:
    """Check op ``i``'s output; a failed check fails the op in ``log``."""
    from workloads import attempt

    passed, exc = attempt(workload.check, i, result)
    if exc is None and passed is True:
        return
    log.ok[i] = False
    workload.notes.setdefault("failures", []).append(
        f"op {i}: {type(exc).__name__}: {exc}" if exc else f"op {i}: wrong output"
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "full"), default="full")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--deadline", type=float, default=150.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    from repro.codegen import compiler_available
    from stats import chunked_rate, geomean, median, per_op, rollup, tail
    from workloads import WORKLOADS, Tracing

    deadline = T_START + args.deadline
    tracing = Tracing(args.trace == 1)
    tracing.select(True)  # traced runs also record set-up (frontend layers)
    workload = WORKLOADS[args.workload](
        args.seed, os.environ["REPRO_CACHE_DIR"], args.workers
    )
    workload.setup()
    setup_s = time.perf_counter() - T_START
    tracing.select(False)
    out = {"setup_s": setup_s, "compiled_backend": compiler_available()}
    if args.mode == "setup":
        workload.close()
        return _write(args.out, out)

    setup_spans = tracing.spans()
    tracing.on.recorder.clear()
    workload.prepare()
    if workload.closed_loop:
        log, pending = closed_loop(workload, args.seconds, tracing, deadline)
        rss_mb = peak_rss_mb()
        for i, result in pending:
            check(workload, log, i, result)
        # Up to five slices, each at least one full pass over the
        # workload's inputs (tune-cold's two table cycles: two slices).
        ops_per_s = chunked_rate(log.times(), min(5, len(log) // workload.min_ops))
        attempted, failed = len(log), log.failed()
    else:
        log = workload.measure(args.seconds, tracing)
        rss_mb = peak_rss_mb()
        checks, failures = workload.checks()
        workload.notes.setdefault("failures", []).extend(failures)
        ops_per_s = workload.ops_per_s()
        attempted = sum(r["issued"] for r in workload.rungs) + checks
        failed = sum(r["log"].failed() for r in workload.rungs) + len(failures)
    workload.close()

    ok_ms = log.times()
    tail_ms, tail_pct = tail(ok_ms)
    e2e = {
        "op_p50_ms": median(ok_ms),
        "op_tail_ms": tail_ms,
        "ops_per_s": ops_per_s,
        "peak_rss_mb": rss_mb,
        "sim_kernel_geomean_us": 1e6 * geomean(workload.sim_values()),
    }
    shares = {"fail_share": failed / max(attempted, 1)}
    if hasattr(workload, "slo_miss_share"):
        shares["slo_miss_share"] = workload.slo_miss_share(log)
    layers = {
        "fail_share": shares["fail_share"],
        "serving.slo_miss_share": shares.get("slo_miss_share", 0.0),
    }
    if args.trace:
        spans = tracing.spans()
        # Closed loops: complete pairs of passes only, so the traced and
        # the untraced ops cover the same inputs.
        paired = None
        if workload.closed_loop:
            pair = 2 * workload.min_ops
            paired = pair * (len(log) // pair)
        layers["trace.overhead_ms"] = (
            median(log.times(True, paired)) - median(log.times(False, paired))
        )
        layers.update(workload.layers(per_op(spans), log))
        if hasattr(workload, "setup_layers"):
            layers.update(workload.setup_layers(setup_spans))
        out["rollup"] = rollup(spans)
        out["setup_rollup"] = rollup(setup_spans)
        out["spans_dropped"] = tracing.on.recorder.dropped
    if hasattr(workload, "sim_tuning_values"):
        layers["sim_tuning_geomean_s"] = geomean(workload.sim_tuning_values())
    if hasattr(workload, "rungs"):
        out["rungs"] = [
            {k: v for k, v in r.items() if k != "log"}
            for r in workload.rungs
        ]
    counts = {
        "op_p50_ms": len(ok_ms),
        "op_tail_ms": len(ok_ms),
        "ops_per_s": (
            len(log) if workload.closed_loop else
            max((r for r in workload.rungs if r["passed"]), key=lambda r: r["rate"],
                default={"issued": 0})["issued"]
        ),
        "peak_rss_mb": 1,
        "sim_kernel_geomean_us": len(workload.sim_values()),
    }
    out.update(
        e2e=e2e,
        counts=counts,
        layers=layers,
        shares=shares,
        samples=len(ok_ms),
        op_samples=[[round(m, 4), ok, t] for m, ok, t in zip(log.ms, log.ok, log.traced)],
        tail_percentile=tail_pct,
        attempted=attempted,
        failed=failed,
        notes=workload.notes,
    )
    return _write(args.out, out)


def _write(path: str, payload: dict) -> int:
    def clean(value):
        if isinstance(value, float) and not math.isfinite(value):
            return None
        if isinstance(value, dict):
            return {k: clean(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [clean(v) for v in value]
        return value

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(clean(payload), fh, default=str)
    return 0


if __name__ == "__main__":
    sys.exit(main())
