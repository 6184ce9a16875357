"""The benchmark's four workloads, driven through the public ``repro`` API.

Each workload is a class with a timed :meth:`setup`, an untimed
:meth:`prepare` (reference outputs for the correctness checks), a measured
phase, and two reporting hooks: :meth:`sim_values` (the deterministic
simulated-time values behind ``sim_kernel_geomean_us``) and :meth:`layers`
(per-layer metrics from a traced run). Inputs come only from the seed.

Why these four (see README.md for the layer table):

* ``tune-cold``  — search, estimation and space generation dominate; the
  cache only writes. No kernel runs.
* ``tune-warm``  — the direct-hit path (lookup, ``record_hit`` flush,
  schedule rebuild, backend resolution). No search runs.
* ``serve-warm`` — the compile service's inline cache-hit path under an
  open-loop arrival schedule. No cold misses in the measured phase.
* ``model-exec`` — generated code runs: one forward of every fused group
  of two compiled models per op. No search, no cache lookups.
"""

from __future__ import annotations

import itertools
import math
import os
import time

import numpy as np

from repro import Session, SessionConfig, attention_chain, gemm_chain
from repro.cache.signature import bucket_of
from repro.codegen import execute_schedule, get_runtime, kernel_cache_stats
from repro.experiments.serve_load import _CACHE_SOURCES, _zipf_pmf, ragged_chains
from repro.obs import get_tracer
from repro.workloads import ATTENTION_CONFIGS, GEMM_CHAIN_CONFIGS

from stats import median, op_ms, op_self_ms, tail

#: fp32 tolerances for every output check (``serve_load``'s values).
#: ``ATOL`` is relative to the output's largest magnitude (exactly 1e-4 for
#: outputs within [-1, 1]): Table II chains with K = 512 or 1024 produce
#: outputs up to ~500, where fp32 summation-order differences reach 5e-4
#: on near-zero elements. The fp32 reference itself then misses an
#: absolute 1e-4 against a float64 evaluation of the same chain.
RTOL, ATOL = 1e-3, 1e-4
#: Elements compared per step: a check allocates only small temporaries,
#: so checks between measured ops cannot raise the peak resident memory.
CHECK_CHUNK = 1 << 16


def allclose(out, ref) -> bool:
    out, ref = np.ravel(out), np.ravel(ref)
    if out.shape != ref.shape:
        return False
    scale = max(abs(float(ref.max(initial=0.0))), abs(float(ref.min(initial=0.0))))
    atol = ATOL * max(1.0, scale)
    return all(
        np.allclose(out[k:k + CHECK_CHUNK], ref[k:k + CHECK_CHUNK], rtol=RTOL, atol=atol)
        for k in range(0, out.size, CHECK_CHUNK)
    )


class OpLog:
    """Measured ops as parallel lists: host milliseconds, whether the op's
    checks passed, whether it ran traced. Plain lists of numbers, not an
    object per op: per-op objects would pile up in the collector's oldest
    generation and trigger full collections inside the measured phase."""

    def __init__(self) -> None:
        self.ms: list[float] = []
        self.ok: list[bool] = []
        self.traced: list[bool] = []

    def add(self, ms: float, ok: bool, traced: bool) -> None:
        self.ms.append(ms)
        self.ok.append(ok)
        self.traced.append(traced)

    def __len__(self) -> int:
        return len(self.ms)

    def failed(self) -> int:
        return self.ok.count(False)

    def times(self, traced: bool = False, first: int | None = None) -> list[float]:
        """Milliseconds of the passing ops (of the ``first`` ops, if given),
        untraced (default) or traced."""
        rows = zip(self.ms[:first], self.ok[:first], self.traced[:first])
        return [m for m, ok, t in rows if ok and t == traced]


class Tracing:
    """Switches the process tracer between an enabled recorder and the
    disabled default, so a traced run can interleave traced and untraced
    ops and read the tracing overhead from their difference."""

    def __init__(self, enabled: bool) -> None:
        from repro.obs import Tracer

        self.enabled = enabled
        self.on = Tracer(enabled=True, max_spans=400_000)
        self.off = Tracer(enabled=False)

    def select(self, traced: bool) -> bool:
        from repro.obs import set_tracer

        traced = traced and self.enabled
        set_tracer(self.on if traced else self.off)
        return traced

    def spans(self):
        return self.on.recorder.spans()


def attempt(fn, *args):
    """``(result, None)`` or ``(None, exception)`` — a failing op is counted,
    never allowed to end the run."""
    try:
        return fn(*args), None
    except Exception as exc:  # noqa: BLE001 - every failure is a counted op
        return None, exc


def wait_until(due: float) -> None:
    """Sleep until shortly before ``due``, then spin: a sleeping thread
    wakes up late by a varying amount, which would be timed as latency."""
    while (left := due - time.perf_counter()) > 0.002:
        time.sleep(left - 0.002)
    while time.perf_counter() < due:
        pass


TABLE = {**GEMM_CHAIN_CONFIGS, **ATTENTION_CONFIGS}


def table_stream(rng: np.random.Generator, names=tuple(TABLE)):
    """Endless seeded stream of distinct shapes from Table II / Table III.

    Every cycle visits each named table entry once, in a fresh seeded
    order, so any ``len(names)`` consecutive ops cover the same entries and
    per-run medians do not hinge on which entries one seed happened to
    draw. Each visit adds a seeded offset to the batch (GEMM chains) or
    head count (attention), skipping offsets that would recreate a shape
    already produced (entries such as S4/S5 or G10/G11 differ only in that
    count), so no shape repeats within a process and the process-level
    lowering/render memos never hit.
    """
    offsets = {
        n: itertools.chain((int(x) for x in rng.permutation(3)), itertools.count(3))
        for n in names
    }
    seen = set()
    while True:
        for idx in rng.permutation(len(names)):
            name = names[idx]
            cfg = TABLE[name]
            gemm = name in GEMM_CHAIN_CONFIGS
            b, m, n, k, h = cfg if gemm else (cfg.heads, cfg.m, cfg.n, cfg.k, cfg.h)
            count = next(b + e for e in offsets[name] if (gemm, b + e, m, n, k, h) not in seen)
            seen.add((gemm, count, m, n, k, h))
            build = gemm_chain if gemm else attention_chain
            yield build(count, m, n, k, h, name=f"{name}+{'b' if gemm else 'h'}{count}")


class Workload:
    name = ""
    #: Ops in one pass over the workload's inputs. Every run completes at
    #: least two passes however fast the host is, so the simulated metrics
    #: cover the same ops on every run of a seed, and a traced run can
    #: trace every other pass: traced and untraced ops cover the same
    #: inputs.
    min_ops = 1
    closed_loop = True
    #: Check outputs only after the measured phase (and after its peak
    #: resident memory is read), where a check allocates large arrays.
    check_after = False

    def __init__(self, seed: int, cache_dir: str, workers: int) -> None:
        self.seed = seed
        self.cache_dir = cache_dir
        self.rng = np.random.default_rng(seed)
        self.config = SessionConfig.default().evolve(
            cache_dir=cache_dir, serve_workers=workers
        )
        self.notes: dict = {}

    def setup(self) -> None:
        """Timed set-up (included in ``setup_s``)."""

    def prepare(self) -> None:
        """Untimed: build reference outputs for the checks."""

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> bool:
        raise NotImplementedError

    def sim_values(self) -> list[float]:
        """Simulated kernel seconds behind ``sim_kernel_geomean_us``."""
        raise NotImplementedError

    def layers(self, ops: list[list], log: OpLog) -> dict:
        """Per-layer metrics from the spans of the traced ops."""
        return {}

    def close(self) -> None:
        pass


class TuneCold(Workload):
    """Closed loop, one caller: each op is one cold ``MCFuserTuner.tune``
    (default ``SearchConfig``, cache on) of a never-seen table shape."""

    name = "tune-cold"
    #: One full cycle of the table (8-13 s of tuning on a 2-core Xeon, so
    #: the two cycles of a run take more than the run's seconds). With 42
    #: samples the tail rule still allows no percentile above the median.
    min_ops = 21
    #: A check runs the schedule on table-sized inputs.
    check_after = True

    def setup(self) -> None:
        from repro import MCFuserTuner, ScheduleCache

        self.cache = ScheduleCache(self.cache_dir)
        self.tuner = MCFuserTuner(cache=self.cache, config=self.config)
        # Warm the process (lazy imports, first-call set-up) on a shape the
        # stream never produces, so op 0 is not an outlier.
        self.tuner.tune(gemm_chain(1, 256, 128, 32, 32, name="warmup"))
        self.stream = table_stream(self.rng)
        #: op -> (best_time, tuning_seconds, estimates, measurements); only
        #: numbers are kept, so finished tunes do not grow the heap.
        self.records: dict[int, tuple] = {}

    def op(self, i: int):
        chain = next(self.stream)
        report = self.tuner.tune(chain)
        search = report.search
        self.records[i] = (
            report.best_time, report.tuning_seconds,
            search.num_estimates, search.num_measurements,
        )
        return chain, report.best_schedule, report.cache_hit, report.best_time

    def check(self, i: int, result) -> bool:
        chain, schedule, cache_hit, best_time = result
        if cache_hit or not math.isfinite(best_time):
            return False
        inputs = chain.random_inputs(self.seed)
        out = execute_schedule(schedule, inputs, backend="vectorized")
        return allclose(out[chain.output], chain.reference(inputs)[chain.output])

    def sim_values(self) -> list[float]:
        return [r[0] for i, r in self.records.items() if i < self.min_ops]

    def sim_tuning_values(self) -> list[float]:
        return [r[1] for i, r in self.records.items() if i < self.min_ops]

    def layers(self, ops, log) -> dict:
        traced = [r for i, r in self.records.items() if log.traced[i]]
        estimates = sum(r[2] for r in traced)
        candidates = sum(
            s.attrs.get("candidates", 0)
            for op in ops for s in op if s.name == "tune.space"
        )
        n = max(len(traced), 1)
        self.notes["ratio_bases"] = {
            "search.estimates_per_candidate": {"estimates": estimates, "candidates": candidates},
            "per_tune": {"tunes": len(traced)},
        }
        return {
            "search.space_ms": median([op_ms(op, "tune.space") for op in ops]),
            "search.loop_ms": median([op_ms(op, "search") for op in ops]),
            "search.estimates_per_tune": estimates / n,
            "search.measurements_per_tune": sum(r[3] for r in traced) / n,
            "search.candidates_per_tune": candidates / n,
            "search.estimates_per_candidate": estimates / max(candidates, 1),
            "codegen.finalize_ms": median([op_ms(op, "tune.finalize") for op in ops]),
            "cache.put_ms": median([op_ms(op, "tune.cache_put") for op in ops]),
        }


class TuneWarm(Workload):
    """Closed loop, one long-lived ``Session``: each op is ``session.tune``
    on the next pre-tuned shape (a direct persistent-cache hit)."""

    name = "tune-warm"
    #: Table entries tuned into the fresh store during set-up: all of
    #: Table III and the three K = 64 chains of Table II. The entries are
    #: fixed so every seed hits the same mix (hit cost varies about 2x
    #: between entries); the seed draws their offsets and the order. More
    #: would not fit three set-ups per run into the time budget.
    bases = ("G1", "G2", "G3", *ATTENTION_CONFIGS)
    store_shapes = len(bases)
    min_ops = store_shapes

    def setup(self) -> None:
        self.session = Session(self.config)
        stream = table_stream(self.rng, self.bases)
        self.shapes = [next(stream) for _ in range(self.store_shapes)]
        self.expected = []
        for chain in self.shapes:
            report = self.session.tune(chain)
            self.expected.append((report.best_time, report.best_schedule.describe()))
        self.order = [int(j) for j in self.rng.permutation(self.store_shapes)]
        self.stats0 = self.session.cache.stats()

    def op(self, i: int):
        return self.session.tune(self.shapes[self.order[i % self.store_shapes]])

    def check(self, i: int, report) -> bool:
        best_time, describe = self.expected[self.order[i % self.store_shapes]]
        return (
            report.cache_hit
            and report.best_time == best_time
            and report.best_schedule.describe() == describe
        )

    def sim_values(self) -> list[float]:
        return [t for t, _ in self.expected]

    def layers(self, ops, log) -> dict:
        stats = self.session.cache.stats()
        hits = stats.hits - self.stats0.hits
        lookups = hits + stats.misses - self.stats0.misses
        self.notes["ratio_bases"] = {"cache.hit_share": {"hits": hits, "lookups": lookups}}
        return {
            "cache.lookup_ms": median([op_ms(op, "tune.cache_lookup") for op in ops]),
            "cache.store_bytes": float(os.path.getsize(self.session.cache.path)),
            "cache.hit_share": hits / max(lookups, 1),
            "search.rebuild_ms": median([op_self_ms(op, "tune") for op in ops]),
        }

    def close(self) -> None:
        self.session.close()


class ModelExec(Workload):
    """Closed loop: each op is one forward of every fused group of both
    compiled models through ``OperatorModule.run``, ``bert-small`` then
    ``ffn-base``. (Ops that alternate between the models split the op
    times into two clusters, and the median then jumps between them.)"""

    name = "model-exec"
    models = ("bert-small", "ffn-base")
    #: Seeded input sets per fused group, used in turn.
    input_sets = 2
    min_ops = 2

    def setup(self) -> None:
        # The executed modules are compiled with the default search seed,
        # so every run executes the same kernels: the tiles a seeded search
        # picks are near-equal on the simulated clock but not on the host
        # (one attention group ran 14 ms under one seed's tiles and 24 ms
        # under another's on a 2-core Xeon).
        tracer = get_tracer()
        self.session = Session(self.config)
        self.results, self.groups = [], []
        for model in self.models:
            with tracer.span("bench.setup.compile_model", model=model):
                result = self.session.compile(model)
            self.results.append(result)
            self.groups.extend(result.module.operator_modules)
        self.inputs = [
            [g.schedule.chain.random_inputs(self.seed * 1000 + 10 * j + s)
             for j, g in enumerate(self.groups)]
            for s in range(self.input_sets)
        ]
        # The first run compiles the C kernels: set-up, not steady state.
        self.op(0)
        self.runtime_stats = get_runtime().stats()
        self.memo_stats = kernel_cache_stats()

    def prepare(self) -> None:
        self.refs = [
            [g.schedule.chain.reference(x)[g.schedule.chain.output]
             for g, x in zip(self.groups, inputs)]
            for inputs in self.inputs
        ]
        # The simulated metric follows the run's seed like every other
        # input: both models are compiled again (search only, no kernel
        # runs) with the seed driving the search and the simulator jitter.
        seeded = self.config.evolve(
            seed=self.seed, cache_dir=os.path.join(self.cache_dir, "seeded")
        )
        with Session(seeded) as session:
            self.seeded_times = [session.compile(model).time for model in self.models]

    def op(self, i: int):
        tracer = get_tracer()
        outs = []
        for g, x in zip(self.groups, self.inputs[i % self.input_sets]):
            with tracer.span("bench.module_run", backend=g.resolved_exec_backend):
                outs.append(g.run(x)[g.schedule.chain.output])
        return outs

    def check(self, i: int, outs) -> bool:
        refs = self.refs[i % self.input_sets]
        return all(allclose(o, r) for o, r in zip(outs, refs))

    def sim_values(self) -> list[float]:
        return self.seeded_times

    def layers(self, ops, log) -> dict:
        run_ms = {
            b: [op_ms(op, "bench.module_run", ("backend", b)) for op in ops]
            for b in ("compiled", "vectorized", "scalar")
        }
        flops = sum(g.schedule.chain.total_flops() for g in self.groups)
        gflops = [flops / (op_ms(op, "bench.module_run") / 1e3) / 1e9 for op in ops]
        fallbacks = sum(
            n for r in self.results for n in r.detail.get("fallbacks", {}).values()
        )
        self.notes["exec_backends"] = [r.detail.get("exec_backend") for r in self.results]
        self.notes["kernel_memo"] = vars(self.memo_stats)
        self.notes["ratio_bases"] = {
            "codegen.gflops": {"flops_per_op": flops, "base": "summed bench.module_run time"}
        }
        return {
            **{f"codegen.run_ms.{b}": median(v) for b, v in run_ms.items()},
            "codegen.fallbacks": float(fallbacks),
            "codegen.gflops": median(gflops),
            "codegen.mbytes": sum(g.schedule.chain.min_dram_bytes() for g in self.groups) / 1e6,
            "codegen.kernel_compiles": float(self.runtime_stats.compiles),
            "codegen.kernel_disk_hits": float(self.runtime_stats.disk_hits),
        }

    def setup_layers(self, spans) -> dict:
        return {
            "frontend.partition_ms": 1e3 * sum(s.duration for s in spans if s.name == "partition"),
            "frontend.compile_model_ms": 1e3 * sum(
                s.duration for s in spans if s.name == "compile.model"
            ),
        }

    def close(self) -> None:
        self.session.close()


class ServeWarm(Workload):
    """Open loop, one generator thread: ``CompileService.submit`` requests
    on a fixed arrival schedule under ``dynamic="buckets"``; Zipf draws
    over seeded ragged sequence lengths of two families."""

    name = "serve-warm"
    closed_loop = False
    #: Arrival-rate ladder: ``(requests/s, share of the run)`` in this
    #: order. The first rung meets most lengths for the first time (rebuild
    #: and render check at the request shape); the nominal rung, whose
    #: latency is reported, runs last, at steady state. The hit path
    #: sustains 700-1200 requests/s on a 2-core Xeon depending on the
    #: host's load, so the rungs sit well clear of that band on both sides;
    #: a rung near it would pass or fail by chance.
    ladder = ((400, 0.25), (2000, 0.15), (100, 0.6))
    nominal = 100
    #: Latency limit on a rung's tail percentile and on the generator's lag
    #: over the rung's last tenth (a growing backlog fails the rung). It
    #: sits above one full garbage collection of the serving process
    #: (30-45 ms on a 2-core Xeon), which any rung may contain.
    slo_ms = 100.0
    lengths = 32
    zipf_s = 1.1
    #: Served (chain, schedule) pairs re-checked numerically after the run.
    verify_sample = 6

    def __init__(self, seed: int, cache_dir: str, workers: int) -> None:
        super().__init__(seed, cache_dir, workers)
        # The seed also drives the search, so the tuned bucket schedules
        # (and their simulated times) vary by seed.
        self.config = self.config.evolve(dynamic="buckets", seed=seed)

    def setup(self) -> None:
        self.session = Session(self.config)
        self.service = self.session.service
        # One length per equal-width stratum of [129, 1024], ranked in a
        # seeded order: every seed serves the same spread of lengths.
        edges = np.linspace(129, 1025, self.lengths + 1).astype(int)
        lengths = [int(self.rng.integers(lo, hi)) for lo, hi in zip(edges, edges[1:])]
        self.by_rank = [lengths[j] for j in self.rng.permutation(self.lengths)]
        self.chains = ragged_chains(self.by_rank)
        ceilings = ragged_chains(sorted({bucket_of(m) for m in self.by_rank}))
        self.ceiling_times = [
            self.service.submit(chain).result(timeout=120).report.best_time
            for chain in ceilings.values()
        ]
        self.counters0 = dict(self.service.metrics()["counters"])

    def requests(self, count: int) -> list:
        ranks = self.rng.choice(self.lengths, size=count, p=_zipf_pmf(self.lengths, self.zipf_s))
        families = self.rng.choice(("gemm", "attn"), size=count)
        return [self.chains[f"{f}@{self.by_rank[r]}"] for r, f in zip(ranks, families)]

    def rung(self, rate: float, chains: list, tracing: Tracing) -> dict:
        """Issue ``chains`` at ``rate``/s, timing each from its due time."""
        log, lags, pending = OpLog(), [], []
        start = time.perf_counter() + 0.002
        aborted = False
        for k, chain in enumerate(chains):
            due = start + k / rate
            wait_until(due)
            traced = tracing.select(k % 2 == 1)
            submitted = time.perf_counter()
            lags.append(submitted - due)
            if submitted - due > 1.0:  # backlog past any limit: stop the rung
                tracing.select(False)
                aborted = True
                break
            with get_tracer().span("bench.op", rate=rate):
                ticket, exc = attempt(self.service.submit, chain)
            tracing.select(False)
            if exc is None and not ticket.done():  # queued: resolve after the rung
                pending.append((len(log), ticket, submitted, due))
                log.add(0.0, False, traced)
                continue
            if exc is None:
                result, exc = attempt(ticket.result, 0)
            log.add(1e3 * (time.perf_counter() - due), self._served(result, exc), traced)
        elapsed = time.perf_counter() - start
        for idx, ticket, submitted, due in pending:
            result, exc = attempt(ticket.result, 60)
            latency = submitted + (result.latency_seconds if result else 0.0) - due
            log.ms[idx], log.ok[idx] = 1e3 * latency, self._served(result, exc)
        ok = log.times(False) + log.times(True)
        end_lag = 1e3 * max(lags[-max(len(lags) // 10, 1):]) if lags else 0.0
        return {
            "rate": rate,
            "log": log,
            "issued": len(log),
            "throughput": len(ok) / elapsed,
            "lag_max_ms": 1e3 * max(lags) if lags else 0.0,
            "passed": (
                not aborted
                and len(ok) == len(log) == len(chains)
                and tail(ok)[0] <= self.slo_ms
                and end_lag <= self.slo_ms
            ),
        }

    def _served(self, result, exc) -> bool:
        """Whether a request succeeded; keeps the first report per request
        shape for the numeric sample check."""
        if exc is not None:
            return False
        self.served.setdefault(result.workload, result.report)
        return math.isfinite(result.report.best_time)

    def measure(self, seconds: float, tracing: Tracing) -> OpLog:
        """Run the ladder (every other request traced in traced runs);
        returns the nominal rung's log."""
        self.served = {}
        self.rungs = [
            self.rung(rate, self.requests(int(rate * share * seconds)), tracing)
            for rate, share in self.ladder
        ]
        self.nominal_rung = next(r for r in self.rungs if r["rate"] == self.nominal)
        return self.nominal_rung["log"]

    def checks(self) -> tuple[int, list[str]]:
        """Counter reconciliation + a seeded numeric sample; returns
        ``(checks run, failure descriptions)``."""
        now = self.service.metrics()["counters"]
        delta = {k: now.get(k, 0) - self.counters0.get(k, 0) for k in now}
        self.counter_delta = delta
        issued = sum(r["issued"] for r in self.rungs)
        hits = sum(delta.get(f"serve.hits.{t}", 0) for t in _CACHE_SOURCES)
        off_path = {
            k: delta.get(k, 0)
            for k in ("serve.tunes", "serve.coalesced", "serve.shed", "serve.errors")
        }
        failures = []
        if delta.get("serve.requests", 0) != issued or hits + sum(off_path.values()) != issued:
            failures.append(
                f"counters do not reconcile: issued={issued} "
                f"requests={delta.get('serve.requests', 0)} hits={hits} other={off_path}"
            )
        # Set-up tuned every bucket ceiling: a measured request that left
        # the cache-hit path (a tune, a wait on one, a shed) is a failure.
        if any(off_path.values()):
            failures.append(f"measured phase left the cache-hit path: {off_path}")
        keys = sorted(self.served)
        picks = self.rng.choice(len(keys), min(self.verify_sample, len(keys)), replace=False)
        for j in sorted(int(p) for p in picks):
            report = self.served[keys[j]]
            chain = report.chain
            inputs = chain.random_inputs(self.seed)
            out, exc = attempt(execute_schedule, report.best_schedule, inputs, "vectorized")
            if exc is not None or not allclose(
                out[chain.output], chain.reference(inputs)[chain.output]
            ):
                failures.append(f"served schedule for {keys[j]} is wrong")
        return 1 + len(picks), failures

    def sim_values(self) -> list[float]:
        return self.ceiling_times

    def ops_per_s(self) -> float:
        passed = [r for r in self.rungs if r["passed"]]
        return max(passed, key=lambda r: r["rate"])["throughput"] if passed else 0.0

    def layers(self, ops, log) -> dict:
        bucket_ms = [
            1e3 * s.duration
            for op in ops for s in op
            if s.name == "serve.request" and s.attrs.get("outcome") == "bucket"
        ]
        d = self.counter_delta
        return {
            "serving.request_ms.bucket": median(bucket_ms),
            "serving.hits.bucket": float(d.get("serve.hits.bucket", 0)),
            "serving.tunes": float(d.get("serve.tunes", 0)),
            "serving.shed": float(d.get("serve.shed", 0)),
            "serving.gen_lag_ms": self.nominal_rung["lag_max_ms"],
        }

    def slo_miss_share(self, log: OpLog) -> float:
        """Share of the nominal rung's requests that failed or ran past the
        latency limit."""
        missed = sum(not (ok and ms <= self.slo_ms) for ms, ok in zip(log.ms, log.ok))
        self.notes["ratio_bases"] = {"slo_miss_share": {"missed": missed, "attempted": len(log)}}
        return missed / max(len(log), 1)

    def close(self) -> None:
        self.session.close()


WORKLOADS = {w.name: w for w in (TuneCold, TuneWarm, ServeWarm, ModelExec)}
