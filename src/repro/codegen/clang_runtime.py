"""Compile rendered C kernels into callables, with two-tier kernel caching.

The runtime follows tinygrad's ``ops_clang`` shape: render → hash → compile
to a shared object → ``dlopen`` → call through ``ctypes``. Kernels are
content-addressed by their source hash, with

* an **in-memory** tier per :class:`ClangRuntime` — a
  ``WeakValueDictionary`` of every live :class:`CompiledKernel` plus a
  strong LRU pinning the hottest entries, so repeated executions of the
  same schedule never touch the filesystem;
* an **on-disk** tier under ``<cache dir>/kernels/<hash>.so`` (the cache
  dir honors ``$REPRO_CACHE_DIR``, like the schedule cache), published
  atomically via temp-file + ``os.replace`` so concurrent processes never
  observe a half-written artifact. A corrupted artifact (``dlopen``
  failure) is quarantined to ``<hash>.so.corrupt`` and recompiled — the
  same recovery contract as ``PersistentStore``.

Concurrent compiles of the same source within a process coalesce: the
first thread compiles, the rest wait on an in-flight event and share the
result (one compile, N waiters).

The compiler is discovered as ``$REPRO_CC`` → ``clang`` → ``cc`` →
``gcc``; a missing compiler raises :class:`CompilerNotFoundError`, which
the ``auto`` backend treats as "fall back to the vectorized executor".
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from repro.codegen.program import TileProgram
from repro.codegen.render_c import RenderedKernel, RenderError, render_program
from repro.obs import LRUCache
from repro.obs.tracer import NOOP_SPAN, get_tracer

__all__ = [
    "CompileError",
    "CompilerNotFoundError",
    "CompiledKernel",
    "CompilerCacheStats",
    "ClangRuntime",
    "find_compiler",
    "compiler_available",
    "get_runtime",
    "execute_program_compiled",
]

#: Strong-reference LRU capacity of the in-memory kernel tier. Everything
#: still alive elsewhere stays reachable through the weak tier regardless.
MEMORY_CACHE_CAPACITY = 64

#: Seconds before a stuck compiler invocation is killed.
COMPILE_TIMEOUT_S = 120.0


class CompileError(RenderError):
    """Compiling rendered source failed (the C toolchain rejected it)."""


class CompilerNotFoundError(CompileError):
    """No C compiler is available on this machine."""


#: ``($REPRO_CC, $PATH)`` -> compiler path, or :data:`_NO_COMPILER`.
_COMPILERS = LRUCache("clang.compiler", capacity=8)
#: Stored for "no compiler found" (the memo cannot store ``None``).
_NO_COMPILER = ""


def _discover_compiler(override: str | None) -> str | None:
    if override:
        return shutil.which(override)
    for name in ("clang", "cc", "gcc"):
        path = shutil.which(name)
        if path:
            return path
    return None


def find_compiler() -> str | None:
    """Path of the C compiler to use, or ``None``.

    ``$REPRO_CC`` wins when set (and must resolve — a broken override is a
    configuration error worth surfacing, not silently falling through);
    otherwise the first of ``clang``, ``cc``, ``gcc`` on ``PATH``. The
    answer is memoized per ``($REPRO_CC, $PATH)``.
    """
    override = os.environ.get("REPRO_CC")
    path = _COMPILERS.get_or_compute(
        (override, os.environ.get("PATH")),
        lambda: _discover_compiler(override) or _NO_COMPILER,
    )
    return path or None


def compiler_available() -> bool:
    return find_compiler() is not None


def require_compiler() -> str:
    cc = find_compiler()
    if cc is None:
        raise CompilerNotFoundError(
            "no C compiler found (set $REPRO_CC or install clang/gcc); "
            "the compiled backend is unavailable"
        )
    return cc


@dataclass
class CompiledKernel:
    """A loaded kernel: the dlopen'd library plus its typed entry point."""

    meta: RenderedKernel
    lib: ctypes.CDLL
    fn: "ctypes._CFuncPtr"

    def __call__(self, arrays: list[np.ndarray]) -> int:
        ptr = ctypes.POINTER(ctypes.c_float)
        return int(self.fn(*(a.ctypes.data_as(ptr) for a in arrays)))


def _load_kernel(meta: RenderedKernel, so_path: str) -> CompiledKernel:
    lib = ctypes.CDLL(so_path)
    fn = getattr(lib, meta.entry)
    fn.restype = ctypes.c_int
    fn.argtypes = [ctypes.POINTER(ctypes.c_float)] * len(meta.arg_names)
    return CompiledKernel(meta=meta, lib=lib, fn=fn)


@dataclass
class CompilerCacheStats:
    """Counters of one runtime's kernel cache."""

    memory_hits: int = 0
    disk_hits: int = 0
    compiles: int = 0
    waits: int = 0
    entries: int = 0


class _Inflight:
    def __init__(self) -> None:
        self.event = threading.Event()
        self.kernel: CompiledKernel | None = None
        self.error: BaseException | None = None


class ClangRuntime:
    """Compiles and caches :class:`RenderedKernel` objects.

    ``cache_dir`` overrides the on-disk tier location; by default it is
    resolved *per call* from the schedule cache's ``default_cache_dir``,
    so tests repointing ``$REPRO_CACHE_DIR`` get isolated artifact dirs
    without rebuilding the runtime.
    """

    def __init__(self, cache_dir: str | None = None) -> None:
        self._cache_dir = cache_dir
        self._weak: "weakref.WeakValueDictionary[str, CompiledKernel]" = (
            weakref.WeakValueDictionary()
        )
        self._strong = LRUCache("clang.kernels", capacity=MEMORY_CACHE_CAPACITY)
        self._lock = threading.Lock()
        self._inflight: dict[str, _Inflight] = {}
        self._stats = CompilerCacheStats()

    # -- cache plumbing --------------------------------------------------------

    def kernel_dir(self) -> str:
        if self._cache_dir is not None:
            return self._cache_dir
        from repro.cache import default_cache_dir

        return os.path.join(default_cache_dir(), "kernels")

    def stats(self) -> CompilerCacheStats:
        with self._lock:
            return CompilerCacheStats(
                memory_hits=self._stats.memory_hits,
                disk_hits=self._stats.disk_hits,
                compiles=self._stats.compiles,
                waits=self._stats.waits,
                entries=len(self._weak),
            )

    def clear_memory_cache(self) -> None:
        """Drop the in-memory tier (the disk tier is content-addressed and
        never needs invalidation)."""
        with self._lock:
            self._weak.clear()
            self._strong.clear()

    # -- compilation -----------------------------------------------------------

    def _compile_to(self, cc: str, src_path: str, out_path: str) -> None:
        """One compiler invocation, trying the fastest flag set first.

        ``-march=native`` unlocks the host's widest vectors for the
        emitted ``#pragma omp simd`` inner loops and ``-fopenmp`` both
        activates those pragmas and the grid-level ``parallel for``;
        either may be unsupported (cross-compilers, missing OpenMP
        runtime), so each attempt degrades gracefully down to plain
        ``-O3``. ``-ffast-math`` is deliberately absent — the
        online-softmax masking depends on ``-inf``/``isfinite``
        semantics it would break."""
        base = [cc, "-shared", "-fPIC", "-O3", src_path, "-o", out_path, "-lm"]
        extras = (
            ["-march=native", "-fopenmp"],
            ["-fopenmp"],
            ["-march=native", "-fopenmp-simd"],
            ["-fopenmp-simd"],
            [],
        )
        attempts = [[*base[:-1], *extra, "-lm"] for extra in extras]
        errors: list[str] = []
        for cmd in attempts:
            try:
                proc = subprocess.run(
                    cmd, capture_output=True, text=True, timeout=COMPILE_TIMEOUT_S
                )
            except subprocess.TimeoutExpired as exc:
                raise CompileError(f"compiler timed out: {' '.join(cmd)}") from exc
            if proc.returncode == 0:
                return
            errors.append(proc.stderr.strip())
        raise CompileError(
            f"compilation failed ({' '.join(attempts[-1])}):\n{errors[-1]}"
        )

    def _build(self, meta: RenderedKernel) -> CompiledKernel:
        """Disk-tier lookup, then a real compile. Caller holds no locks.

        Subclass override point — the signature must stay ``(self, meta)``;
        trace annotations go to the ambient ``compile.kernel`` span.
        """
        span = get_tracer().current() or NOOP_SPAN
        cc = require_compiler()
        kdir = self.kernel_dir()
        so_path = os.path.join(kdir, f"{meta.source_hash}.so")
        try:
            os.makedirs(kdir, exist_ok=True)
            have_dir = True
        except OSError:
            have_dir = False
        if have_dir and os.path.exists(so_path):
            try:
                kernel = _load_kernel(meta, so_path)
                with self._lock:
                    self._stats.disk_hits += 1
                span.set(tier="disk")
                return kernel
            except OSError:
                # Corrupted artifact: quarantine and fall through to a
                # fresh compile (PersistentStore's recovery contract).
                try:
                    os.replace(so_path, so_path + ".corrupt")
                except OSError:
                    pass
        with self._lock:
            self._stats.compiles += 1
        span.set(tier="compile", cc=cc)
        if have_dir:
            src_path = os.path.join(kdir, f"{meta.source_hash}.c")
            tmp_so = os.path.join(kdir, f".{meta.source_hash}.{os.getpid()}.tmp.so")
            with open(src_path, "w") as fh:
                fh.write(meta.source)
            try:
                self._compile_to(cc, src_path, tmp_so)
                os.replace(tmp_so, so_path)
            finally:
                if os.path.exists(tmp_so):
                    os.unlink(tmp_so)
            return _load_kernel(meta, so_path)
        # No writable cache dir: compile into a scratch dir. The loaded
        # library stays mapped after the directory is gone.
        with tempfile.TemporaryDirectory(prefix="mcfuser-cc-") as scratch:
            src_path = os.path.join(scratch, "kernel.c")
            so_scratch = os.path.join(scratch, "kernel.so")
            with open(src_path, "w") as fh:
                fh.write(meta.source)
            self._compile_to(cc, src_path, so_scratch)
            return _load_kernel(meta, so_scratch)

    def compile(self, meta: RenderedKernel) -> CompiledKernel:
        """Return a callable kernel for ``meta``, from the fastest tier
        available. Concurrent calls for the same hash coalesce into one
        compile. The traced span's ``tier`` attribute records which tier
        served it: ``memory`` / ``disk`` / ``compile`` / ``coalesced``."""
        tracer = get_tracer()
        if not tracer.enabled:
            return self._compile_cached(meta, NOOP_SPAN)
        with tracer.span(
            "compile.kernel", source_hash=meta.source_hash, entry=meta.entry
        ) as span:
            return self._compile_cached(meta, span)

    def _compile_cached(self, meta: RenderedKernel, span) -> CompiledKernel:
        key = meta.source_hash
        while True:
            with self._lock:
                kernel = self._weak.get(key)
                if kernel is not None:
                    self._stats.memory_hits += 1
                    self._strong.put(key, kernel)  # refresh recency
                    span.set(tier="memory")
                    return kernel
                pending = self._inflight.get(key)
                if pending is None:
                    pending = _Inflight()
                    self._inflight[key] = pending
                    owner = True
                else:
                    self._stats.waits += 1
                    owner = False
            if not owner:
                span.set(tier="coalesced")
                pending.event.wait()
                if pending.error is not None:
                    raise pending.error
                assert pending.kernel is not None
                return pending.kernel
            try:
                kernel = self._build(meta)
            except BaseException as exc:
                with self._lock:
                    pending.error = exc
                    del self._inflight[key]
                pending.event.set()
                raise
            with self._lock:
                self._weak[key] = kernel
                self._strong.put(key, kernel)
                pending.kernel = kernel
                del self._inflight[key]
            pending.event.set()
            return kernel


_RUNTIME: ClangRuntime | None = None
_RUNTIME_LOCK = threading.Lock()


def get_runtime() -> ClangRuntime:
    """The process-wide default runtime (lazily constructed)."""
    global _RUNTIME
    with _RUNTIME_LOCK:
        if _RUNTIME is None:
            _RUNTIME = ClangRuntime()
        return _RUNTIME


def execute_program_compiled(
    program: TileProgram,
    inputs: dict[str, np.ndarray],
    runtime: ClangRuntime | None = None,
) -> dict[str, np.ndarray]:
    """Render, compile (cached) and run a lowered program natively.

    Input validation mirrors the scalar interpreter exactly (``KeyError``
    for a missing tensor, ``ValueError`` for a shape mismatch) so the
    differential harness sees identical error behavior. Raises
    :class:`RenderError`/:class:`CompileError`/:class:`CompilerNotFoundError`
    — all one typed family — when no native kernel can be produced.
    """
    chain = program.schedule.chain
    meta = render_program(program)
    arrays: list[np.ndarray] = []
    cast = {k: np.asarray(v, dtype=np.float32) for k, v in inputs.items()}
    for name in meta.input_names:
        if name not in cast:
            raise KeyError(f"missing input {name!r}")
        expect = chain.tensor_shape(name)
        if cast[name].shape != expect:
            raise ValueError(f"input {name!r}: shape {cast[name].shape} != {expect}")
        arrays.append(np.ascontiguousarray(cast[name]))
    outputs = {
        name: np.zeros(chain.tensor_shape(name), dtype=np.float32)
        for name in meta.output_names
    }
    arrays.extend(outputs[name] for name in meta.output_names)
    kernel = (runtime or get_runtime()).compile(meta)
    rc = kernel(arrays)
    if rc != 0:
        raise MemoryError(
            f"compiled kernel for {program.schedule.describe()} failed to "
            "allocate its per-cell arena"
        )
    return outputs
