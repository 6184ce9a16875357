"""Expansion of a tiling expression into a scheduled tiled program (§III-B).

A :class:`Schedule` is the paper's expanded tiling expression — e.g.
``mh(n(k(LA,LB,CC),LD,CE),SE)`` — realized as a tree of loop scopes with
Load/Compute/Store statements placed at their *rightmost related loop*:

* ``Compute`` statements live at the deepest loop of their block's related
  set (spatial + reduction);
* ``Load`` statements live at the deepest tensor-indexing loop on the path
  to their consumer's compute;
* ``Store`` statements live at the deepest tensor-indexing loop that is
  *outside* the producer's unfinished reduction loops.

Loops bound to ``blockIdx`` (the grid) are modeled as a root scope; a
statement homed there runs once per thread block.

The module also derives every quantity the rest of the system needs from a
schedule: statement trip counts, DRAM traffic, FLOPs, the shared-memory
tile buffers (estimate vs measured), live-copy multiplicities (Rule 2), and
semantic validity (a consumer must never observe a partially-reduced
producer tile).

Construction is split in two. Everything that depends only on the chain's
structure, the expression, ``optimize`` and the set of extent-1 loops —
grid binding, the residual expression, statement homes and order, trip
loops, validity, live-copy and buffer structure — is a
:class:`ScheduleSkeleton`, built once and held in the bounded
``tiling.skeleton`` memo. :func:`build_schedule` looks the skeleton up and
binds extents and tile sizes into it; the bound :class:`Schedule` is
immutable and computes its work totals and tile buffers at most once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Union

from repro.gpu.kernel import KernelLaunch
from repro.gpu.memory import TileBuffer, measure_shared_memory
from repro.gpu.specs import GPUSpec
from repro.ir.chain import ComputeChain
from repro.obs import LRUCache
from repro.tiling.enumeration import bindable_spatial_loops
from repro.tiling.expr import LoopNest, TilingExpr
from repro.utils import ceil_div, prod

__all__ = [
    "Statement",
    "LoopScope",
    "Schedule",
    "ScheduleSkeleton",
    "build_schedule",
    "InvalidScheduleError",
]

GRID = None  # sentinel home for statements at per-block (grid) scope


class InvalidScheduleError(ValueError):
    """The (expression, tile sizes) pair has no valid execution order."""


@dataclass(frozen=True)
class Statement:
    """One primitive statement of the expanded tiling expression.

    ``home`` is the loop whose scope the statement executes in (``None``
    for the per-block root). ``related`` are the loops indexing the
    statement's tile.
    """

    kind: str  # "load" | "compute" | "store"
    tensor: str
    block: str
    related: tuple[str, ...]
    home: str | None

    def label(self) -> str:
        prefix = {"load": "L", "compute": "C", "store": "S"}[self.kind]
        return f"{prefix}{self.tensor}"


@dataclass
class LoopScope:
    """A loop in the scheduled program; ``body`` interleaves statements and
    nested scopes in execution order. ``loop is None`` only at the root."""

    loop: str | None
    extent: int
    body: list["LoopScope | Statement"] = field(default_factory=list)

    def contains_compute(self, block: str) -> bool:
        for item in self.body:
            if isinstance(item, Statement):
                if item.kind == "compute" and item.block == block:
                    return True
            elif item.contains_compute(block):
                return True
        return False


def _homes(
    chain: ComputeChain,
    residual: TilingExpr,
    ones: frozenset[str],
) -> dict[tuple[str, str, str], str | None]:
    """Assign every statement its home loop on the residual expression."""
    homes: dict[tuple[str, str, str], str | None] = {}
    present = set(residual.loops())
    for block in chain.blocks:
        compute_home = residual.deepest(set(block.related) & present)
        homes[("compute", block.output, block.name)] = compute_home
        path: set[str] = set()
        if compute_home is not None:
            path = set(residual.ancestors(compute_home)) | {compute_home}
        for tensor in block.inputs:
            if chain.tensors[tensor].role != "input":
                continue  # intermediates stay on-chip: no Load statement
            dims = set(chain.tensors[tensor].dims)
            homes[("load", tensor, block.name)] = residual.deepest(dims & path)
        out = block.output
        if chain.tensors[out].role == "output":
            live_red = {
                r for r in block.reduction if r in present and r not in ones
            }
            eligible = set()
            for d in chain.tensors[out].dims:
                if d not in path:
                    continue
                above = set(residual.ancestors(d)) | {d}
                if not (above & live_red):
                    eligible.add(d)
            homes[("store", out, block.name)] = residual.deepest(eligible)
    return homes


def _build_tree(
    chain: ComputeChain,
    residual: TilingExpr,
    homes: dict[tuple[str, str, str], str | None],
) -> LoopScope:
    """Build the scheduled loop tree with dependency-respecting ordering.

    Placement does not depend on extents, so every scope is built with
    extent 0; :func:`_freeze` keeps only the structure.
    """

    def make_scope(node: LoopNest) -> LoopScope:
        scope = LoopScope(loop=node.loop, extent=0)
        scope.body = [make_scope(child) for child in node.body]
        _insert_statements(scope)
        return scope

    def element_with_compute(scope: LoopScope, block: str) -> int | None:
        for i, item in enumerate(scope.body):
            if isinstance(item, Statement):
                if item.kind == "compute" and item.block == block:
                    return i
            elif item.contains_compute(block):
                return i
        return None

    def consumer_limit(scope: LoopScope, block: str) -> int:
        """First body element containing a compute that consumes ``block``'s
        output — statements of ``block`` must be inserted before it.

        Matters when the DAG optimization collapses every loop of a
        producer to extent 1: its statements re-home to a scope whose body
        already holds the (deeper-homed) consumer, and a plain append would
        run the producer after the consumer.
        """
        out = chain.block(block).output
        limit = len(scope.body)
        for consumer in chain.consumers_of(out):
            idx = element_with_compute(scope, consumer.name)
            if idx is not None:
                limit = min(limit, idx)
        return limit

    def _insert_statements(scope: LoopScope) -> None:
        here = scope.loop
        for block in chain.blocks:
            stmts: list[Statement] = []
            for tensor in block.inputs:
                key = ("load", tensor, block.name)
                if key in homes and homes[key] == here:
                    stmts.append(
                        Statement(
                            "load", tensor, block.name,
                            chain.tensors[tensor].dims, here,
                        )
                    )
            ckey = ("compute", block.output, block.name)
            if homes[ckey] == here:
                stmts.append(
                    Statement("compute", block.output, block.name, block.related, here)
                )
            skey = ("store", block.output, block.name)
            if skey in homes and homes[skey] == here:
                stmts.append(
                    Statement(
                        "store", block.output, block.name,
                        chain.tensors[block.output].dims, here,
                    )
                )
            for stmt in stmts:
                if stmt.kind == "load":
                    anchor = element_with_compute(scope, stmt.block)
                    if anchor is None:
                        scope.body.insert(consumer_limit(scope, stmt.block), stmt)
                    else:
                        scope.body.insert(anchor, stmt)
                elif stmt.kind == "compute":
                    pos = -1
                    consumer = chain.block(stmt.block)
                    for tensor in consumer.inputs:
                        producer = chain.producer_of(tensor)
                        if producer is not None:
                            idx = element_with_compute(scope, producer.name)
                            if idx is not None:
                                pos = max(pos, idx)
                    for i, item in enumerate(scope.body):
                        if isinstance(item, Statement) and item.kind == "load" and item.block == stmt.block:
                            pos = max(pos, i)
                    scope.body.insert(min(pos + 1, consumer_limit(scope, stmt.block)), stmt)
                else:  # store: after the producing compute
                    idx = element_with_compute(scope, stmt.block)
                    scope.body.insert(len(scope.body) if idx is None else idx + 1, stmt)

    root = LoopScope(loop=GRID, extent=1)
    root.body = [make_scope(node) for node in residual.roots]
    _insert_statements(root)
    return root


#: A frozen scope body: statements and ``(loop, body)`` sub-scopes in
#: execution order.
_Body = tuple[Union[Statement, "tuple[str, _Body]"], ...]


def _freeze(scope: LoopScope) -> _Body:
    return tuple(
        item if isinstance(item, Statement) else (item.loop, _freeze(item))
        for item in scope.body
    )


def _bind(body: _Body, extents: Mapping[str, int]) -> list["LoopScope | Statement"]:
    return [
        item
        if isinstance(item, Statement)
        else LoopScope(loop=item[0], extent=extents[item[0]], body=_bind(item[1], extents))
        for item in body
    ]


def _flatten(body: _Body) -> list[Statement]:
    out: list[Statement] = []
    for item in body:
        if isinstance(item, Statement):
            out.append(item)
        else:
            out.extend(_flatten(item[1]))
    return out


@dataclass(frozen=True, eq=False)
class ScheduleSkeleton:
    """The tile-independent part of a schedule.

    One skeleton serves every tiling of a (chain structure, expression,
    ``optimize``, set of extent-1 loops) key: which loops are extent 1
    decides which loops the DAG optimization removes and which reductions
    are unfinished, and nothing else about the placement depends on tile
    sizes. A skeleton holds no chain and no extents.

    Attributes:
        bound: Loops bound to the grid, in the chain's loop order.
        residual: The per-block expression after binding (and, with
            ``optimize``, after removing extent-1 loops).
        body: The root scope's frozen statement/loop tree.
        statements: Every statement in program order.
        paths: Statement home -> the residual loops whose extents multiply
            its trip count (its ancestors and itself; ``()`` at the grid).
        below: Home -> the residual loops nested strictly inside it.
        live: Produced tensor -> the loops whose extents multiply its live
            partial-tile copies (Rule 2).
        loads: ``(tensor, dims, double_buffered)`` per load, in program
            order.
        staged: ``(tensor, dims, role)`` per on-chip produced tensor.
        buffer_dims: The dims of each on-chip buffer, one per tensor
            (the tiles eq. (1) sums).
        invalid: Why no execution order is correct, or ``None``.
    """

    bound: tuple[str, ...]
    residual: TilingExpr
    body: _Body
    statements: tuple[Statement, ...]
    paths: Mapping[str | None, tuple[str, ...]]
    below: Mapping[str | None, frozenset[str]]
    live: Mapping[str, tuple[str, ...]]
    loads: tuple[tuple[str, tuple[str, ...], bool], ...]
    staged: tuple[tuple[str, tuple[str, ...], str], ...]
    buffer_dims: tuple[tuple[str, ...], ...]
    invalid: str | None


def _invalid_reason(
    chain: ComputeChain,
    residual: TilingExpr,
    statements: tuple[Statement, ...],
    ones: frozenset[str],
) -> str | None:
    """Why a consumer would read partial tiles, or ``None``.

    A compute statement homed inside (or at) an unfinished reduction loop
    of one of its producers would observe a partially accumulated
    intermediate; no execution order of the schedule is correct.
    """
    present = set(residual.loops())
    compute_home = {s.block: s.home for s in statements if s.kind == "compute"}
    for block in chain.blocks:
        home = compute_home.get(block.name)
        scope_path: set[str] = set()
        if home is not None:
            scope_path = set(residual.ancestors(home)) | {home}
        for tensor in block.inputs:
            producer = chain.producer_of(tensor)
            if producer is None:
                continue
            for r in producer.reduction:
                if r in present and r not in ones and r in scope_path:
                    return (
                        f"compute {block.name} inside unfinished reduction "
                        f"loop {r!r} of producer {producer.name}"
                    )
    # Producer-before-consumer in program order: a compute whose
    # producer's compute appears later in the statement walk reads a
    # tile that does not exist yet (the failure mode the DAG
    # optimization can create when a producer's loops all collapse).
    compute_pos = {
        s.block: i for i, s in enumerate(statements) if s.kind == "compute"
    }
    for block in chain.blocks:
        for tensor in block.inputs:
            producer = chain.producer_of(tensor)
            if producer is None:
                continue
            if compute_pos[producer.name] > compute_pos[block.name]:
                return (
                    f"compute {block.name} precedes its producer "
                    f"{producer.name} in program order"
                )
    return None


def _build_skeleton(
    chain: ComputeChain,
    expr: TilingExpr,
    optimize: bool,
    ones: frozenset[str],
) -> ScheduleSkeleton:
    bound = bindable_spatial_loops(chain, expr)
    residual = expr.without(set(bound))
    if optimize:
        residual = residual.without({l for l in residual.loops() if l in ones})
    body = _freeze(_build_tree(chain, residual, _homes(chain, residual, ones)))
    statements = tuple(_flatten(body))

    present = residual.loops()
    paths: dict[str | None, tuple[str, ...]] = {GRID: ()}
    below: dict[str | None, frozenset[str]] = {GRID: frozenset(present)}
    for loop in present:
        paths[loop] = (*residual.ancestors(loop), loop)
        below[loop] = frozenset(l for l in present if loop in residual.ancestors(l))

    live: dict[str, tuple[str, ...]] = {}
    for name, ref in chain.tensors.items():
        producer = chain.producer_of(name)
        if producer is None:
            continue
        live_red = {r for r in producer.reduction if r in present and r not in ones}
        live[name] = tuple(
            d for d in ref.dims
            if d in present and set(residual.ancestors(d)) & live_red
        )

    loads = tuple(
        (
            stmt.tensor,
            stmt.related,
            any(
                r in paths[stmt.home] and r not in ones
                for r in chain.block(stmt.block).reduction
            ),
        )
        for stmt in statements
        if stmt.kind == "load"
    )
    staged = tuple(
        (name, ref.dims, "accumulator" if ref.role == "output" else "stage")
        for name, ref in chain.tensors.items()
        if ref.role != "input"
    )
    return ScheduleSkeleton(
        bound=bound,
        residual=residual,
        body=body,
        statements=statements,
        paths=MappingProxyType(paths),
        below=MappingProxyType(below),
        live=MappingProxyType(live),
        loads=loads,
        staged=staged,
        buffer_dims=(
            *{tensor: dims for tensor, dims, _ in loads}.values(),
            *(dims for _, dims, _ in staged),
        ),
        invalid=_invalid_reason(chain, residual, statements, ones),
    )


def _structure_key(chain: ComputeChain) -> tuple:
    """What a skeleton depends on of a chain: loop names, block dataflow and
    tensor roles — not loop sizes, batch, dtype or name."""
    return (
        chain.loop_names,
        tuple((b.name, b.inputs, b.output, b.spatial, b.reduction) for b in chain.blocks),
        tuple((t.name, t.dims, t.role) for t in chain.tensors.values()),
    )


#: (chain structure, expression, optimize, extent-1 loops) -> skeleton.
#: A cold G2 tune needs a few dozen skeletons; the cap keeps many
#: distinct chain structures in one process bounded.
_SKELETONS = LRUCache("tiling.skeleton", capacity=256)


@dataclass(frozen=True, eq=False)
class Schedule:
    """A fully placed tiled program for one (chain, expression, tiles) triple.

    Do not construct directly — use :func:`build_schedule`, which looks up
    the skeleton (grid binding and, optionally, the DAG dead-loop
    optimization) and binds the tile sizes into it. A schedule is
    immutable: its statements, work totals and tile buffers are computed
    at most once.
    """

    chain: ComputeChain
    expr: TilingExpr
    tiles: Mapping[str, int]
    extents: Mapping[str, int]
    grid_dims: tuple[tuple[str, int], ...]
    optimized: bool
    skeleton: ScheduleSkeleton = field(repr=False)

    # -- structure queries ---------------------------------------------------

    @property
    def residual(self) -> TilingExpr:
        return self.skeleton.residual

    @cached_property
    def root(self) -> LoopScope:
        """The scheduled loop tree (built on first use)."""
        return LoopScope(loop=GRID, extent=1, body=_bind(self.skeleton.body, self.extents))

    @cached_property
    def grid_size(self) -> int:
        return int(prod(extent for _, extent in self.grid_dims))

    def statements(self) -> list[Statement]:
        return list(self.skeleton.statements)

    def trip_count(self, stmt: Statement) -> int:
        """Executions of one statement across the whole kernel (grid incl.)."""
        trips = self.grid_size
        for loop in self.skeleton.paths[stmt.home]:
            trips *= self.extents[loop]
        return trips

    def tile_elements(self, dims: tuple[str, ...]) -> int:
        return int(prod(self.tiles[d] for d in dims))

    # -- Rule 2 analysis: live partial-tile copies ------------------------------

    def live_copies(self, tensor: str) -> int:
        """Number of simultaneously live tiles the on-chip buffer of
        ``tensor`` needs.

        A loop that indexes the tensor and sits *inside* an unfinished
        reduction loop of the tensor's producer multiplies the live tiles
        (the paper's Fig. 6(b) situation, pruned by Rule 2).
        """
        return int(prod(self.extents[d] for d in self.skeleton.live.get(tensor, ())))

    # -- semantic validity ---------------------------------------------------------

    def check_valid(self) -> None:
        """Raise InvalidScheduleError if no execution order is correct: a
        consumer would read a partially reduced producer tile, or a producer
        runs after its consumer."""
        if self.skeleton.invalid is not None:
            raise InvalidScheduleError(f"{self.describe()}: {self.skeleton.invalid}")

    @property
    def is_valid(self) -> bool:
        return self.skeleton.invalid is None

    # -- work accounting -------------------------------------------------------------

    def _store_copies_below(self, stmt: Statement) -> int:
        """Tiles written per store execution (dims strictly inside its scope)."""
        inside = self.skeleton.below[stmt.home]
        return int(
            prod(self.extents[d] for d in stmt.related if d in inside) or 1
        )

    def statement_bytes(self, stmt: Statement) -> float:
        """Total DRAM bytes moved by one statement over the whole kernel."""
        if stmt.kind == "compute":
            return 0.0
        tile = self.tile_elements(stmt.related) * self.chain.dtype_bytes
        total = tile * self.trip_count(stmt)
        if stmt.kind == "store":
            total *= self._store_copies_below(stmt)
        return float(total)

    def statement_flops(self, stmt: Statement) -> float:
        """Total FLOPs of one compute statement over the whole kernel."""
        if stmt.kind != "compute":
            return 0.0
        block = self.chain.block(stmt.block)
        per_exec = 2.0 * self.tile_elements(block.related)
        if block.softmax_over is not None:
            first = self.chain.tensors[block.inputs[0]]
            per_exec += 7.0 * self.tile_elements(first.dims)
        return per_exec * self.trip_count(stmt)

    @cached_property
    def _work(self) -> tuple[float, float, float]:
        """(DRAM read bytes, DRAM write bytes, FLOPs) — summed once."""
        stmts = self.skeleton.statements
        return (
            sum(self.statement_bytes(s) for s in stmts if s.kind == "load"),
            sum(self.statement_bytes(s) for s in stmts if s.kind == "store"),
            sum(self.statement_flops(s) for s in stmts if s.kind == "compute"),
        )

    def dram_read_bytes(self) -> float:
        return self._work[0]

    def dram_write_bytes(self) -> float:
        return self._work[1]

    def total_flops(self) -> float:
        return self._work[2]

    # -- shared memory --------------------------------------------------------------------

    def _buffer_shape(self, dims: tuple[str, ...]) -> tuple[int, int]:
        if not dims:
            return (1, 1)
        cols = self.tiles[dims[-1]]
        rows = int(prod(self.tiles[d] for d in dims[:-1])) if len(dims) > 1 else 1
        return (rows, cols)

    @cached_property
    def _tile_buffers(self) -> tuple[TileBuffer, ...]:
        buffers: dict[str, TileBuffer] = {}
        dtype_bytes = self.chain.dtype_bytes
        for tensor, dims, double in self.skeleton.loads:
            rows, cols = self._buffer_shape(dims)
            buf = TileBuffer(
                tensor=tensor,
                rows=rows,
                cols=cols,
                dtype_bytes=dtype_bytes,
                role="operand",
                double_buffered=double,
            )
            prev = buffers.get(tensor)
            if prev is None or buf.elements * (2 if double else 1) > prev.elements:
                buffers[tensor] = buf
        for tensor, dims, role in self.skeleton.staged:
            rows, cols = self._buffer_shape(dims)
            buffers[tensor] = TileBuffer(
                tensor=tensor,
                rows=rows,
                cols=cols,
                dtype_bytes=dtype_bytes,
                role=role,
                copies=self.live_copies(tensor),
            )
        return tuple(buffers[k] for k in sorted(buffers))

    def tile_buffers(self) -> list[TileBuffer]:
        """On-chip buffers of this schedule, for the shared-memory backend."""
        return list(self._tile_buffers)

    def shm_estimate(self) -> int:
        """The paper's eq. (1): naive sum of single-tile footprints.

        Equal to ``estimate_shared_memory(self.tile_buffers())`` (each
        buffer's ``rows * cols`` is its tile's element count), without
        building the buffers: Rule 4 asks this of every candidate.
        """
        return self.chain.dtype_bytes * sum(
            self.tile_elements(dims) for dims in self.skeleton.buffer_dims
        )

    def shm_measured(self, gpu: GPUSpec) -> int:
        """What the simulated backend actually allocates (Fig. 10's y-axis)."""
        return measure_shared_memory(self.tile_buffers(), gpu).total_bytes

    # -- lowering to a kernel launch ------------------------------------------------------

    def representative_tiles(self) -> tuple[int, int, int]:
        """Flops-weighted dominant MMA tile shape (for the simulator)."""
        best = None
        best_flops = -1.0
        for block in self.chain.blocks:
            flops = self.chain.block_flops(block)
            if flops > best_flops:
                best_flops = flops
                tm = self.tiles[block.spatial[0]]
                tn = self.tiles[block.spatial[-1]]
                tk = self.tiles[block.reduction[0]]
                best = (tm, tn, tk)
        assert best is not None
        return best

    def inner_contig_bytes(self) -> int:
        """Worst-case contiguous run among loaded tiles (coalescing input)."""
        widths = []
        for stmt in self.statements():
            if stmt.kind != "load":
                continue
            widths.append(self.tiles[stmt.related[-1]] * self.chain.dtype_bytes)
        for stmt in self.statements():
            if stmt.kind == "store":
                widths.append(self.tiles[stmt.related[-1]] * self.chain.dtype_bytes)
        return min(widths) if widths else 128

    def kernel_launch(self, gpu: GPUSpec, codegen: str = "triton") -> KernelLaunch:
        """Summarize this schedule as a simulator kernel launch."""
        tm, tn, tk = self.representative_tiles()
        compulsory = sum(
            self.chain.batch
            * prod(self.chain.loops[d] for d in ref.dims)
            * self.chain.dtype_bytes
            for ref in self.chain.tensors.values()
            if ref.role == "input"
        )
        return KernelLaunch(
            name=f"{self.chain.name}:{self.describe()}",
            grid=self.grid_size,
            flops=self.total_flops(),
            dram_read_bytes=self.dram_read_bytes(),
            dram_write_bytes=self.dram_write_bytes(),
            dram_compulsory_read_bytes=float(compulsory),
            shared_mem_bytes=self.shm_measured(gpu),
            tile_m=tm,
            tile_n=tn,
            tile_k=tk,
            inner_contig_bytes=self.inner_contig_bytes(),
            codegen=codegen,
            extra={"schedule": self.describe()},
        )

    # -- reporting ------------------------------------------------------------------------

    def describe(self) -> str:
        tiles = ",".join(f"T{l}={self.tiles[l]}" for l in self.chain.loop_names)
        return f"{self.expr.render()}[{tiles}]"

    def pretty(self) -> str:
        """Fig. 4-style pseudo-code rendering of the scheduled program."""
        lines: list[str] = []
        grid = ", ".join(f"{l}:{e}" for l, e in self.grid_dims)
        lines.append(f"for {grid or 'block'} in grid():")

        def walk(scope: LoopScope, depth: int) -> None:
            pad = "    " * depth
            for item in scope.body:
                if isinstance(item, Statement):
                    verb = {"load": "Load", "compute": "Compute", "store": "Store"}[item.kind]
                    lines.append(f"{pad}{verb}(tile {item.tensor})")
                else:
                    lines.append(f"{pad}for {item.loop} in range({item.extent}):")
                    walk(item, depth + 1)

        walk(self.root, 1)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Schedule({self.chain.name}, {self.describe()}, grid={self.grid_size})"


def build_schedule(
    chain: ComputeChain,
    expr: TilingExpr,
    tiles: dict[str, int],
    optimize: bool = True,
) -> Schedule:
    """Expand ``expr`` with ``tiles`` into a :class:`Schedule`.

    ``optimize=True`` additionally runs the DAG dead-loop elimination
    (extent-1 loops are removed and memory statements re-homed upward —
    the paper's §III-B optimization that Chimera and Ansor miss). Pass
    ``False`` to get the baseline placement (rightmost related loop only).
    The skeleton comes from the ``tiling.skeleton`` memo; only extents and
    tiles are bound here.
    """
    missing = set(chain.loop_names) - set(tiles)
    if missing:
        raise ValueError(f"missing tile sizes for loops {sorted(missing)}")
    for loop, t in tiles.items():
        if t < 1:
            raise ValueError(f"tile for loop {loop!r} must be >= 1, got {t}")
    extents = {loop: ceil_div(size, tiles[loop]) for loop, size in chain.loops.items()}
    ones = frozenset(loop for loop, e in extents.items() if e == 1)
    # render() plus the pre-order loop names identify an expression
    # exactly, and both are cached strings: cheaper to hash and compare
    # than the LoopNest tree.
    skeleton = _SKELETONS.get_or_compute(
        (_structure_key(chain), expr.render(), expr.loops(), optimize, ones),
        lambda: _build_skeleton(chain, expr, optimize, ones),
    )
    return Schedule(
        chain=chain,
        expr=expr,
        tiles=MappingProxyType(dict(tiles)),
        extents=MappingProxyType(extents),
        grid_dims=(("b", chain.batch), *[(l, extents[l]) for l in skeleton.bound]),
        optimized=optimize,
        skeleton=skeleton,
    )
