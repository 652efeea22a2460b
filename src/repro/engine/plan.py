"""Plan compilation: walk a recursion once, emit a flat execution plan.

The recursive algorithms in :mod:`repro.core` re-derive the same structure
on every call: quadrant partitions, cache-fit checks and workspace offsets
depend only on ``(shape, cache model, config)``, never on the matrix
*values*.  This module performs that walk exactly once and records the
result as an immutable :class:`ExecutionPlan` — an ordered tuple of
base-case kernel steps whose operands are precomputed views (slices of the
``A``/``C`` operands or ``(offset, shape)`` windows into the pooled
workspace arenas), plus the exact workspace requirement and pre-aggregated
flop/byte counter totals.

Executing a plan replays the identical kernel sequence the recursion would
have produced, so results are bit-for-bit equal to the direct calls; only
the Python-level recursion overhead, the per-call workspace allocation and
the per-kernel counter bookkeeping are amortised away.

Four algorithm kinds can be compiled:

``"syrk"``
    A single base-case ``syrk`` call (used when the operand fits in cache).
``"ata"``
    Algorithm 1 — the AtA recursion with its embedded FastStrassen calls,
    fully flattened including the Strassen workspace choreography.
``"strassen"``
    A standalone FastStrassen ``A^T B`` product.
``"recursive_gemm"``
    Algorithm 2 — the classical 8-way recursive ``A^T B``.
``"tiled"``
    A cache-sized column-block tiling of the lower triangle of ``A^T A``
    (``syrk`` diagonal blocks, ``gemm_t`` off-diagonal panels).

Dependency DAG
--------------
Because every step's operand regions are known at compile time, the
compiler can also derive the *step dependency graph*: step ``v`` depends on
an earlier step ``u`` whenever their regions conflict (they touch the same
storage and at least one of them writes it).  Steps that accumulate into
the same output region therefore form an **ordered chain in plan order** —
floating-point addition is not associative, so replaying the chain in the
sequential order is what keeps DAG execution bit-identical to the
sequential replay — while steps with provably disjoint writes carry no
edge and may run concurrently (see :mod:`repro.engine.dag`).

Scratch **lanes** widen the workspace for parallel execution: with
``lanes=K`` the compile-time arena simulator deals allocations round-robin
onto ``K`` disjoint sub-arenas, so scratch buffers that the sequential
layout would reuse (serialising their steps through write-after-read
edges) live at disjoint offsets instead.  The LIFO discipline survives the
split — any matched-pair subsequence of a properly nested alloc/release
sequence is itself properly nested — and the workspace requirement grows
to the sum of the per-lane high-water marks (at most ``K``× the sequential
requirement).  Scratch placement never changes values: every arena buffer
is zero-filled by an explicit plan step before it is read.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..blas.direct import syrk_leaf
from ..blas.kernels import gemm_flops, syrk_flops
from ..cache.model import CacheModel
from ..config import get_config
from ..core.partition import split_dim
from ..core.strassen import STRASSEN_PRODUCTS
from ..core.workspace import _Requirement
from ..errors import ConfigurationError, ShapeError

__all__ = ["ExecutionPlan", "StepDag", "compile_plan", "execute_plan",
           "run_step", "record_plan_counters", "split_rows", "PLAN_KINDS"]

PLAN_KINDS = ("syrk", "ata", "strassen", "recursive_gemm", "tiled")

# Operand bases (first element of a frozen operand reference).
_BASE_A = 0
_BASE_B = 1
_BASE_C = 2
_ARENA_P = 3
_ARENA_Q = 4
_ARENA_M = 5

# Step opcodes (first element of a frozen step tuple).
OP_SYRK = 0   # (OP_SYRK, a_ref, c_ref, n)               low(c) += alpha*a.T@a (syrk_leaf)
OP_GEMM = 1   # (OP_GEMM, a_ref, b_ref, c_ref, use_alpha) c += coef * a.T @ b
OP_ADD = 2    # (OP_ADD, dst_ref, src_ref, coef, use_alpha) dst += coef*src (prefix-truncated)
OP_ZERO = 3   # (OP_ZERO, ref)                            view[...] = 0


class _Region:
    """A rectangular window into an operand or arena matrix (compile time).

    ``base`` identifies the storage (``A``/``B``/``C`` operand or one of the
    P/Q/M arenas); ``start`` is the flat arena offset of the base matrix
    *within its lane* (arenas only), ``lane`` the scratch lane the
    allocation was dealt onto, ``alloc_id`` the identity of the arena
    allocation the region windows (``None`` for operands), and
    ``(base_rows, base_cols)`` its shape; ``(r0, r1, c0, c1)`` bound this
    window inside the base matrix.
    """

    __slots__ = ("base", "start", "lane", "alloc_id", "base_rows", "base_cols",
                 "r0", "r1", "c0", "c1")

    def __init__(self, base, start, base_rows, base_cols, r0, r1, c0, c1,
                 lane=0, alloc_id=None):
        self.base = base
        self.start = start
        self.lane = lane
        self.alloc_id = alloc_id
        self.base_rows = base_rows
        self.base_cols = base_cols
        self.r0, self.r1, self.c0, self.c1 = r0, r1, c0, c1

    @classmethod
    def whole(cls, base: int, rows: int, cols: int, start: int = 0,
              lane: int = 0, alloc_id=None) -> "_Region":
        return cls(base, start, rows, cols, 0, rows, 0, cols, lane=lane,
                   alloc_id=alloc_id)

    @property
    def rows(self) -> int:
        return self.r1 - self.r0

    @property
    def cols(self) -> int:
        return self.c1 - self.c0

    @property
    def size(self) -> int:
        return self.rows * self.cols

    def sub(self, r0: int, r1: int, c0: int, c1: int) -> "_Region":
        """Window relative to this region (like ``view[r0:r1, c0:c1]``)."""
        return _Region(self.base, self.start, self.base_rows, self.base_cols,
                       self.r0 + r0, self.r0 + r1, self.c0 + c0, self.c0 + c1,
                       lane=self.lane, alloc_id=self.alloc_id)

    def quadrants(self) -> Tuple["_Region", "_Region", "_Region", "_Region"]:
        """The four ceil/floor quadrants of Eq. (1), as regions."""
        m1, _ = split_dim(self.rows)
        n1, _ = split_dim(self.cols)
        m, n = self.rows, self.cols
        return (self.sub(0, m1, 0, n1), self.sub(0, m1, n1, n),
                self.sub(m1, m, 0, n1), self.sub(m1, m, n1, n))

    def limit_rows(self, count: int) -> "_Region":
        return self.sub(0, count, 0, self.cols)

    def freeze(self, shift: int = 0):
        """The compact runtime reference the executor resolves per step.

        ``shift`` is the flat base offset of the region's scratch lane
        (zero for operand regions), applied when the compiler finalises the
        lane layout.
        """
        if self.base in (_BASE_A, _BASE_B, _BASE_C):
            return (self.base, (slice(self.r0, self.r1), slice(self.c0, self.c1)))
        start = self.start + shift
        stop = start + self.base_rows * self.base_cols
        full = (self.r0 == 0 and self.r1 == self.base_rows
                and self.c0 == 0 and self.c1 == self.base_cols)
        window = None if full else (slice(self.r0, self.r1), slice(self.c0, self.c1))
        return (self.base, start, stop, self.base_rows, self.base_cols, window)


class _SimArena:
    """Compile-time mirror of :class:`repro.core.workspace.Arena`.

    Tracks offsets with the same LIFO discipline so that the frozen
    references point exactly where the live recursion would have placed its
    scratch, and records the high-water mark that sizes the pooled arena.

    With ``lanes > 1`` allocations are dealt round-robin onto independent
    lane stacks; each lane keeps the LIFO discipline (matched alloc/release
    pairs of a properly nested sequence stay properly nested under any
    assignment of whole pairs to lanes) and the arena's requirement becomes
    the sum of the per-lane high-water marks.
    """

    def __init__(self, base: int, lanes: int = 1) -> None:
        self.base = base
        self.lanes = lanes
        self._dealt = 0
        self.offsets = [0] * lanes
        self.high_waters = [0] * lanes
        self._stacks: List[List[Tuple[int, int]]] = [[] for _ in range(lanes)]
        self._alloc_serial = 0

    @property
    def high_water(self) -> int:
        return sum(self.high_waters)

    def lane_bases(self) -> List[int]:
        """Flat offset of each lane once lanes are laid out back to back."""
        bases, acc = [], 0
        for hw in self.high_waters:
            bases.append(acc)
            acc += hw
        return bases

    def allocate(self, rows: int, cols: int) -> _Region:
        lane = self._dealt % self.lanes
        self._dealt += 1
        offset = self.offsets[lane]
        self._alloc_serial += 1
        region = _Region.whole(self.base, rows, cols, start=offset, lane=lane,
                               alloc_id=(self.base, self._alloc_serial))
        self._stacks[lane].append((offset, rows * cols))
        self.offsets[lane] = offset + rows * cols
        self.high_waters[lane] = max(self.high_waters[lane], self.offsets[lane])
        return region

    def release(self, region: _Region) -> None:
        start, need = self._stacks[region.lane].pop()
        assert start == region.start and need == region.base_rows * region.base_cols
        self.offsets[region.lane] = start


@dataclasses.dataclass(frozen=True)
class StepDag:
    """The step dependency graph of a compiled plan.

    Edges always point forward in plan order (``u < v``), so any
    topological execution retires conflicting steps — in particular the
    accumulation chains into shared output regions — in exactly the
    sequential replay order, which is what keeps DAG execution bit-identical
    to :func:`execute_plan`.

    Attributes
    ----------
    preds:
        Per-step predecessor count (steps with count 0 are initially ready).
    succs:
        Per-step tuple of successor step indices.
    n_edges:
        Total number of dependency edges.
    critical_path:
        Length (in steps) of the longest dependency chain — the makespan
        lower bound in steps under unlimited workers.
    max_width:
        Largest number of steps sharing a dependency depth — an upper bound
        on how many steps can ever be in flight together.
    costs:
        Per-step estimated cost in flop-equivalents (moved elements for
        ``zero``/``add`` steps), or ``()`` on DAGs built without cost
        information.
    priorities:
        Per-step *bottom level*: the step's own cost plus the costliest
        downstream dependency chain hanging off it.  The DAG executor pops
        the highest priority first so the critical path drains ahead of
        leaf work; ties break by step index, and any pop order is
        bit-identical anyway (the DAG already serialises every conflicting
        pair).
    """

    preds: Tuple[int, ...]
    succs: Tuple[Tuple[int, ...], ...]
    n_edges: int
    critical_path: int
    max_width: int
    costs: Tuple[int, ...] = ()
    priorities: Tuple[int, ...] = ()

    @property
    def n_steps(self) -> int:
        return len(self.preds)

    @property
    def parallelism(self) -> float:
        """Average available parallelism (steps / critical path)."""
        return self.n_steps / self.critical_path if self.critical_path else 0.0


def _step_accesses(step) -> List[Tuple[_Region, bool]]:
    """``(region, is_write)`` pairs for one pending (un-frozen) step.

    The ``+=`` kernels read *and* write their destination; a write entry
    subsumes the read for conflict purposes.
    """
    op = step[0]
    if op == OP_SYRK:
        return [(step[1], False), (step[2], True)]
    if op == OP_GEMM:
        return [(step[1], False), (step[2], False), (step[3], True)]
    if op == OP_ADD:
        return [(step[2], False), (step[1], True)]
    return [(step[1], True)]  # OP_ZERO


def _dag_metrics(succs, costs):
    """``(critical_path, max_width, priorities)`` for a forward-edge DAG."""
    n = len(succs)
    depth = [1] * n
    for u in range(n):
        next_depth = depth[u] + 1
        for v in succs[u]:
            if depth[v] < next_depth:
                depth[v] = next_depth
    critical_path = max(depth) if n else 0
    width: Dict[int, int] = {}
    for d in depth:
        width[d] = width.get(d, 0) + 1
    # bottom level: own cost plus the costliest downstream chain, computed
    # backwards (edges only point forward, so successors are already final)
    prio = list(costs)
    for u in range(n - 1, -1, -1):
        best = 0
        for v in succs[u]:
            if prio[v] > best:
                best = prio[v]
        prio[u] += best
    return critical_path, (max(width.values()) if width else 0), tuple(prio)


def _build_dag(pending_steps: List[tuple],
               costs: Optional[List[int]] = None) -> StepDag:
    """Derive the dependency graph from the steps' read/write sets.

    For every storage region the builder keeps the last writing step and
    the readers since that write; a new access links after the last writer
    (read-after-write / write-after-write) and, when itself a write, after
    the readers (write-after-read) of every conflicting region.  Older
    conflicting accesses are already ordered before those through the same
    rule, so the transitive closure covers every conflicting pair — in
    particular, accumulation chains into a shared output region become
    ordered chains in plan order, which is the deterministic-accumulation
    rule that keeps DAG execution bit-identical to sequential replay.

    Conflicts are found structurally rather than by scanning all history:

    * The ``A``/``B`` operands are never written by any step, so their
      reads cannot conflict and are skipped outright.
    * ``C``-operand accesses are grouped by exact rectangle; distinct
      rectangles are cross-linked through symmetric overlap lists computed
      once when a rectangle first appears (for the emitted quadrant
      decompositions distinct output rectangles are disjoint, so these
      lists are empty in practice).
    * Arena accesses are grouped by *allocation identity*: two live
      allocations never share arena bytes (stack discipline), so only
      windows of the same allocation are geometry-checked.  Reuse of a
      released allocation's range is caught at the reusing allocation's
      first touch — always its covering ``OP_ZERO``, emitted before any
      other access — which links after every access of the dead
      allocations whose flat segments it overlaps (tracked in a per-lane
      occupancy list, segment-split on partial reuse).
    """
    n = len(pending_steps)
    succs: List[List[int]] = [[] for _ in range(n)]
    preds = [0] * n
    edge_count = [0]

    # C operand: exact rect -> [last_writer, readers]; symmetric overlap
    # lists between distinct rects, built when a rect first appears.
    c_groups: Dict[tuple, list] = {}
    c_rects: List[tuple] = []
    c_overlaps: Dict[tuple, List[tuple]] = {}

    # arenas: alloc_id -> list of [rect, last_writer, readers];
    # (base, lane) -> occupancy segments [start, end, alloc_id]
    alloc_groups: Dict[tuple, List[list]] = {}
    occupancy: Dict[tuple, List[list]] = {}

    def link(src, idx, linked):
        if src is None or src == idx or src in linked:
            return
        linked.add(src)
        succs[src].append(idx)
        preds[idx] += 1
        edge_count[0] += 1

    def link_group(group, is_write, idx, linked):
        link(group[-2], idx, linked)
        if is_write:
            for reader in group[-1]:
                link(reader, idx, linked)

    for idx, step in enumerate(pending_steps):
        linked = set()
        for region, is_write in _step_accesses(step):
            base = region.base
            if base in (_BASE_A, _BASE_B):
                continue
            rect = (region.r0, region.r1, region.c0, region.c1)
            if base == _BASE_C:
                own_group = c_groups.get(rect)
                if own_group is None:
                    over = [r for r in c_rects
                            if rect[0] < r[1] and r[0] < rect[1]
                            and rect[2] < r[3] and r[2] < rect[3]]
                    for other in over:
                        c_overlaps[other].append(rect)
                    c_overlaps[rect] = over
                    c_rects.append(rect)
                    own_group = c_groups[rect] = [None, []]
                link_group(own_group, is_write, idx, linked)
                for other in c_overlaps[rect]:
                    link_group(c_groups[other], is_write, idx, linked)
            else:
                groups = alloc_groups.get(region.alloc_id)
                if groups is None:
                    # first touch of this allocation (its covering zero):
                    # absorb dead allocations whose bytes it reuses
                    groups = alloc_groups[region.alloc_id] = []
                    space = occupancy.setdefault((base, region.lane), [])
                    start = region.start
                    end = start + region.base_rows * region.base_cols
                    kept = []
                    for seg in space:
                        s, e, old_id = seg
                        if s < end and start < e:
                            for old_group in alloc_groups.get(old_id, ()):
                                link(old_group[-2], idx, linked)
                                for reader in old_group[-1]:
                                    link(reader, idx, linked)
                            if s < start:
                                kept.append([s, start, old_id])
                            if end < e:
                                kept.append([end, e, old_id])
                        else:
                            kept.append(seg)
                    kept.append([start, end, region.alloc_id])
                    space[:] = kept
                own_group = None
                for group in groups:
                    r = group[0]
                    if r == rect:
                        own_group = group
                    if (rect[0] < r[1] and r[0] < rect[1]
                            and rect[2] < r[3] and r[2] < rect[3]):
                        link_group(group, is_write, idx, linked)
                if own_group is None:
                    own_group = [rect, None, []]
                    groups.append(own_group)
            if is_write:
                own_group[-2], own_group[-1] = idx, []
            else:
                own_group[-1].append(idx)

    n_edges = edge_count[0]
    step_costs = list(costs) if costs is not None else [1] * n
    critical_path, max_width, priorities = _dag_metrics(succs, step_costs)
    return StepDag(preds=tuple(preds),
                   succs=tuple(tuple(s) for s in succs),
                   n_edges=n_edges,
                   critical_path=critical_path,
                   max_width=max_width,
                   costs=tuple(step_costs),
                   priorities=priorities)


@dataclasses.dataclass(frozen=True)
class ExecutionPlan:
    """An immutable compiled execution plan.

    Attributes
    ----------
    key:
        The cache key the plan was compiled under (see
        :mod:`repro.engine` for the plan-key contract).
    algo:
        One of :data:`PLAN_KINDS`.
    shape:
        Problem shape: ``(m, n)`` for A^T A kinds, ``(m, n, k)`` for A^T B.
    out_shape:
        Shape of the output matrix ``C``.
    dtype:
        Operand dtype the plan was compiled for.
    steps:
        The ordered kernel steps (opaque tuples consumed by
        :func:`execute_plan`).
    requirement:
        Exact per-arena workspace requirement, or ``None`` when the plan
        needs no scratch space.  With ``lanes > 1`` this is the sum of the
        per-lane requirements, so concurrent steps address disjoint
        scratch.
    ws_shape:
        The ``(m, n, k)`` sizing triple a replacement
        :class:`~repro.core.workspace.StrassenWorkspace` would be built
        with (used by the pool on a miss).
    kernel_counters:
        Pre-aggregated ``(category, calls, flops, byte_elements)`` totals;
        recorded when ``config.count_flops`` is on.  ``byte_elements`` is
        multiplied by the dtype itemsize at execution time.
    step_counters:
        ``(category, calls)`` recursion-step totals recorded
        unconditionally, mirroring ``counters.record`` in the recursions.
    lanes:
        Number of scratch lanes the plan's arena offsets were laid out for.
    dag:
        The step dependency graph (:class:`StepDag`), or ``None`` when the
        plan was compiled for sequential replay only.
    """

    key: tuple
    algo: str
    shape: Tuple[int, ...]
    out_shape: Tuple[int, int]
    dtype: np.dtype
    steps: Tuple[tuple, ...]
    requirement: Optional[_Requirement]
    ws_shape: Optional[Tuple[int, int, int]]
    kernel_counters: Tuple[Tuple[str, int, int, int], ...]
    step_counters: Tuple[Tuple[str, int], ...]
    lanes: int = 1
    dag: Optional[StepDag] = None

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def needs_workspace(self) -> bool:
        return self.requirement is not None


class _Compiler:
    """Shared state for one compilation walk.

    Steps are recorded with live :class:`_Region` operands and frozen only
    in :meth:`finish`, once the lane layout (and hence every arena region's
    flat base offset) is known.
    """

    def __init__(self, model: CacheModel, max_depth: int,
                 lanes: int = 1) -> None:
        self.model = model
        self.max_depth = max_depth
        self.steps: List[tuple] = []
        self.costs: List[int] = []
        self.kernel_totals: Dict[str, List[int]] = {}
        self.step_totals: Dict[str, int] = {}
        self.p = _SimArena(_ARENA_P, lanes)
        self.q = _SimArena(_ARENA_Q, lanes)
        self.m = _SimArena(_ARENA_M, lanes)
        self.lanes = lanes

    # -- counter aggregation ----------------------------------------------
    def _count(self, category: str, flops: int, byte_elements: int) -> None:
        tot = self.kernel_totals.setdefault(category, [0, 0, 0])
        tot[0] += 1
        tot[1] += flops
        tot[2] += byte_elements

    def _count_step(self, category: str) -> None:
        self.step_totals[category] = self.step_totals.get(category, 0) + 1

    # -- step emission ------------------------------------------------------
    def emit_syrk(self, a: _Region, c: _Region) -> None:
        m, n = a.rows, a.cols
        # plans carry only the triangle size; the O(n^2) index arrays are
        # materialised lazily in a bounded shared cache at execution time,
        # so a wide single-syrk plan does not pin megabytes in the LRU
        self.steps.append((OP_SYRK, a, c, n))
        self.costs.append(syrk_flops(m, n))
        self._count("syrk", syrk_flops(m, n), m * n + n * (n + 1) // 2)

    def emit_gemm(self, a: _Region, b: _Region, c: _Region, use_alpha: bool) -> None:
        m, n, k = a.rows, a.cols, b.cols
        self.steps.append((OP_GEMM, a, b, c, use_alpha))
        self.costs.append(gemm_flops(m, n, k))
        self._count("gemm", gemm_flops(m, n, k), m * n + m * k + n * k)

    def emit_add(self, dst: _Region, src: _Region, coef: float, use_alpha: bool) -> None:
        # add_into adds over the overlapping top-left block; truncate both
        # references to that overlap at compile time.
        rows = min(dst.rows, src.rows)
        cols = min(dst.cols, src.cols)
        if rows == 0 or cols == 0:
            return
        self.steps.append((OP_ADD, dst.sub(0, rows, 0, cols),
                           src.sub(0, rows, 0, cols), float(coef), use_alpha))
        self.costs.append(2 * rows * cols)
        self._count("axpy", 2 * rows * cols, 3 * rows * cols)

    def emit_zero(self, region: _Region) -> None:
        self.steps.append((OP_ZERO, region))
        self.costs.append(region.size)

    # -- FastStrassen (mirrors core.strassen._strassen) ---------------------
    def _combine(self, terms, arena: _SimArena):
        """Compile-time analogue of ``strassen._combine``."""
        if len(terms) == 1 and terms[0][1] == 1:
            return terms[0][0], False
        rows = max(t[0].rows for t in terms)
        cols = max(t[0].cols for t in terms)
        buf = arena.allocate(rows, cols)
        self.emit_zero(buf)
        for region, sign in terms:
            if region.size:
                self.emit_add(buf, region, float(sign), False)
        return buf, True

    def strassen(self, a: _Region, b: _Region, c: _Region,
                 use_alpha: bool, depth: int) -> None:
        m, n = a.rows, a.cols
        k = b.cols
        if m == 0 or n == 0 or k == 0:
            return
        if self.model.fits_gemm(m, n, k) or (m <= 1 and n <= 1 and k <= 1):
            self.emit_gemm(a, b, c, use_alpha)
            return
        if depth > self.max_depth:
            raise ShapeError("Strassen recursion exceeded max_recursion_depth; "
                             "check the base-case configuration")
        self._count_step("strassen_step")

        a_q = dict(zip(("11", "12", "21", "22"), a.quadrants()))
        b_q = dict(zip(("11", "12", "21", "22"), b.quadrants()))
        c_q = dict(zip(("11", "12", "21", "22"), c.quadrants()))

        for spec in STRASSEN_PRODUCTS:
            a_terms = [(a_q[qd], s) for qd, s in spec["a"]]
            b_terms = [(b_q[qd], s) for qd, s in spec["b"]]
            a_op, a_owned = self._combine(a_terms, self.p)
            b_op, b_owned = self._combine(b_terms, self.q)
            m_eff = min(a_op.rows, b_op.rows)
            prod = self.m.allocate(a_op.cols, b_op.cols)
            self.emit_zero(prod)
            if m_eff:
                self.strassen(a_op.limit_rows(m_eff), b_op.limit_rows(m_eff),
                              prod, False, depth + 1)
            for target, sign in spec["c"]:
                tgt = c_q[target]
                if tgt.size and prod.size:
                    self.emit_add(tgt, prod, float(sign), use_alpha)
            self.m.release(prod)
            if b_owned:
                self.q.release(b_op)
            if a_owned:
                self.p.release(a_op)

    # -- AtA (mirrors core.ata._ata_recurse) --------------------------------
    def ata(self, a: _Region, c: _Region, depth: int) -> None:
        m, n = a.rows, a.cols
        if m == 0 or n == 0:
            return
        if self.model.fits_ata(m, n) or (m <= 1 and n <= 1):
            self.emit_syrk(a, c)
            return
        if depth > self.max_depth:
            raise ShapeError("AtA recursion exceeded max_recursion_depth; "
                             "check the base-case configuration")
        self._count_step("ata_step")

        a11, a12, a21, a22 = a.quadrants()
        n1, _ = split_dim(n)
        c11 = c.sub(0, n1, 0, n1)
        c22 = c.sub(n1, n, n1, n)
        c21 = c.sub(n1, n, 0, n1)

        self.ata(a11, c11, depth + 1)
        if a21.size:
            self.ata(a21, c11, depth + 1)
        if a12.size:
            self.ata(a12, c22, depth + 1)
        if a22.size:
            self.ata(a22, c22, depth + 1)

        if c21.size:
            if a12.size and a11.size:
                self.strassen(a12, a11, c21, True, depth + 1)
            if a22.size and a21.size:
                self.strassen(a22, a21, c21, True, depth + 1)

    # -- RecursiveGEMM (mirrors core.recursive_gemm._recurse) ----------------
    def recursive_gemm(self, a: _Region, b: _Region, c: _Region, depth: int) -> None:
        m, n = a.rows, a.cols
        k = b.cols
        if m == 0 or n == 0 or k == 0:
            return
        if self.model.fits_gemm(m, n, k) or (m <= 1 and n <= 1 and k <= 1):
            self.emit_gemm(a, b, c, True)
            return
        if depth > self.max_depth:
            raise ShapeError("RecursiveGEMM exceeded max_recursion_depth; "
                             "check the base-case configuration")
        self._count_step("recursive_gemm_step")

        a_q = dict(zip(("11", "12", "21", "22"), a.quadrants()))
        b_q = dict(zip(("11", "12", "21", "22"), b.quadrants()))
        c_q = dict(zip(("11", "12", "21", "22"), c.quadrants()))
        for i in (1, 2):
            for j in (1, 2):
                for l in (1, 2):
                    a_block = a_q[f"{l}{i}"]
                    b_block = b_q[f"{l}{j}"]
                    c_block = c_q[f"{i}{j}"]
                    if a_block.size == 0 or b_block.size == 0 or c_block.size == 0:
                        continue
                    self.recursive_gemm(a_block, b_block, c_block, depth + 1)

    # -- tiled AtA -----------------------------------------------------------
    def tiled_ata(self, a: _Region, c: _Region) -> None:
        m, n = a.rows, a.cols
        tile = max(1, min(n, self.model.capacity_words // max(1, 2 * m)))
        bounds = [(j, min(j + tile, n)) for j in range(0, n, tile)]
        for bi, (i0, i1) in enumerate(bounds):
            for bj, (j0, j1) in enumerate(bounds[:bi + 1]):
                if bi == bj:
                    self.emit_syrk(a.sub(0, m, i0, i1), c.sub(i0, i1, i0, i1))
                else:
                    self.emit_gemm(a.sub(0, m, i0, i1), a.sub(0, m, j0, j1),
                                   c.sub(i0, i1, j0, j1), True)

    # -- finalisation --------------------------------------------------------
    def _freeze_steps(self) -> Tuple[tuple, ...]:
        """Resolve lane base offsets and freeze every pending step."""
        bases = {arena.base: arena.lane_bases()
                 for arena in (self.p, self.q, self.m)}

        def fz(region: _Region):
            shift = 0
            if region.base >= _ARENA_P:
                shift = bases[region.base][region.lane]
            return region.freeze(shift)

        frozen: List[tuple] = []
        for step in self.steps:
            op = step[0]
            if op == OP_SYRK:
                frozen.append((op, fz(step[1]), fz(step[2]), step[3]))
            elif op == OP_GEMM:
                frozen.append((op, fz(step[1]), fz(step[2]), fz(step[3]), step[4]))
            elif op == OP_ADD:
                frozen.append((op, fz(step[1]), fz(step[2]), step[3], step[4]))
            else:
                frozen.append((op, fz(step[1])))
        return tuple(frozen)

    def finish(self, key: tuple, algo: str, shape: Tuple[int, ...],
               out_shape: Tuple[int, int], dtype,
               ws_shape: Optional[Tuple[int, int, int]],
               build_dag: bool = False) -> ExecutionPlan:
        needs_ws = self.p.high_water or self.q.high_water or self.m.high_water
        requirement = None
        if needs_ws:
            # per-lane requirements summed: lanes are stacked back to back,
            # so concurrently executing steps address disjoint scratch
            per_lane = [_Requirement(p_elements=self.p.high_waters[lane],
                                     q_elements=self.q.high_waters[lane],
                                     m_elements=self.m.high_waters[lane],
                                     depth=0)
                        for lane in range(self.lanes)]
            requirement = per_lane[0]
            for extra in per_lane[1:]:
                requirement = requirement + extra
        dag = _build_dag(self.steps, self.costs) if build_dag else None
        return ExecutionPlan(
            key=key, algo=algo, shape=shape, out_shape=out_shape,
            dtype=np.dtype(dtype), steps=self._freeze_steps(),
            requirement=requirement,
            ws_shape=ws_shape if needs_ws else None,
            kernel_counters=tuple((cat, t[0], t[1], t[2])
                                  for cat, t in self.kernel_totals.items()),
            step_counters=tuple(self.step_totals.items()),
            lanes=self.lanes, dag=dag,
        )


def split_rows(m: int, max_rows: int) -> Tuple[Tuple[int, int], ...]:
    """The deterministic row-panel schedule: ``[lo, hi)`` bounds covering
    ``0..m`` in ascending order, every panel ``max_rows`` tall except a
    ragged last one.

    This is the sharding analogue of the plan compiler's quadrant walk —
    a pure function of ``(m, max_rows)``, so two runs (or two sources
    feeding the same matrix) always see the identical panel sequence,
    which is what makes out-of-core accumulation reproducible bit for bit
    (see :mod:`repro.engine.ooc`).
    """
    if m < 1:
        raise ShapeError(f"cannot panel an empty row range, got m={m}")
    if max_rows < 1:
        raise ShapeError(f"panel rows must be >= 1, got {max_rows}")
    return tuple((lo, min(lo + max_rows, m)) for lo in range(0, m, max_rows))


def compile_plan(algo: str, shape: Tuple[int, ...], dtype, model: CacheModel,
                 key: Optional[tuple] = None, lanes: int = 1,
                 build_dag: Optional[bool] = None,
                 max_depth: Optional[int] = None) -> ExecutionPlan:
    """Compile one execution plan.

    Parameters
    ----------
    algo:
        One of :data:`PLAN_KINDS`.
    shape:
        ``(m, n)`` for the A^T A kinds (``syrk``/``ata``/``tiled``),
        ``(m, n, k)`` for the A^T B kinds (``strassen``/``recursive_gemm``).
    dtype:
        Operand dtype (affects only the workspace the plan will request).
    model:
        The :class:`~repro.cache.model.CacheModel` providing the base-case
        predicates; the walk consults it exactly as the live recursion
        would.
    key:
        The cache key to stamp on the plan (defaults to a local tuple).
    lanes:
        Scratch lanes to spread arena allocations over (``1`` reproduces
        the sequential LIFO layout; more lanes decouple scratch reuse so
        the DAG executor can overlap Strassen products, at the cost of up
        to ``lanes``× the sequential workspace).
    build_dag:
        Whether to derive the step dependency graph; defaults to
        ``lanes > 1``.  Sequential replay ignores the DAG either way.
    max_depth:
        Recursion-depth limit of the walk (``None`` reads
        ``Config.max_recursion_depth``).
    """
    if algo not in PLAN_KINDS:
        raise ShapeError(f"unknown plan kind {algo!r}; expected one of {PLAN_KINDS}")
    if lanes < 1:
        raise ConfigurationError(f"scratch lanes must be >= 1, got {lanes}")
    if build_dag is None:
        build_dag = lanes > 1
    if max_depth is None:
        max_depth = get_config().max_recursion_depth
    comp = _Compiler(model, max_depth, lanes=lanes)
    if algo in ("syrk", "ata", "tiled"):
        m, n = shape
        a = _Region.whole(_BASE_A, m, n)
        c = _Region.whole(_BASE_C, n, n)
        out_shape = (n, n)
        ws_shape: Optional[Tuple[int, int, int]] = None
        if algo == "tiled":
            comp.tiled_ata(a, c)
        elif algo == "syrk" or comp.model.fits_ata(m, n) or (m <= 1 and n <= 1):
            # ata() short-circuits to a single syrk call on fitting shapes.
            comp.emit_syrk(a, c)
        else:
            m1, _ = split_dim(m)
            n1, _ = split_dim(n)
            ws_shape = (m1, n1, n1)
            comp.ata(a, c, depth=0)
    else:
        m, n, k = shape
        a = _Region.whole(_BASE_A, m, n)
        b = _Region.whole(_BASE_B, m, k)
        c = _Region.whole(_BASE_C, n, k)
        out_shape = (n, k)
        ws_shape = (m, n, k)
        if comp.model.fits_gemm(m, n, k) or (m <= 1 and n <= 1 and k <= 1):
            comp.emit_gemm(a, b, c, True)
        elif algo == "strassen":
            comp.strassen(a, b, c, True, depth=0)
        else:
            comp.recursive_gemm(a, b, c, depth=0)
    if key is None:
        key = (algo, shape, np.dtype(dtype).str, model.capacity_words, lanes)
    return comp.finish(key, algo, tuple(shape), out_shape, dtype, ws_shape,
                       build_dag=build_dag)


def _resolve(ref, a, b, c, p, q, m):
    """Materialise a frozen operand reference into a live numpy view."""
    base = ref[0]
    if base == _BASE_A:
        return a[ref[1]]
    if base == _BASE_B:
        return b[ref[1]]
    if base == _BASE_C:
        return c[ref[1]]
    buf = p if base == _ARENA_P else q if base == _ARENA_Q else m
    view = buf[ref[1]:ref[2]].reshape(ref[3], ref[4])
    window = ref[5]
    return view if window is None else view[window]


def run_step(step, a, b, c, p, q, m, alpha: float) -> None:
    """Execute one frozen plan step against live operands.

    The kernel expressions reproduce the base-case kernels of
    :mod:`repro.blas.kernels` exactly (the same syrk leaf, the same numpy
    expressions, the same ``alpha == 1.0`` short-circuits), which is what
    keeps plan execution — sequential or DAG-scheduled — bit-for-bit
    identical to the direct recursions.  Both :func:`execute_plan` and the
    :class:`~repro.engine.dag.DagExecutor` route every step through this
    single function so the two paths cannot drift apart.
    """
    op = step[0]
    if op == OP_GEMM:
        av = _resolve(step[1], a, b, c, p, q, m)
        bv = _resolve(step[2], a, b, c, p, q, m)
        cv = _resolve(step[3], a, b, c, p, q, m)
        coef = alpha if step[4] else 1.0
        if coef == 1.0:
            cv += av.T @ bv
        else:
            cv += coef * (av.T @ bv)
    elif op == OP_ADD:
        dst = _resolve(step[1], a, b, c, p, q, m)
        src = _resolve(step[2], a, b, c, p, q, m)
        coef = step[3] * (alpha if step[4] else 1.0)
        if coef == 1.0:
            dst += src
        else:
            dst += coef * src
    elif op == OP_SYRK:
        syrk_leaf(_resolve(step[1], a, b, c, p, q, m),
                  _resolve(step[2], a, b, c, p, q, m), alpha)
    else:  # OP_ZERO
        _resolve(step[1], a, b, c, p, q, m)[...] = 0


def record_plan_counters(plan: ExecutionPlan, itemsize: int) -> None:
    """Record a plan's pre-aggregated counter totals in one shot.

    Shared by the sequential and DAG executors so both report identical
    accounting regardless of scheduling.
    """
    from ..blas import counters  # local import to keep module import light

    if get_config().count_flops and plan.kernel_counters:
        for category, calls, flops, byte_elements in plan.kernel_counters:
            counters.record(category, flops=flops,
                            bytes=byte_elements * itemsize, calls=calls)
    for category, calls in plan.step_counters:
        counters.record(category, calls=calls)


def execute_plan(plan: ExecutionPlan, a: np.ndarray, c: np.ndarray,
                 alpha: float = 1.0, workspace=None,
                 b: Optional[np.ndarray] = None) -> np.ndarray:
    """Replay a compiled plan on concrete operands, in plan order.

    The step expressions reproduce the base-case kernels of
    :mod:`repro.blas.kernels` exactly (see :func:`run_step`), so the result
    is bit-for-bit identical to running the original recursion; validation
    and counter bookkeeping are hoisted out of the per-step loop.

    Parameters
    ----------
    plan:
        The compiled :class:`ExecutionPlan`.
    a, b, c:
        Operands; ``b`` is required for the A^T B kinds and must be ``None``
        otherwise.
    alpha:
        The runtime scalar the plan's symbolic alpha resolves to.
    workspace:
        A :class:`~repro.core.workspace.StrassenWorkspace` whose arenas are
        at least as large as ``plan.requirement`` (only when
        ``plan.needs_workspace``).  The plan addresses the arenas by raw
        offset, so the workspace's own stack bookkeeping is bypassed.
    """
    p = q = m = None
    if plan.needs_workspace:
        if workspace is None:
            raise ShapeError(f"plan {plan.key} requires a workspace "
                             f"({plan.requirement}) but none was supplied")
        p, q, m = workspace.flat_buffers()

    for step in plan.steps:
        run_step(step, a, b, c, p, q, m, alpha)

    record_plan_counters(plan, a.dtype.itemsize)
    return c
