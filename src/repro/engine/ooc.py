"""Out-of-core panel-sharded A^T A: stream row panels through the engine.

The Gram product is a sum over rows — ``A^T A = Σ_p A_p^T A_p`` for any
row partition of ``A`` — which makes it the textbook out-of-core workload:
stream budget-sized row panels of ``A``, run each panel's Gram update
through the in-memory :class:`~repro.engine.dispatch.ExecutionEngine`
(reusing its plan cache, workspace pool, backend registry and DAG
workers per panel), and accumulate into one resident ``C``.  The input
never has to fit in memory; only the **working set** does:

    resident = C (n x n) + the loaded panel of A

:class:`ShardedAtA` sizes the panels from a byte budget
(the per-call ``budget=``; 0, the default, is unbounded), raising :class:`~repro.errors.BudgetError` when even one
row's working set cannot fit, and records the peak resident bytes it
actually materialised into the engine's stats.

Determinism contract
--------------------
The panel schedule is a pure function of ``(m, panel_rows)``
(:func:`~repro.engine.plan.split_rows`: ascending, fixed) and panels are
accumulated strictly in that order, so for a **fixed schedule** the result
is bit-identical (``np.array_equal``) across runs and across source kinds
(in-memory array, ``np.memmap``, chunk stream) — the streaming machinery
never touches values.  Two schedules differ only in how the
floating-point row sum is associated:

* **single panel** (the input fits the budget): the one engine call *is*
  ``matmul_ata`` — bit-identical to the in-memory engine by construction;
* **multi panel**: bit-identical to calling ``engine.matmul_ata`` once
  per panel on in-memory row slices in schedule order (the reference the
  test suite checks against every source kind).  It is
  *not* bit-identical to a differently-associated sum — one whole-matrix
  kernel call rounds differently — which is the same caveat BLAS itself
  carries for any blocked reduction.

A budget-*derived* schedule depends only on ``(shape, dtype, budget)``,
so it is the same on every host.  The process farm charges one panel per
worker, so there pin ``panel_rows`` when results must reproduce across
``procs`` values.

Sources
-------
Anything exposing ``shape``/``dtype``/``panels(bounds)`` works; three
adapters cover the practical cases (:func:`as_source` picks one):

* :class:`ArraySource` — an in-memory ``ndarray``; panels are views
  (nothing is copied — but the scheduled window is charged against the
  budget all the same, so schedules and results never depend on the
  source kind).
* :class:`MemmapSource` — an ``np.memmap`` (or any array you want staged
  explicitly); the in-process stream **copies** each panel into RAM so
  the compute kernels never fault pages mid-kernel.  When the memmap is
  a row-contiguous view of a shared file mapping,
  :meth:`MemmapSource.file_region` names the file bytes behind it, and
  the process farm's workers read their panels from the file themselves
  (the parent copies nothing).
* :class:`ChunkSource` — a forward-only iterator of row chunks with a
  declared ``(shape, dtype)``; chunk boundaries need not match panel
  boundaries (an internal stitch buffer re-slices them), so synthetic
  streams and record readers plug in without ever materialising ``A``.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Iterable, Iterator, NamedTuple, Optional, Tuple, Union

import numpy as np

from .. import faults
from ..blas.kernels import scale, validate_c, validate_matrix
from ..cache.model import CacheModel
from ..errors import BudgetError, DTypeError, ShapeError
from .plan import split_rows

__all__ = ["ShardedAtA", "OocRunStats", "ArraySource", "MemmapSource",
           "ChunkSource", "as_source", "matmul_ata_ooc", "run_ooc"]

Bounds = Tuple[Tuple[int, int], ...]


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------

class ArraySource:
    """Panel source over an in-memory ``ndarray`` — panels are row views.

    Nothing is copied: the caller already holds the whole array.  The
    budget and the resident accounting still charge the scheduled panel
    window uniformly across source kinds — that keeps a budget-derived
    schedule (and hence the result, bit for bit) identical whether the
    same matrix arrives as an array, a memmap or a stream.  Use
    :class:`MemmapSource` when the backing store is disk and panels must
    be staged into RAM explicitly.

    ``a`` passes the operand contract's ``A`` rule
    (:func:`~repro.blas.kernels.validate_matrix`, finiteness included
    under ``Config.strict_finite``) here, at construction: both
    out-of-core executors build their source before they touch ``C``, so
    a refused random-access operand leaves ``C`` untouched.
    """

    def __init__(self, a: np.ndarray) -> None:
        self._a = validate_matrix(a)
        self.shape = a.shape
        self.dtype = a.dtype

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows ``[lo, hi)`` as a view: an array source is random
        access, so any panel can be read again (the farm's recovery
        relies on it)."""
        return self._a[lo:hi]

    def panels(self, bounds: Bounds) -> Iterator[np.ndarray]:
        for lo, hi in bounds:
            yield self.rows(lo, hi)


class FileRegion(NamedTuple):
    """Where a memmap's bytes live in its file: row ``r`` of ``A`` is the
    ``row_bytes`` bytes at ``offset + r * row_bytes`` of the file
    ``path``, which must still be the file ``(dev, ino)``."""

    path: str
    dev: int
    ino: int
    offset: int
    row_bytes: int


def _shared_file_mapping(lo: int, hi: int) -> Optional[Tuple[str, int, int,
                                                             int]]:
    """``(path, dev, inode, file offset of address lo)`` when the bytes
    ``[lo, hi)`` of this process lie in one ``MAP_SHARED`` mapping of a
    file, from the kernel's own table (``/proc/self/maps``); ``None``
    otherwise, and wherever that table does not exist."""
    try:
        with open("/proc/self/maps") as fh:
            table = fh.read()
    except OSError:
        return None
    for line in table.splitlines():
        fields = line.split(maxsplit=5)
        start, end = (int(x, 16) for x in fields[0].split("-"))
        if end <= lo:
            continue
        # the first mapping reaching past lo must hold the whole range
        if start > lo or end < hi or len(fields) < 6:
            return None
        perms, offset, dev, inode, path = fields[1:]
        if perms[3] != "s" or inode == "0":
            return None  # private (copy-on-write) or anonymous
        major, minor = (int(x, 16) for x in dev.split(":"))
        return (path, os.makedev(major, minor), int(inode),
                int(offset, 16) + lo - start)
    return None


class MemmapSource(ArraySource):
    """Panel source that stages each panel into RAM with an explicit copy.

    The natural wrapper for ``np.memmap``: slicing a memmap yields a lazy
    view whose pages fault in *during* the compute kernel, which makes
    the resident set unaccountable.  Copying the slice up front turns the
    load into one sequential read, and the copy is exactly what the
    budget meters.
    """

    def panels(self, bounds: Bounds) -> Iterator[np.ndarray]:
        for lo, hi in bounds:
            yield np.array(self.rows(lo, hi), copy=True)

    def file_region(self) -> Optional[FileRegion]:
        """The file bytes behind this memmap, or ``None`` when reading
        the file would not give the memmap's values.

        The region is derived from the mapping itself, not from
        ``np.memmap.offset`` (which a sliced memmap inherits unchanged
        from its parent).  ``None`` unless the rows are contiguous bytes
        (no column slice, no Fortran order), the mapping is
        ``MAP_SHARED`` (a ``mode="c"`` memmap keeps its in-memory writes
        private) and its path still names the mapped file.
        """
        a = self._a
        if not a.flags.c_contiguous:
            return None
        lo = a.ctypes.data
        mapping = _shared_file_mapping(lo, lo + a.nbytes)
        if mapping is None:
            return None
        path, dev, ino, offset = mapping
        try:
            st = os.stat(path)
        except OSError:
            return None  # unlinked, or renamed away
        if (st.st_dev, st.st_ino) != (dev, ino):
            return None  # the path now names another file
        return FileRegion(path, dev, ino, offset, a.shape[1] * a.itemsize)


class ChunkSource:
    """Panel source over a forward-only iterator of row chunks.

    Parameters
    ----------
    chunks:
        Iterable of 2-D arrays, each carrying the next rows of ``A`` in
        order.  Chunk heights are arbitrary — they are stitched and
        re-sliced into the requested panel bounds — but every chunk must
        be ``n`` columns wide and share the declared dtype, and the total
        row count must equal ``shape[0]`` (checked as the stream drains).
    shape, dtype:
        The full logical ``(m, n)`` shape and element dtype, declared up
        front because a stream cannot be asked for them.

    This is the synthetic-stream protocol: generators, record readers or
    network feeds supply Gram updates without ever materialising ``A``.
    A chunk is the *caller's* materialisation: one taller than the panel
    height stays resident (as the stitch buffer's tail) until its rows
    are consumed, so keep chunks at or below the panel height when the
    memory budget matters.

    A stream cannot be checked before it is read: a chunk refused
    mid-stream (a wrong shape or dtype, or a non-finite value under
    ``Config.strict_finite``) raises after the earlier panels were
    accumulated, leaving ``C`` partly accumulated.
    """

    def __init__(self, chunks: Iterable[np.ndarray],
                 shape: Tuple[int, int], dtype) -> None:
        m, n = shape
        if m < 1 or n < 1:
            raise ShapeError(f"declared shape must be positive, got {shape}")
        self._chunks = iter(chunks)
        self.shape = (int(m), int(n))
        self.dtype = np.dtype(dtype)

    def _check(self, chunk) -> np.ndarray:
        """Validate one delivered chunk — ``n`` columns wide, of the
        declared dtype — and return it ready to stitch."""
        chunk = np.asarray(chunk)
        n = self.shape[1]
        if len(chunk.shape) != 2 or chunk.shape[1] != n:
            raise ShapeError(
                f"stream chunk must have shape (rows, {n}), got {chunk.shape}")
        if chunk.dtype != self.dtype:
            raise DTypeError(
                f"stream chunk dtype {chunk.dtype} does not match the "
                f"declared {self.dtype}")
        return chunk

    def panels(self, bounds: Bounds) -> Iterator[np.ndarray]:
        m = self.shape[0]
        pending: list = []          # buffered rows not yet handed out
        pending_rows = 0
        consumed = 0                # rows already handed out as panels
        exhausted = False
        for lo, hi in bounds:
            if lo != consumed:
                raise ShapeError(
                    f"chunk sources are forward-only: panel [{lo}, {hi}) "
                    f"requested but the stream is at row {consumed}")
            need = hi - lo
            while pending_rows < need and not exhausted:
                try:
                    chunk = self._check(next(self._chunks))
                except StopIteration:
                    exhausted = True
                    break
                if chunk.shape[0]:
                    pending.append(chunk)
                    pending_rows += chunk.shape[0]
            if pending_rows < need:
                raise ShapeError(
                    f"stream ended early: declared {m} rows but only "
                    f"{consumed + pending_rows} arrived")
            # take exactly `need` rows, splitting only the boundary chunk
            # (never re-concatenating the whole buffer: copies stay linear
            # in the rows delivered however chunk and panel sizes align)
            take = []
            taken = 0
            while taken < need:
                chunk = pending[0]
                if taken + chunk.shape[0] <= need:
                    take.append(pending.pop(0))
                    taken += chunk.shape[0]
                else:
                    split = need - taken
                    take.append(chunk[:split])
                    pending[0] = chunk[split:]
                    taken = need
            pending_rows -= need
            panel = take[0] if len(take) == 1 else np.concatenate(take)
            consumed += need
            yield panel
        if pending_rows:
            raise ShapeError(
                f"stream carries more rows than the declared {m} "
                f"(at least {consumed + pending_rows})")
        if not exhausted:
            # drain the tail with the same validation as the main loop, so
            # a malformed trailing chunk gets the same error and empty
            # trailing chunks cannot mask an over-long stream
            for extra in self._chunks:
                if self._check(extra).shape[0]:
                    raise ShapeError(
                        f"stream carries more rows than the declared {m}")


def as_source(a) -> Union[ArraySource, MemmapSource, ChunkSource]:
    """Adapt ``a`` into a panel source.

    ``np.memmap`` becomes a staging :class:`MemmapSource` and any other
    ``ndarray`` a view-based :class:`ArraySource`; objects already
    exposing the source protocol (``shape``/``dtype``/``panels``) pass
    through.  Anything else — a bare iterator, a scipy sparse matrix —
    is refused with :class:`~repro.errors.ShapeError`: wrap a stream in
    a :class:`ChunkSource` with a declared shape and dtype, and densify
    a sparse matrix first.  Both executors call this before they touch
    ``C``.
    """
    if isinstance(a, np.memmap):
        return MemmapSource(a)
    if isinstance(a, np.ndarray):
        return ArraySource(a)
    if hasattr(a, "shape") and hasattr(a, "dtype") and hasattr(a, "panels"):
        return a
    raise ShapeError(
        f"cannot adapt {type(a).__name__} into a panel source; pass an "
        "ndarray, an np.memmap or a ChunkSource(chunks, shape, dtype)")


# ---------------------------------------------------------------------------
# executor
# ---------------------------------------------------------------------------

def short_stream_error(consumed: int, scheduled: int) -> ShapeError:
    """The error of a source whose ``panels()`` stopped short: it would
    otherwise yield a silently partial Gram."""
    return ShapeError(
        f"panel stream ended after {consumed} of {scheduled} scheduled "
        "panels; the source delivered fewer panels than its declared "
        "shape promised")


def working_set_bytes(n: int, itemsize: int, outputs: int, rows: int) -> int:
    """Bytes an out-of-core executor holds with ``rows`` panel rows
    staged: ``C`` and ``outputs`` more ``n x n`` accumulators, plus the
    staged rows."""
    return ((1 + outputs) * n * n + rows * n) * itemsize


def panel_schedule(shape: Tuple[int, int], dtype, budget: int,
                   panel_rows: Optional[int], *, outputs: int, buffers: int,
                   buffer_noun: str, remedy: str) -> Tuple[Bounds, int]:
    """Solve an out-of-core panel schedule: ``(panel bounds, budget)``.

    Every out-of-core executor holds ``C``, ``outputs`` more ``n x n``
    accumulators and ``buffers`` panels of ``rows`` rows at once::

        resident = (1 + outputs)·n²·s + buffers·rows·n·s  <=  budget

    The in-process stream has ``outputs = 0`` and one buffer; the process
    farm has ``outputs = buffers = procs``.  A finite budget sizes
    ``rows`` as large as fits and validates an explicit ``panel_rows``;
    :class:`BudgetError` names the working set (``buffer_noun``), the
    smallest feasible one and the ``remedy``.  A budget of 0 is
    unbounded.  ``panel_rows`` below 1 is a :class:`ShapeError` whatever
    the budget.
    """
    m, n = shape
    if m < 1 or n < 1:
        raise ShapeError(f"A must have positive dimensions, got {shape}")
    if panel_rows is not None and panel_rows < 1:
        raise ShapeError(f"panel_rows must be >= 1, got {panel_rows}")
    budget = int(budget)
    if budget < 0:
        raise BudgetError(f"budget must be >= 0 bytes, got {budget}")
    if budget:
        itemsize = np.dtype(dtype).itemsize
        held = working_set_bytes(n, itemsize, outputs, 0)
        row_bytes = n * itemsize
        headroom = budget - held
        fit = headroom // (buffers * row_bytes) if headroom > 0 else 0
        if panel_rows is None:
            panel_rows = int(min(m, fit))
        else:
            panel_rows = min(panel_rows, m)
        if panel_rows < 1 or panel_rows > fit:
            rows = max(panel_rows, 1)
            outputs_text = (f" plus {outputs} worker output arena(s)"
                            if outputs else "")
            raise BudgetError(
                f"memory budget of {budget} bytes cannot hold the {n}x{n} "
                f"output{outputs_text} ({held} bytes) plus {buffers} "
                f"{buffer_noun} of {rows} x {n} rows "
                f"({buffers * rows * row_bytes} bytes); the smallest "
                f"feasible working set is {held + buffers * row_bytes} "
                f"bytes — raise budget=, or {remedy}")
    elif panel_rows is None:
        panel_rows = m
    return split_rows(m, min(panel_rows, m)), budget


def prepare_output(source, c: Optional[np.ndarray], beta: float
                   ) -> np.ndarray:
    """``C`` for an out-of-core run over ``source``: allocated, or checked
    by the operand contract's ``C`` rule
    (:func:`repro.blas.kernels.validate_c`), exactly as
    :meth:`~repro.engine.dispatch.ExecutionEngine.matmul_ata` checks it;
    then pre-scaled by ``beta`` once, so panels accumulate with
    ``beta = 1``."""
    c = validate_c(source, c, beta=beta)
    scale(c, beta)
    return c


@dataclasses.dataclass(frozen=True)
class OocRunStats:
    """Accounting of one out-of-core run.

    Attributes
    ----------
    panels:
        Panels the schedule streamed (1 = the input fit the budget).
    panel_rows:
        Rows per full panel (the last panel may be ragged).
    bytes_resident_high:
        High-water mark of the executor's working set: ``C`` plus the
        widest scheduled panel.  Charged uniformly across source kinds
        (a view source borrows its window from the caller's array instead
        of copying it), so this always agrees with the budget admission
        check and never exceeds ``budget_bytes`` when one is set.
    budget_bytes:
        The budget the schedule was sized against (0 = unbounded).
    workspace_bytes:
        The engine workspace pool's footprint (idle + checked-out
        scratch) when the run finished.  Pooled scratch is the one
        engine-side allocation that outlives a panel, so it is the part
        of the working set the resident accounting above cannot see.
    workspace_trimmed:
        Idle pooled workspaces dropped before the run so that pooled
        scratch plus the panel-resident set fit ``budget_bytes``
        together (0 when unbounded or nothing needed dropping).
        Trimming only ever frees memory — it never alters the panel
        schedule, so the determinism contract is untouched.
    """

    panels: int
    panel_rows: int
    bytes_resident_high: int
    budget_bytes: int
    workspace_bytes: int = 0
    workspace_trimmed: int = 0


class ShardedAtA:
    """Panel-sharded out-of-core executor for ``C = alpha*A^T A + beta*C``.

    ``engine`` is the :class:`~repro.engine.dispatch.ExecutionEngine`
    every panel executes through (default: the process-wide engine).
    Panels of equal height resolve to one cached plan and share pooled
    workspaces, so the whole stream pays one compile — the engine's
    amortisation machinery is reused per panel, not reinvented.  The
    budget and panel height are per-call arguments of :meth:`run`.
    """

    def __init__(self, engine=None) -> None:
        if engine is None:
            from .dispatch import default_engine
            engine = default_engine()
        self.engine = engine

    # -- schedule -----------------------------------------------------------
    @staticmethod
    def schedule(shape: Tuple[int, int], dtype,
                 budget: int = 0,
                 panel_rows: Optional[int] = None) -> Tuple[Bounds, int]:
        """Resolve ``(panel bounds, effective budget)`` for a run.

        The resident set of one panel iteration is ``C`` (``n*n``
        elements) plus one panel of ``rows*n`` elements.  A finite budget
        sizes ``rows`` as large as fits; :class:`BudgetError` names the
        shortfall when not even one row fits (or when an explicit
        ``panel_rows`` overshoots).  ``budget=0`` is unbounded.
        """
        return panel_schedule(
            shape, dtype, budget, panel_rows, outputs=0, buffers=1,
            buffer_noun="panel buffer(s)", remedy="shrink the panel")

    # -- streaming ----------------------------------------------------------
    @staticmethod
    def _faulted_panels(panels: Iterator[np.ndarray]) -> Iterator[np.ndarray]:
        """Wrap a panel iterator with the ``ooc.stream`` fault site.

        Only interposed when a fault spec is armed — the production
        stream never pays the per-panel site evaluation.  ``truncate``
        ends the stream early; the executor's panel count check turns
        that into the same :class:`ShapeError` a genuinely short custom
        source would earn.
        """
        for index, panel in enumerate(panels):
            if faults.maybe("ooc.stream", index=index) == "truncate":
                return
            yield panel

    # -- execution ----------------------------------------------------------
    def run(self, a, c: Optional[np.ndarray] = None, alpha: float = 1.0, *,
            beta: float = 1.0, algo: str = "auto",
            cache: Optional[CacheModel] = None,
            budget: int = 0, panel_rows: Optional[int] = None
            ) -> Tuple[np.ndarray, OocRunStats]:
        """Stream ``a`` through the engine; returns ``(C, run stats)``.

        ``a`` is anything :func:`as_source` accepts.  ``budget`` is the
        working-set budget in bytes (0, the default, is unbounded);
        ``panel_rows`` pins the
        panel height, which the budget still *validates*.  ``algo`` and
        ``cache`` pass through to every per-panel
        :meth:`~repro.engine.dispatch.ExecutionEngine.matmul_ata` call,
        so backend selection applies at panel granularity.  With a single-panel schedule the one engine
        call is exactly ``matmul_ata(a, c, alpha, beta=beta, ...)``.
        """
        source = as_source(a)
        bounds, eff_budget = self.schedule(source.shape, source.dtype,
                                           budget, panel_rows)
        c = prepare_output(source, c, beta)
        widest = max(hi - lo for lo, hi in bounds)
        # the scheduled panel window is charged uniformly across source
        # kinds (for a view source it is borrowed rather than copied):
        # admission and accounting always agree, and a budget-derived
        # schedule — hence the result, bit for bit — is the same whether
        # the matrix arrives as an array, a memmap or a stream
        resident_high = working_set_bytes(c.shape[1], c.itemsize, 0, widest)
        # budget coordination with the engine's workspace pool: idle
        # pooled scratch left over from earlier (possibly larger) traffic
        # counts against the same budget as the panel-resident set, so
        # shed it down to the headroom the schedule leaves.  This frees
        # memory only — the schedule above is already fixed, so results
        # are unaffected; per-panel plans re-acquire scratch as needed.
        pool = self.engine.pool
        trimmed = 0
        if eff_budget:
            trimmed = pool.trim(max(0, eff_budget - resident_high))
        panels = source.panels(bounds)
        if faults.armed():
            panels = self._faulted_panels(panels)
        consumed = 0
        for panel in panels:
            self.engine.matmul_ata(panel, c, alpha, algo=algo, cache=cache)
            # drop the reference before asking for the next panel: a
            # staging source then never holds two panels at once, which
            # is what the one-panel budget charge pays for
            panel = None
            consumed += 1
        if consumed != len(bounds):
            raise short_stream_error(consumed, len(bounds))
        stats = OocRunStats(panels=len(bounds),
                            panel_rows=widest,
                            bytes_resident_high=resident_high,
                            budget_bytes=eff_budget,
                            workspace_bytes=pool.footprint(),
                            workspace_trimmed=trimmed)
        self.engine._record_ooc(stats)
        return c, stats


# ---------------------------------------------------------------------------
# module-level conveniences (default engine)
# ---------------------------------------------------------------------------

def run_ooc(a, c: Optional[np.ndarray] = None, alpha: float = 1.0, *,
            beta: float = 1.0, algo: str = "auto",
            cache: Optional[CacheModel] = None,
            budget: int = 0, panel_rows: Optional[int] = None,
            procs: int = 0):
    """Out-of-core ``C = alpha * A^T A + beta * C`` on the default engine,
    returning ``(C, run stats)``; see :class:`ShardedAtA`.  ``procs=0``
    (the default) runs in-process; ``procs>=1``
    fans panels out to worker processes
    (:class:`repro.engine.farm.PanelFarm`)."""
    from .dispatch import default_engine
    return default_engine().run_ooc(
        a, c, alpha, beta=beta, algo=algo, cache=cache, budget=budget,
        panel_rows=panel_rows, procs=procs)


def matmul_ata_ooc(a, c: Optional[np.ndarray] = None, alpha: float = 1.0, *,
                   beta: float = 1.0, algo: str = "auto",
                   cache: Optional[CacheModel] = None,
                   budget: int = 0,
                   panel_rows: Optional[int] = None,
                   procs: int = 0) -> np.ndarray:
    """Out-of-core counterpart of :func:`repro.engine.matmul_ata`: accepts
    arrays, memmaps or chunk streams and returns ``C`` (drop the stats);
    see :class:`ShardedAtA` for the budget and determinism contract and
    :class:`repro.engine.farm.PanelFarm` for ``procs``."""
    result, _ = run_ooc(a, c, alpha, beta=beta, algo=algo, cache=cache,
                        budget=budget, panel_rows=panel_rows, procs=procs)
    return result
