"""Multi-process panel farm: fan out-of-core Gram panels to worker
processes over shared memory, healing worker loss in flight.

:class:`~repro.engine.ooc.ShardedAtA` streams row panels through the
engine *in-process*: one Python interpreter, one GIL, one core.  The
farm keeps its schedule and budget discipline but moves the per-panel
Gram updates into a pool of worker **processes**, each running the full
engine stack (plan cache, workspace pool, backend registry) on its own
interpreter:

* each worker owns a ``multiprocessing.shared_memory`` input arena and
  its kernels read the panel straight out of it; no pickling, no pipe
  copies of matrix data.  When ``A`` is a memmap of a shared file
  mapping, the parent sends only row ranges and each worker reads its
  panel from the file into its own arena with ``os.preadv`` (the file
  is opened once per run and checked to be the mapped file by device
  and inode); any
  other source — an in-memory array, a chunk stream, a ``mode="c"``,
  column-sliced or Fortran-order memmap — is staged by the parent, one
  copy per panel into the worker's arena;
* each worker computes a **partial Gram** ``alpha * A_p^T A_p`` into its
  own shared ``n x n`` output arena (a zeroed accumulator per panel);
* the parent folds the partials into the resident ``C`` through a
  deterministic fixed reduction tree.

Determinism contract
--------------------
The reduction tree is keyed only by the panel index: partials are folded
in **ascending panel order** (``C += P_0``, then ``P_1``, …), whatever
order workers finish in and however many workers there are.  A partial's
bits depend only on the panel values and the engine configuration —
never on which worker computed it — so for a fixed panel schedule the
result is bit-identical (``np.array_equal``) across worker counts and
across source kinds.  The same property is what makes **recovery cheap
to make correct**: a panel lost to a dead worker is replayed on a fresh
worker (or in-process) and contributes exactly the bits it would have
contributed, so a healed run equals the fault-free run bit for bit.

Relative to the in-process executor the farm *re-associates* the
floating-point sum: :class:`ShardedAtA` accumulates each panel into the
live ``C`` inside the kernel, the farm adds a kernel-on-zeros partial
afterwards.  For the single-kernel backends (``syrk``, ``tiled``,
``recursive_gemm``, ``blas_direct`` — and every backend when the panel
fits the configured base case) the two chains are identical bit for bit,
because those kernels update each ``C`` element exactly once:
``kernel(c) == c + kernel(0)`` exactly.  For ``syrk`` this holds by
construction of the one syrk leaf, :func:`repro.blas.direct.syrk_leaf`:
it has the bound ``?syrk`` write ``alpha * A_p^T A_p`` into scratch with
``beta = 0`` and then adds that into ``C``.  An in-place ``beta = 1``
update would break the identity for panels taller than a few hundred
rows, because OpenBLAS folds the row blocks of ``A_p`` into ``C`` one
at a time.  The recursive ``ata`` backend
above its base case updates elements more than once, so there — as with
any re-blocked BLAS reduction — the farm agrees with the in-process
result only to rounding.  The test suite pins both statements.

Note the *schedule* itself must be fixed for cross-worker-count
bit-identity: a budget-derived schedule charges ``procs`` input arenas
and ``procs`` output arenas, so changing ``procs`` under a finite budget
legitimately changes the panel height.  Pin ``panel_rows`` when results
must reproduce across worker counts.

Memory budget
-------------
The working set charged against the per-call ``budget=`` is the one
:func:`~repro.engine.ooc.panel_schedule` solves, with ``procs`` output
accumulators and ``procs`` panel buffers::

    resident = (1 + procs) * n*n*itemsize   (C + one output arena/worker)
             + procs * panel_rows * n*itemsize  (one input arena/worker)

:class:`~repro.errors.BudgetError` names the smallest feasible working
set when not even one-row panels fit.  At most ``procs`` panels are ever
staged and un-folded at one instant — an out-of-order finisher idles
until the fold reaches its panel — so the accounting above is a true
high-water bound, not an estimate.  Recovery never raises it for long:
a respawned worker reading the file re-reads its panel; for a staged
panel the replacement input arena is filled *from* the doomed one
before it is released, and the two coexist only for the duration of
that copy.  The degraded in-process completion reads a stream's staged
panels straight out of the surviving arenas and re-reads every other
panel from the source.  The idle warm pool between runs (below)
holds ``procs * (panel_rows*n + n*n) * itemsize`` of arenas outside any
run's budget.

Warm pool
---------
The workers and their arenas outlive a run.  A run that ends cleanly
parks its pool in a per-process slot (at most one idle pool; a second
concurrent run spawns its own, and whichever pool finds the slot taken
on return is stopped), and the next run reuses it when its key matches
exactly: the config snapshot, the worker engine spec, the backend
registry generation, ``procs``, ``n``, the dtype and the widest panel's
row count.  Any mismatch stops the idle pool and spawns a cold one.  A
pooled worker found dead at the start of a run is replaced silently —
no panel was lost, so it is not a respawn (``FarmRunStats.spawned``
counts it).  A run that degrades or raises stops its pool.

Each run is one :func:`_worker_main` call in every worker, on a fresh
engine closed when the run ends, so per-run state (plan cache, DAG
threads) behaves as with a fresh process; :meth:`PanelFarm.run` returns
only after every kept worker has reported the call returned.  The
parent creates each arena under a name, the worker attaches and acks,
and the parent then unlinks the name: the mappings live on in both
processes, so no ``psm_*`` name outlives a run, even when the parent is
SIGKILLed.  The idle pool is stopped by
:meth:`~repro.engine.dispatch.ExecutionEngine.close` and at interpreter
exit; a forked child forgets its parent's pool (closing only its
inherited pipe ends and mappings) and never stops the parent's workers.

Failure handling: heal, then degrade, then fail
-----------------------------------------------
Worker loss is the steady state at serving scale, not the exception, so
the farm treats it as schedulable work:

1. **Prompt detection.**  The parent blocks on
   :func:`multiprocessing.connection.wait` over every worker's message
   pipe *and* process sentinel, so a death wakes it immediately — no
   liveness polling — and the failure is attributed to the exact panel
   assigned to the lost worker.
2. **Respawn and replay.**  A fresh worker is spawned on fresh arenas
   and the task is re-sent.  A worker that reads the file re-reads its
   panel; for a parent-staged panel the bytes still live in the
   parent-owned input arena, so they are carried across and the
   (possibly forward-only) source is never re-read.  Each panel gets at
   most :data:`MAX_RETRIES` replays.
3. **Graceful degradation.**  With retries exhausted (or a respawn
   itself failing), the farm finishes every remaining panel **in
   process** on the same ascending schedule, computing the identical
   kernel-on-zeros partials the workers would have — the result stays
   bit-identical to the fault-free run (under deterministic backend
   selection, the same condition cross-worker-count identity carries).
   A random-access source (array or memmap) is re-read for every
   panel; an arena a worker was filling from the file when it died is
   never trusted.
4. :class:`~repro.errors.FarmError` is raised only when the degraded
   completion itself fails, naming the lost panel and chaining the
   underlying error.

Teardown can never wedge: a worker that survives ``terminate()`` (an
uninterruptible kernel call, masked signals) is escalated to
``Process.kill()``, and the arenas are closed (and unlinked, if the
worker never acked them) whatever happened before.

Workers are forked where the platform supports it (runtime-registered
backends, the live configuration and the bound BLAS provider — resolved
in the parent before the first fork, so no worker repeats the library
search — carry over for free); elsewhere the
pool falls back to the default start method and workers rebuild their
state from the pickled :class:`~repro.config.Config` snapshot — custom
backends registered at runtime do not survive that fallback.

Fault injection
---------------
The ``farm.worker`` site (:mod:`repro.faults`) is probed by the *parent*
once per task it sends and the fired token is shipped with the task, so
trigger state survives the worker it kills: ``kill`` hard-exits the
worker mid-task, ``raise`` fails it, ``slow`` delays the panel, and
``poison`` NaN-corrupts the partial (demonstrating what recovery cannot
detect — a worker that lies is outside the failure model).
"""

from __future__ import annotations

import atexit
import dataclasses
import multiprocessing
import os
import threading
import traceback
# importing ``connection`` imports ``multiprocessing.util``, which
# registers multiprocessing's exit hook; the pool's hook, registered at
# the bottom of this module, therefore runs before it
from multiprocessing import connection, shared_memory
from typing import List, Optional, Tuple

import numpy as np

from .. import faults
from ..blas import direct
from ..config import get_config, set_config
from ..errors import FarmError, ShapeError
from .backends import registry_generation
from .cpu import available_cpus
from .ooc import (ArraySource, MemmapSource, as_source, panel_schedule,
                  prepare_output, short_stream_error, working_set_bytes)

__all__ = ["PanelFarm", "FarmRunStats"]

#: replays granted to each lost panel (dead or failing worker) before the
#: run degrades to in-process completion (module docstring)
MAX_RETRIES = 2

#: seconds between defensive re-checks while waiting on worker events
#: (events normally arrive through ``connection.wait`` immediately)
_WAIT_SECONDS = 5.0

#: seconds granted at each teardown escalation step (join after "stop",
#: join after terminate(), join after kill())
_REAP_SECONDS = 2.0


def _farm_context():
    """The multiprocessing context workers start under: ``fork`` where
    available (state — registered backends, the active config — carries
    over for free), the platform default elsewhere."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing arena without adopting ownership.

    ``SharedMemory(name=...)`` registers the segment with the
    ``resource_tracker`` even on a plain attach (bpo-39959): a spawned
    child's own tracker would unlink the arena when the child exits —
    yanking it out from under the parent and every sibling — and a
    forked child shares the parent's tracker, where a compensating
    ``unregister`` would clobber the parent's legitimate registration.
    The parent owns the arenas and unlinks them exactly once, so the
    child must not track at all: registration is suppressed for the
    duration of the attach (Python 3.13's ``track=False``, back-ported).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        pass
    from multiprocessing import resource_tracker
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _read_rows(fd: int, arena, region, lo: int, hi: int) -> None:
    """Fill the front of ``arena`` with rows ``[lo, hi)`` of the file
    ``region`` describes, straight from ``fd`` (no intermediate copy)."""
    size = (hi - lo) * region.row_bytes
    offset = region.offset + lo * region.row_bytes
    with arena[:size] as view:
        done = 0
        while done < size:
            got = os.preadv(fd, [view[done:]], offset + done)
            if got == 0:
                raise ShapeError(
                    f"{region.path} ended {size - done} bytes short of "
                    f"rows [{lo}, {hi})")
            done += got


def _open_region(region) -> int:
    """Open the file of ``region`` for reading and check that it is still
    the mapped file (same device and inode)."""
    fd = os.open(region.path, os.O_RDONLY | getattr(os, "O_CLOEXEC", 0))
    try:
        st = os.fstat(fd)
        if (st.st_dev, st.st_ino) != (region.dev, region.ino):
            raise ShapeError(
                f"{region.path} no longer names the mapped file")
    except Exception:
        os.close(fd)
        raise
    return fd


def _worker_main(worker_id: int, spec: dict, conn) -> None:
    """One run of a worker: build an engine, serve tasks until ``"end"``.

    ``spec["arenas"]`` holds the worker's attached input and output
    arenas.  Each ``("task", panel_idx, lo, hi, fault)`` message asks for
    the partial Gram of rows ``[lo, hi)``: the worker enacts any shipped
    fault token, reads the rows into the front of its input arena from
    the file ``spec["file"]`` names (opened once per run) — or, without
    one, finds them there already, staged by the parent — zeroes its
    output arena, runs one ``matmul_ata`` on the panel view, and acks
    ``("done", panel_idx)``.  ``("end",)`` closes the file and the engine
    and returns.  Any exception is reported as ``("error", panel_idx,
    traceback)`` and re-raised, which ends the worker — the parent
    decides whether to respawn.
    """
    panel_idx: Optional[int] = None
    fd = None
    try:
        set_config(spec["config"])
        in_shm, out_shm = spec["arenas"]
        n = spec["n"]
        dtype = np.dtype(spec["dtype"])
        region = spec["file"]
        out = np.ndarray((n, n), dtype=dtype, buffer=out_shm.buf)
        from .dispatch import ExecutionEngine
        engine = ExecutionEngine(**spec["engine"])
        try:
            if region is not None:
                fd = _open_region(region)
            while True:
                message = conn.recv()
                if message[0] != "task":
                    break  # "end"
                _, panel_idx, lo, hi, fault = message
                # kill exits here, raise lands in the except below, slow
                # sleeps; "poison" comes back for the post-compute step
                action = faults.perform(fault)
                if fd is not None:
                    _read_rows(fd, in_shm.buf, region, lo, hi)
                panel = np.ndarray((hi - lo, n), dtype=dtype,
                                   buffer=in_shm.buf)
                out.fill(0)
                engine.matmul_ata(panel, out, spec["alpha"],
                                  algo=spec["algo"], cache=spec["cache"])
                if action == "poison":
                    out[...] = np.nan
                conn.send(("done", panel_idx))
                panel_idx = None
        finally:
            if fd is not None:
                os.close(fd)
            engine.close()
    except Exception:
        try:
            conn.send(("error", panel_idx, traceback.format_exc()))
        except Exception:
            pass
        raise


def _worker_process(worker_id: int, spec: dict, conn, names,
                    parent_end) -> None:
    """Worker process body: attach the arenas named ``names``, ack
    ``("attached",)``, then run :func:`_worker_main` once per run — the
    first run right away, each later one on a ``("run", spec)`` message —
    acking ``("idle",)`` after each.  Any other message, a closed pipe or
    a failed run ends the process.

    ``parent_end`` is the parent's end of ``conn``, inherited by a forked
    worker; closing it here lets an idle worker see its parent's death
    as end-of-file instead of outliving it."""
    parent_end.close()
    arenas = []
    try:
        try:
            arenas = [_attach(name) for name in names]
        except Exception:
            conn.send(("error", None, traceback.format_exc()))
            raise
        conn.send(("attached",))
        while True:
            _worker_main(worker_id, dict(spec, arenas=arenas), conn)
            conn.send(("idle",))
            message = conn.recv()
            if message[0] != "run":
                break
            spec = message[1]
    except Exception:
        pass  # a failed run was reported; a lost parent needs no answer
    finally:
        for shm in arenas:
            try:
                shm.close()
            except Exception:
                pass
        try:
            conn.close()
        except Exception:
            pass


def _checked_panel(panel, rows: int, n: int):
    """``panel`` if it has the scheduled ``(rows, n)`` shape — a custom
    source may yield anything."""
    if panel.shape != (rows, n):
        raise ShapeError(f"source yielded a panel of shape {panel.shape}, "
                         f"expected ({rows}, {n})")
    return panel


class _Worker:
    """Parent-side handle of one worker slot: process, message pipe,
    arenas, and the panel currently assigned to it."""

    __slots__ = ("wid", "process", "conn", "in_shm", "out_shm", "out_view",
                 "panel", "dead", "linked")

    def __init__(self, wid, process, conn, in_shm, out_shm, out_view):
        self.wid = wid
        self.process = process
        self.conn = conn
        self.in_shm = in_shm
        self.out_shm = out_shm
        self.out_view = out_view
        #: panel index assigned to the worker; stays set after "done"
        #: (the arena keeps the bytes) until the partial is folded
        self.panel: Optional[int] = None
        self.dead = False
        #: the arenas still have names (the worker has not acked them)
        self.linked = True

    def unlink(self) -> None:
        """Remove the arenas' names; every mapping stays valid."""
        if self.linked:
            self.linked = False
            for shm in (self.in_shm, self.out_shm):
                try:
                    shm.unlink()
                except Exception:
                    pass

    def release(self) -> None:
        """Close this process's pipe end and arena mappings."""
        self.out_view = None  # release the buffer export before close()
        self.dead = True
        for handle in (self.conn, self.in_shm, self.out_shm):
            try:
                handle.close()
            except Exception:
                pass


def _reap(worker: _Worker) -> None:
    """Retire one worker slot, however stuck its process is.

    Escalation ladder: a cooperative worker exits on its own (a stop
    message or its error path) and the first join collects it;
    ``terminate()`` handles one ignoring its pipe; a worker that is
    uninterruptible even then — blocked in a kernel call, signals masked
    by an extension — gets ``Process.kill()`` (SIGKILL), which no
    userspace state can ignore, so teardown can never wedge on a single
    wedged child.  The arenas are released (and unlinked, if still
    named) afterwards in every case.
    """
    process = worker.process
    if process is not None:
        process.join(timeout=_REAP_SECONDS)
        if process.is_alive():
            process.terminate()
            process.join(timeout=_REAP_SECONDS)
        if process.is_alive():
            process.kill()
            process.join(timeout=_REAP_SECONDS)
    worker.release()
    worker.unlink()


def _retire(workers) -> None:
    """Stop ``workers`` in any state: ``"end"`` closes an open run,
    ``"stop"`` (or the ``"end"`` itself, between runs) ends the loop."""
    for worker in workers:
        if not worker.dead:
            try:
                worker.conn.send(("end",))
                worker.conn.send(("stop",))
            except Exception:
                pass
    for worker in workers:
        _reap(worker)


def _end_run(workers) -> None:
    """Close the run on every live worker and wait for its ``"idle"`` —
    its :func:`_worker_main` call has returned.  A worker that is dead,
    answers otherwise or not within ``_REAP_SECONDS`` is reaped; the
    next run replaces its slot."""
    for worker in workers:
        if not worker.dead:
            try:
                worker.conn.send(("end",))
            except OSError:
                worker.dead = True
    for worker in workers:
        idle = False
        if not worker.dead:
            try:
                idle = (worker.conn.poll(_REAP_SECONDS)
                        and worker.conn.recv() == ("idle",))
            except (EOFError, OSError):
                pass
        if not idle:
            _retire([worker])


class _Pool:
    """A worker pool and the key a later run must match to reuse it."""

    __slots__ = ("key", "workers")

    def __init__(self, key: tuple) -> None:
        self.key = key
        self.workers: List[_Worker] = []


#: the idle warm pool of this process (at most one), guarded by the lock
_IDLE: Optional[_Pool] = None
_IDLE_LOCK = threading.Lock()


def _take_idle_pool(key: tuple) -> _Pool:
    """The idle pool if its key matches, else a new empty pool (stopping
    the mismatched idle one)."""
    global _IDLE
    with _IDLE_LOCK:
        pool, _IDLE = _IDLE, None
    if pool is not None and pool.key != key:
        _retire(pool.workers)
        pool = None
    return pool if pool is not None else _Pool(key)


def _park_idle_pool(pool: _Pool) -> None:
    """Keep ``pool`` for the next run, or stop it if the slot is taken."""
    global _IDLE
    with _IDLE_LOCK:
        if _IDLE is None:
            _IDLE, pool = pool, None
    if pool is not None:
        _retire(pool.workers)


def stop_idle_pool() -> None:
    """Stop the idle warm pool, if any (called by
    :meth:`ExecutionEngine.close <repro.engine.dispatch.ExecutionEngine.close>`
    and at interpreter exit)."""
    global _IDLE
    with _IDLE_LOCK:
        pool, _IDLE = _IDLE, None
    if pool is not None:
        _retire(pool.workers)


def _forget_idle_pool() -> None:
    """In a forked child: drop the parent's idle pool without stopping
    it — close only the inherited pipe ends and mappings."""
    global _IDLE, _IDLE_LOCK
    pool, _IDLE = _IDLE, None
    _IDLE_LOCK = threading.Lock()  # the parent may have held it mid-fork
    if pool is None:
        return
    for worker in pool.workers:
        # keep multiprocessing's exit hook from terminating the parent's
        # daemonic workers when this child exits
        multiprocessing.process._children.discard(worker.process)
        worker.release()


class _RunCounts:
    """Mutable per-run pool and recovery counters (frozen into the
    stats)."""

    __slots__ = ("spawned", "respawns", "retried_panels", "degraded_panels",
                 "staged_bytes")

    def __init__(self) -> None:
        self.spawned = 0
        self.respawns = 0
        self.retried_panels = 0
        self.degraded_panels = 0
        self.staged_bytes = 0


class _DegradeSignal(Exception):
    """Internal: retries exhausted (or respawn impossible) — finish the
    remaining panels in-process."""

    def __init__(self, panel: Optional[int], reason: str) -> None:
        super().__init__(reason)
        self.panel = panel
        self.reason = reason


@dataclasses.dataclass(frozen=True)
class FarmRunStats:
    """Accounting of one multi-process farm run.

    Attributes
    ----------
    panels:
        Panels the schedule fanned out.
    panel_rows:
        Rows per full panel (the last panel may be ragged).
    procs:
        Worker processes the run actually used (never more than there
        are panels).
    bytes_resident_high:
        High-water mark of the farm's working set: ``C`` plus one
        ``n x n`` output arena and one panel-sized input arena per
        worker.  Never exceeds ``budget_bytes`` when one is set.
    budget_bytes:
        The budget the schedule was sized against (0 = unbounded).
    respawns:
        Worker processes spawned beyond the initial pool — dead or
        failing workers replaced mid-run (plus replacements for workers
        that died idle while staging work remained).
    retried_panels:
        Panel replays: every time a lost panel was re-staged onto a
        respawned worker.  A panel failing twice counts twice.
    degraded_panels:
        Panels completed by the in-process degradation path after the
        retry budget was exhausted (0 = the process pool computed every
        panel).
    spawned:
        Worker processes started for the run's initial pool: ``procs``
        for a cold pool, 0 for a warm one, plus replacements for pooled
        workers found dead at the start (respawns are counted apart).
    staged_bytes:
        Bytes the parent copied into worker input arenas: 0 when the
        workers read their panels from the file themselves, ``m·n·itemsize``
        when the parent stages every panel (plus each panel it carried
        to a respawned worker).
    """

    panels: int
    panel_rows: int
    procs: int
    bytes_resident_high: int
    budget_bytes: int
    respawns: int = 0
    retried_panels: int = 0
    degraded_panels: int = 0
    spawned: int = 0
    staged_bytes: int = 0

    @property
    def degraded(self) -> bool:
        """Whether the run fell back to in-process completion."""
        return self.degraded_panels > 0


class PanelFarm:
    """Multi-process out-of-core executor for ``C = alpha*A^T A + beta*C``.

    Parameters
    ----------
    engine:
        The parent-side :class:`~repro.engine.dispatch.ExecutionEngine`
        (default: the process-wide engine).  The parent runs no panel
        kernels while the pool is healthy — it schedules, stages (unless
        the workers read the file) and folds — but the farm mirrors this
        engine's scheduling (``workers`` and ``parallel``) into every
        worker process, uses it directly for degraded in-process
        completion, and records run statistics here.
    procs:
        Worker process count (``None`` resolves to
        :func:`~repro.engine.cpu.available_cpus`; must be >= 1 — for the
        in-process path use :class:`~repro.engine.ooc.ShardedAtA`, or
        ``procs=0`` on :meth:`ExecutionEngine.run_ooc`).

    The budget and panel height are per-call arguments of :meth:`run`;
    the per-panel replay budget is :data:`MAX_RETRIES`.
    """

    def __init__(self, engine=None, *, procs: Optional[int] = None) -> None:
        if procs is None:
            procs = available_cpus()
        if procs < 1:
            raise ShapeError(f"procs must be >= 1, got {procs}")
        if engine is None:
            from .dispatch import default_engine
            engine = default_engine()
        self.engine = engine
        self.procs = int(procs)

    # -- schedule -----------------------------------------------------------
    def schedule(self, shape: Tuple[int, int], dtype, budget: int = 0,
                 panel_rows: Optional[int] = None):
        """Resolve ``(panel bounds, effective budget, procs)`` for a run.

        The farm's resident set is ``C`` plus, per worker, one ``n x n``
        output arena and one panel-sized input arena (module docstring).
        A finite budget sizes the panel as large as fits;
        :class:`BudgetError` names the smallest feasible working set when
        even one-row panels overflow.  ``procs`` is clamped to the panel
        count — idle workers would only cost arenas.
        """
        procs = self.procs
        bounds, budget = panel_schedule(
            shape, dtype, budget, panel_rows,
            outputs=procs, buffers=procs, buffer_noun="input arena(s)",
            remedy=f"shrink the panel or run fewer than procs={procs} "
                   "workers")
        return bounds, budget, min(procs, len(bounds))

    # -- worker lifecycle ---------------------------------------------------
    @staticmethod
    def _spawn(context, worker_id: int, widest: int, spec: dict) -> _Worker:
        """Create one worker slot: fresh named arenas, pipe, process.  The
        worker's ``("attached",)`` ack is what lets the parent unlink the
        names (:meth:`_Worker.unlink`)."""
        n = spec["n"]
        dtype = np.dtype(spec["dtype"])
        in_shm = out_shm = parent_conn = child_conn = process = None
        try:
            in_shm = shared_memory.SharedMemory(
                create=True, size=max(1, widest * n * dtype.itemsize))
            out_shm = shared_memory.SharedMemory(
                create=True, size=max(1, n * n * dtype.itemsize))
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_process, name=f"repro-farm-{worker_id}",
                args=(worker_id, spec, child_conn,
                      (in_shm.name, out_shm.name), parent_conn), daemon=True)
            process.start()
        except Exception:
            for shm in (in_shm, out_shm):
                if shm is not None:
                    try:
                        shm.close()
                        shm.unlink()
                    except Exception:
                        pass
            for conn in (parent_conn, child_conn):
                if conn is not None:
                    try:
                        conn.close()
                    except Exception:
                        pass
            raise
        child_conn.close()  # the parent keeps only its own pipe end
        out_view = np.ndarray((n, n), dtype=dtype, buffer=out_shm.buf)
        return _Worker(worker_id, process, parent_conn, in_shm, out_shm,
                       out_view)

    def _start(self, pool: _Pool, procs: int, context, widest: int,
               spec: dict) -> int:
        """Ready ``procs`` live workers in ``pool`` for one run: each warm
        worker gets ``("run", spec)``; a missing or dead slot gets a fresh
        worker.  Every process is started before any ack is awaited, so a
        cold start is not serialised.  Returns how many were spawned."""
        workers = pool.workers
        spawned = 0
        for wid in range(procs):
            worker = workers[wid] if wid < len(workers) else None
            if worker is not None and not worker.dead:
                try:
                    if worker.process.is_alive():
                        worker.conn.send(("run", spec))
                        continue
                except OSError:
                    pass
            if worker is not None:
                _reap(worker)
            fresh = self._spawn(context, wid, widest, spec)
            if worker is None:
                workers.append(fresh)
            else:
                workers[wid] = fresh
            spawned += 1
        return spawned

    # -- execution ----------------------------------------------------------
    def run(self, a, c: Optional[np.ndarray] = None, alpha: float = 1.0, *,
            beta: float = 1.0, algo: str = "auto",
            cache=None, budget: int = 0,
            panel_rows: Optional[int] = None
            ) -> Tuple[np.ndarray, FarmRunStats]:
        """Fan ``a``'s panels out to the worker pool; returns ``(C, stats)``.

        ``a`` is anything :func:`~repro.engine.ooc.as_source` accepts.
        ``budget`` and ``panel_rows`` size the schedule as for
        :meth:`ShardedAtA.run <repro.engine.ooc.ShardedAtA.run>`, with
        the farm's working set (module docstring).  ``algo`` and
        ``cache`` apply to every worker's per-panel ``matmul_ata`` call,
        exactly as the in-process executor passes them through.
        """
        source = as_source(a)
        bounds, eff_budget, procs = self.schedule(
            source.shape, source.dtype, budget, panel_rows)
        c = prepare_output(source, c, beta)
        widest = max(hi - lo for lo, hi in bounds)
        resident_high = working_set_bytes(c.shape[1], c.itemsize, procs,
                                          procs * widest)
        counts = _RunCounts()
        self._fan_out(source, bounds, c, alpha, procs, widest, counts,
                      algo=algo, cache=cache)
        stats = FarmRunStats(panels=len(bounds), panel_rows=widest,
                             procs=procs,
                             bytes_resident_high=resident_high,
                             budget_bytes=eff_budget,
                             respawns=counts.respawns,
                             retried_panels=counts.retried_panels,
                             degraded_panels=counts.degraded_panels,
                             spawned=counts.spawned,
                             staged_bytes=counts.staged_bytes)
        self.engine._record_farm(stats)
        return c, stats

    def _fan_out(self, source, bounds, c: np.ndarray, alpha: float,
                 procs: int, widest: int, counts: _RunCounts, *,
                 algo, cache) -> None:
        """Hand panels to workers and fold partials into ``c``.

        A memmap of a shared file mapping (:meth:`MemmapSource.file_region
        <repro.engine.ooc.MemmapSource.file_region>`) is read by the
        workers themselves: the parent only sends row ranges.  Any other
        source is staged by the parent, one copy per panel into the
        worker's input arena, in ascending order (a forward-only
        :class:`ChunkSource` never rewinds).  Partials are folded in
        ascending order (the fixed reduction tree).  A worker gets its
        next panel only after its previous partial is folded, so at most
        ``procs`` panels are in flight — exactly what the budget charged.

        Worker loss follows the heal → degrade → fail ladder of the
        module docstring; ``counts`` accumulates what the pool and
        healing cost.  A clean run parks its pool for the next one.
        """
        n = c.shape[1]
        dtype = c.dtype
        context = _farm_context()
        direct.is_available()  # bind BLAS once here, not in every fork
        config = get_config()
        # constructor kwargs mirroring the parent engine into each worker
        engine_spec = {"workers": self.engine.workers,
                       "parallel": self.engine.parallel}
        region = (source.file_region() if isinstance(source, MemmapSource)
                  else None)
        spec = {
            "n": n, "dtype": dtype.str, "alpha": alpha, "file": region,
            "algo": algo, "cache": cache, "config": config, "engine": engine_spec,
        }
        random_access = isinstance(source, ArraySource)
        panels = None if random_access else source.panels(bounds)

        def read(panel_idx: int) -> np.ndarray:
            """Panel ``panel_idx`` in the parent: a view of a random-access
            source, else the stream's next panel (streams are read once,
            in ascending order)."""
            lo, hi = bounds[panel_idx]
            if random_access:
                return source.rows(lo, hi)
            try:
                panel = next(panels)
            except StopIteration:
                raise short_stream_error(panel_idx, len(bounds)) from None
            return _checked_panel(panel, hi - lo, n)

        next_stage = 0
        next_fold = 0
        staged = {}   # panel idx -> worker whose input arena holds its rows
        ready = {}    # finished panel idx -> worker holding its partial
        retries = {}  # panel idx -> replays consumed
        pool = _take_idle_pool((config, engine_spec, registry_generation(),
                                procs, n, dtype.str, widest))
        workers = pool.workers
        parked = False
        try:
            try:
                counts.spawned = self._start(pool, procs, context, widest,
                                             spec)
            except Exception as exc:
                raise _DegradeSignal(
                    None, f"worker pool could not be spawned: {exc!r}"
                ) from exc

            def copy_rows(worker: _Worker, rows: np.ndarray) -> None:
                """Copy a panel's bytes into the front of an input arena."""
                arena = np.ndarray(rows.shape, dtype=dtype,
                                   buffer=worker.in_shm.buf)
                try:
                    np.copyto(arena, rows)
                finally:
                    del arena  # release the buffer export before close()
                counts.staged_bytes += rows.nbytes

            def send_task(worker: _Worker, panel_idx: int) -> None:
                lo, hi = bounds[panel_idx]
                worker.panel = panel_idx
                staged[panel_idx] = worker
                fault = faults.probe("farm.worker", index=panel_idx)
                try:
                    worker.conn.send(("task", panel_idx, lo, hi, fault))
                except OSError:
                    pass  # worker already died; its sentinel reports it

            def stage(panel_idx: int, worker: _Worker) -> None:
                if region is None:
                    copy_rows(worker, read(panel_idx))
                send_task(worker, panel_idx)

            def replace(worker: _Worker) -> _Worker:
                """Respawn one slot on fresh arenas (reaping the old)."""
                try:
                    fresh = self._spawn(context, worker.wid, widest, spec)
                except Exception as exc:
                    raise _DegradeSignal(
                        worker.panel,
                        f"worker {worker.process.name!r} could not be "
                        f"respawned: {exc!r}") from exc
                if worker.panel is not None and region is None:
                    # carry the lost panel's bytes across before the old
                    # arena is released — the source never rewinds; a
                    # worker reading the file re-reads it instead
                    lo, hi = bounds[worker.panel]
                    old = np.ndarray((hi - lo, n), dtype=dtype,
                                     buffer=worker.in_shm.buf)
                    try:
                        copy_rows(fresh, old)
                    finally:
                        del old
                _reap(worker)
                workers[worker.wid] = fresh
                counts.respawns += 1
                return fresh

            def recover(worker: _Worker, reason: str) -> None:
                """Heal one lost worker: respawn and replay its panel."""
                worker.dead = True
                panel_idx = worker.panel
                if panel_idx is None or panel_idx in ready:
                    # nothing owed (died idle, or after acking its panel);
                    # the fold loop respawns the slot if staging remains
                    return
                if retries.get(panel_idx, 0) >= MAX_RETRIES:
                    raise _DegradeSignal(panel_idx, reason)
                retries[panel_idx] = retries.get(panel_idx, 0) + 1
                counts.retried_panels += 1
                fresh = replace(worker)
                send_task(fresh, panel_idx)

            while next_stage < min(procs, len(bounds)):
                stage(next_stage, workers[next_stage])
                next_stage += 1

            while next_fold < len(bounds):
                live = [w for w in workers if not w.dead]
                if not live:
                    raise _DegradeSignal(
                        None, "every worker slot is retired")  # unreachable
                sources = {w.conn: w for w in live}
                sources.update({w.process.sentinel: w for w in live})
                events = connection.wait(list(sources), timeout=_WAIT_SECONDS)
                touched = []
                for obj in events:
                    worker = sources[obj]
                    if worker not in touched:
                        touched.append(worker)
                for worker in touched:
                    if worker.dead:
                        continue  # recovered earlier in this batch
                    # drain messages first: a worker that acked its panel
                    # (or reported its failure) just before dying must be
                    # credited before the sentinel is believed
                    failure = None
                    while True:
                        try:
                            if not worker.conn.poll(0):
                                break
                            message = worker.conn.recv()
                        except (EOFError, OSError):
                            break
                        if message[0] == "attached":
                            worker.unlink()
                        elif message[0] == "done":
                            ready[message[1]] = worker
                        elif message[0] == "error":
                            _, panel_idx, trace = message
                            failure = (
                                f"worker {worker.process.name!r} failed "
                                "while computing panel "
                                f"{worker.panel if panel_idx is None else panel_idx}"
                                f" of {len(bounds)}:\n{trace}")
                            break
                    if failure is None and not worker.process.is_alive():
                        owed = (worker.panel is not None
                                and worker.panel not in ready)
                        if owed:
                            failure = (
                                f"worker {worker.process.name!r} died "
                                f"(exit code {worker.process.exitcode}) "
                                f"while computing panel {worker.panel} of "
                                f"{len(bounds)}")
                        else:
                            # died idle: retire the slot now, respawn
                            # lazily when the fold loop needs it
                            worker.dead = True
                    if failure is not None:
                        recover(worker, failure)
                while next_fold in ready:
                    worker = ready.pop(next_fold)
                    # the fixed reduction tree: partials join C strictly
                    # in ascending panel order, whatever order they
                    # arrived in — worker count can never change the bits
                    np.add(c, worker.out_view, out=c)
                    staged.pop(next_fold, None)
                    worker.panel = None
                    next_fold += 1
                    if next_stage < len(bounds):
                        if worker.dead:
                            worker = replace(worker)
                        stage(next_stage, worker)
                        next_stage += 1
            _end_run(workers)
            parked = True
        except _DegradeSignal as signal:
            self._finish_in_process(
                c, alpha, bounds, next_fold, counts, signal,
                {} if random_access else staged, read,
                algo=algo, cache=cache)
        finally:
            if parked:
                _park_idle_pool(pool)
            else:
                _retire(workers)

    def _finish_in_process(self, c: np.ndarray, alpha: float, bounds,
                           next_fold: int, counts: _RunCounts,
                           signal: _DegradeSignal, staged, read, *,
                           algo, cache) -> None:
        """Graceful degradation: complete the remaining panels in-process.

        Replays the exact fold the workers would have produced — one
        kernel-on-zeros partial per remaining panel, added in ascending
        order — so the healed result stays bit-identical to the
        fault-free run.  A panel of a stream that the parent already
        staged is read straight out of the surviving arena
        (``staged`` maps it to its worker; the parent owns the arena,
        a dead worker cannot take it along); every other panel comes from
        ``read`` — a random-access source is re-read, so a panel a worker
        was reading from the file never comes from a half-filled arena,
        and a stream is positioned exactly at the staging frontier.
        Raises :class:`FarmError` — the farm's only failure mode left —
        when this last line of defence fails too.
        """
        n = c.shape[1]
        partial = np.zeros_like(c)
        panel_idx = next_fold
        try:
            for panel_idx in range(next_fold, len(bounds)):
                lo, hi = bounds[panel_idx]
                worker = staged.get(panel_idx)
                if worker is not None:
                    panel = np.ndarray((hi - lo, n), dtype=c.dtype,
                                       buffer=worker.in_shm.buf)
                else:
                    # contiguous, like the arena panel a worker computes on
                    panel = np.ascontiguousarray(read(panel_idx))
                partial.fill(0)
                try:
                    self.engine.matmul_ata(panel, partial, alpha, algo=algo,
                                           cache=cache)
                finally:
                    del panel  # release any arena buffer export
                np.add(c, partial, out=c)
                counts.degraded_panels += 1
        except Exception as exc:
            # the failing frames may hold views into arenas that pool
            # teardown unmaps: drop their locals, or reading the chained
            # traceback's locals later (pytest does) would segfault
            traceback.clear_frames(exc.__traceback__)
            raise FarmError(
                f"farm could not heal a worker failure ({signal.reason}); "
                "the retry budget was exhausted and the degraded "
                f"in-process completion failed at panel {panel_idx} of "
                f"{len(bounds)}: {exc!r}") from exc


atexit.register(stop_idle_pool)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_idle_pool)
