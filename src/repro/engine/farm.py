"""Multi-process panel farm: fan out-of-core Gram panels to worker
processes over shared memory, healing worker loss in flight.

:class:`~repro.engine.ooc.ShardedAtA` streams row panels through the
engine *in-process*: one Python interpreter, one GIL, one core.  The
farm keeps its schedule and budget discipline but moves the per-panel
Gram updates into a pool of worker **processes**, each running the full
engine stack (plan cache, workspace pool, backend registry, optional
measured tuner) on its own interpreter:

* panels are staged into per-worker ``multiprocessing.shared_memory``
  arenas — the worker's kernels read the panel straight out of shared
  memory; no pickling, no pipe copies of matrix data;
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
The working set charged against ``Config.memory_budget`` is the one
:func:`~repro.engine.ooc.panel_schedule` solves, with ``procs`` output
accumulators and ``procs`` panel buffers::

    resident = (1 + procs) * n*n*itemsize   (C + one output arena/worker)
             + procs * panel_rows * n*itemsize  (one input arena/worker)

:class:`~repro.errors.BudgetError` names the smallest feasible working
set when not even one-row panels fit.  At most ``procs`` panels are ever
staged and un-folded at one instant — an out-of-order finisher idles
until the fold reaches its panel — so the accounting above is a true
high-water bound, not an estimate.  Recovery never raises it: a respawn
allocates its fresh arenas only after copying nothing (the replacement
input arena is filled *from* the doomed one before it is unlinked, and
the two coexist only for the duration of that copy), and the degraded
in-process completion reads staged panels straight out of the surviving
arenas instead of copying them.

Failure handling: heal, then degrade, then fail
-----------------------------------------------
Worker loss is the steady state at serving scale, not the exception, so
the farm treats it as schedulable work:

1. **Prompt detection.**  The parent blocks on
   :func:`multiprocessing.connection.wait` over every worker's message
   pipe *and* process sentinel, so a death wakes it immediately — no
   liveness polling — and the failure is attributed to the exact panel
   staged on the lost worker.
2. **Respawn and replay.**  The lost panel's bytes still live in the
   parent-owned input arena, so recovery never re-reads the (possibly
   forward-only) source: a fresh worker is spawned on fresh arenas, the
   panel bytes are carried across, and the task is re-sent.  Each panel
   gets at most ``Config.farm_max_retries`` replays.
3. **Graceful degradation.**  With retries exhausted (or a respawn
   itself failing), the farm finishes every remaining panel **in
   process** on the same ascending schedule, computing the identical
   kernel-on-zeros partials the workers would have — the result stays
   bit-identical to the fault-free run (under deterministic backend
   selection, the same condition cross-worker-count identity carries).
4. :class:`~repro.errors.FarmError` is raised only when the degraded
   completion itself fails, naming the lost panel and chaining the
   underlying error.

Teardown can never wedge: a worker that survives ``terminate()`` (an
uninterruptible kernel call, masked signals) is escalated to
``Process.kill()``, and the arenas are unlinked whatever happened before.

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
once per staged panel and the fired token is shipped with the task, so
trigger state survives the worker it kills: ``kill`` hard-exits the
worker mid-task, ``raise`` fails it, ``slow`` delays the panel, and
``poison`` NaN-corrupts the partial (demonstrating what recovery cannot
detect — a worker that lies is outside the failure model).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import traceback
from multiprocessing import connection, shared_memory
from typing import List, Optional, Tuple

import numpy as np

from .. import faults
from ..blas import direct
from ..config import Config, get_config, set_config
from ..errors import FarmError, ShapeError
from .cpu import available_cpus
from .ooc import (as_source, executor_engine, panel_schedule,
                  prepare_output, working_set_bytes)

__all__ = ["PanelFarm", "FarmRunStats", "run_farm"]

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


def _worker_main(worker_id: int, spec: dict, conn) -> None:
    """Worker process body: attach arenas, build an engine, serve tasks.

    Each ``("task", panel_idx, rows, fault)`` message means "the first
    ``rows`` rows of my input arena hold panel ``panel_idx``": the worker
    enacts any shipped fault token, zeroes its output arena, runs one
    ``matmul_ata`` on the shared panel view, and acks
    ``("done", panel_idx)``.  Any exception is reported as
    ``("error", panel_idx, traceback)`` and ends the worker — the parent
    decides whether to respawn.
    """
    in_shm = out_shm = None
    panel_idx: Optional[int] = None
    try:
        set_config(spec["config"])
        in_shm = _attach(spec["in_name"])
        out_shm = _attach(spec["out_name"])
        n = spec["n"]
        dtype = np.dtype(spec["dtype"])
        out = np.ndarray((n, n), dtype=dtype, buffer=out_shm.buf)
        from .dispatch import ExecutionEngine
        engine = ExecutionEngine(**spec["engine"])
        try:
            while True:
                message = conn.recv()
                if message[0] == "stop":
                    break
                _, panel_idx, rows, fault = message
                # kill exits here, raise lands in the except below, slow
                # sleeps; "poison" comes back for the post-compute step
                action = faults.perform(fault)
                panel = np.ndarray((rows, n), dtype=dtype, buffer=in_shm.buf)
                out.fill(0)
                engine.matmul_ata(panel, out, spec["alpha"],
                                  algo=spec["algo"], cache=spec["cache"],
                                  parallel=spec["parallel"])
                if action == "poison":
                    out[...] = np.nan
                conn.send(("done", panel_idx))
                panel_idx = None
        finally:
            engine.close()
    except Exception:
        try:
            conn.send(("error", panel_idx, traceback.format_exc()))
        except Exception:
            pass
    finally:
        for shm in (in_shm, out_shm):
            if shm is not None:
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
    arenas, and the panel currently staged in its input arena."""

    __slots__ = ("wid", "process", "conn", "in_shm", "out_shm", "out_view",
                 "panel", "dead")

    def __init__(self, wid, process, conn, in_shm, out_shm, out_view):
        self.wid = wid
        self.process = process
        self.conn = conn
        self.in_shm = in_shm
        self.out_shm = out_shm
        self.out_view = out_view
        #: panel index staged in the input arena; stays set after "done"
        #: (the arena keeps the bytes) until the partial is folded
        self.panel: Optional[int] = None
        self.dead = False


class _Recovery:
    """Mutable per-run recovery counters (frozen into the stats)."""

    __slots__ = ("respawns", "retried_panels", "degraded_panels")

    def __init__(self) -> None:
        self.respawns = 0
        self.retried_panels = 0
        self.degraded_panels = 0


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
    """

    panels: int
    panel_rows: int
    procs: int
    bytes_resident_high: int
    budget_bytes: int
    respawns: int = 0
    retried_panels: int = 0
    degraded_panels: int = 0

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
        kernels while the pool is healthy — it schedules, stages and
        folds — but the farm mirrors this engine's worker/parallel/tuner
        configuration into every worker process, uses it directly for
        degraded in-process completion, and records run statistics here.
    procs:
        Worker process count (``None`` resolves to
        :func:`~repro.engine.cpu.available_cpus`; must be >= 1 — for the
        in-process path use :class:`~repro.engine.ooc.ShardedAtA`, or
        ``procs=0`` on :meth:`ExecutionEngine.run_ooc`).
    budget:
        Working-set budget in bytes (``None`` reads
        ``Config.memory_budget``; 0 = unbounded).  See the module
        docstring for what a farm's working set charges.
    panel_rows:
        Explicit panel height, overriding the budget-derived one.  The
        budget still validates it.
    max_retries:
        Per-panel replay budget before degrading to in-process
        completion (``None`` reads ``Config.farm_max_retries``).
    """

    def __init__(self, engine=None, *, procs: Optional[int] = None,
                 budget: Optional[int] = None,
                 panel_rows: Optional[int] = None,
                 max_retries: Optional[int] = None) -> None:
        if procs is None:
            procs = available_cpus()
        if procs < 1:
            raise ShapeError(f"procs must be >= 1, got {procs}")
        if max_retries is not None and max_retries < 0:
            raise ShapeError(
                f"max_retries must be >= 0, got {max_retries}")
        self.engine = executor_engine(engine, budget, panel_rows)
        self.procs = int(procs)
        self.budget = budget
        self.panel_rows = panel_rows
        self.max_retries = max_retries

    # -- schedule -----------------------------------------------------------
    def schedule(self, shape: Tuple[int, int], dtype,
                 budget: Optional[int] = None,
                 panel_rows: Optional[int] = None,
                 procs: Optional[int] = None):
        """Resolve ``(panel bounds, effective budget, procs)`` for a run.

        The farm's resident set is ``C`` plus, per worker, one ``n x n``
        output arena and one panel-sized input arena (module docstring).
        A finite budget sizes the panel as large as fits;
        :class:`BudgetError` names the smallest feasible working set when
        even one-row panels overflow.  ``procs`` is clamped to the panel
        count — idle workers would only cost arenas.
        """
        procs = self.procs if procs is None else int(procs)
        if procs < 1:
            raise ShapeError(f"procs must be >= 1, got {procs}")
        bounds, budget = panel_schedule(
            shape, dtype, self.budget if budget is None else budget,
            self.panel_rows if panel_rows is None else panel_rows,
            outputs=procs, buffers=procs, buffer_noun="input arena(s)",
            remedy=f"shrink the panel or run fewer than procs={procs} "
                   "workers")
        return bounds, budget, min(procs, len(bounds))

    def _worker_engine_spec(self) -> dict:
        """Constructor kwargs mirroring the parent engine into a worker."""
        engine = self.engine
        spec = {"workers": engine.workers, "parallel": engine.parallel}
        if engine.tuner is not None:
            # each worker gets its own tuner on the shared table path;
            # merge-on-save (repro.engine.tuner) makes that safe — the
            # processes union their samples instead of clobbering
            spec["tuner"] = "measured"
        return spec

    # -- worker lifecycle ---------------------------------------------------
    def _spawn(self, context, worker_id: int, widest: int, n: int,
               dtype: np.dtype, spec_base: dict) -> _Worker:
        """Create one worker slot: fresh arenas, pipe, process."""
        in_shm = out_shm = parent_conn = child_conn = process = None
        try:
            in_shm = shared_memory.SharedMemory(
                create=True, size=max(1, widest * n * dtype.itemsize))
            out_shm = shared_memory.SharedMemory(
                create=True, size=max(1, n * n * dtype.itemsize))
            parent_conn, child_conn = context.Pipe(duplex=True)
            spec = dict(spec_base, in_name=in_shm.name, out_name=out_shm.name)
            process = context.Process(
                target=_worker_main, name=f"repro-farm-{worker_id}",
                args=(worker_id, spec, child_conn), daemon=True)
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

    @staticmethod
    def _reap(worker: _Worker, unlink: bool = True) -> None:
        """Retire one worker slot, however stuck its process is.

        Escalation ladder: a cooperative worker exits on its own (the
        "stop" message or its error path) and the first join collects it;
        ``terminate()`` handles one ignoring its pipe; a worker that is
        uninterruptible even then — blocked in a kernel call, signals
        masked by an extension — gets ``Process.kill()`` (SIGKILL), which
        no userspace state can ignore, so teardown can never wedge on a
        single wedged child.  The arenas are closed (and, unless the
        caller still needs them, unlinked) afterwards in every case.
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
        worker.out_view = None  # release the buffer export before close()
        worker.dead = True
        try:
            worker.conn.close()
        except Exception:
            pass
        for shm in (worker.in_shm, worker.out_shm):
            try:
                shm.close()
                if unlink:
                    shm.unlink()
            except Exception:
                pass

    # -- execution ----------------------------------------------------------
    def run(self, a, c: Optional[np.ndarray] = None, alpha: float = 1.0, *,
            beta: float = 1.0, algo: str = "auto",
            cache=None, parallel: Optional[str] = None,
            budget: Optional[int] = None, panel_rows: Optional[int] = None,
            procs: Optional[int] = None
            ) -> Tuple[np.ndarray, FarmRunStats]:
        """Fan ``a``'s panels out to the worker pool; returns ``(C, stats)``.

        ``a`` is anything :func:`~repro.engine.ooc.as_source` accepts.
        ``algo`` / ``cache`` / ``parallel`` apply to every worker's
        per-panel ``matmul_ata`` call, exactly as the in-process executor
        passes them through.
        """
        source = as_source(a)
        bounds, eff_budget, procs = self.schedule(
            source.shape, source.dtype, budget, panel_rows, procs)
        c = prepare_output(source, c, beta)
        widest = max(hi - lo for lo, hi in bounds)
        resident_high = working_set_bytes(c.shape[1], c.itemsize, procs,
                                          procs * widest)
        recovery = _Recovery()
        self._fan_out(source, bounds, c, alpha, procs, widest, recovery,
                      algo=algo, cache=cache, parallel=parallel)
        stats = FarmRunStats(panels=len(bounds), panel_rows=widest,
                             procs=procs,
                             bytes_resident_high=resident_high,
                             budget_bytes=eff_budget,
                             respawns=recovery.respawns,
                             retried_panels=recovery.retried_panels,
                             degraded_panels=recovery.degraded_panels)
        self.engine._record_farm(stats)
        return c, stats

    def _fan_out(self, source, bounds, c: np.ndarray, alpha: float,
                 procs: int, widest: int, recovery: _Recovery, *,
                 algo, cache, parallel) -> None:
        """Stage panels into worker arenas and fold partials into ``c``.

        Panels are staged in ascending order (a forward-only
        :class:`ChunkSource` never rewinds) and folded in ascending
        order (the fixed reduction tree).  A worker's arenas are reused
        only after its previous partial is folded, so at most ``procs``
        panels are in flight — exactly what the budget charged.

        Worker loss follows the heal → degrade → fail ladder of the
        module docstring; ``recovery`` accumulates what healing cost.
        """
        n = c.shape[1]
        dtype = c.dtype
        context = _farm_context()
        direct.is_available()  # bind BLAS once here, not in every fork
        config = get_config()
        if isinstance(config, Config):  # defensive: always true today
            config = config.replace()
        max_retries = self.max_retries
        if max_retries is None:
            max_retries = get_config().farm_max_retries
        spec_base = {
            "n": n, "dtype": dtype.str, "alpha": alpha,
            "algo": algo, "cache": cache, "parallel": parallel,
            "config": config,
            "engine": self._worker_engine_spec(),
        }
        workers: List[_Worker] = []
        panels = source.panels(bounds)
        next_stage = 0
        next_fold = 0
        staged = {}   # panel idx -> worker whose input arena holds its bytes
        ready = {}    # finished panel idx -> worker holding its partial
        retries = {}  # panel idx -> replays consumed
        try:
            try:
                for worker_id in range(procs):
                    workers.append(self._spawn(context, worker_id, widest, n,
                                               dtype, spec_base))
            except Exception as exc:
                raise _DegradeSignal(
                    None, f"worker pool could not be spawned: {exc!r}"
                ) from exc

            def send_task(worker: _Worker, panel_idx: int) -> None:
                lo, hi = bounds[panel_idx]
                worker.panel = panel_idx
                staged[panel_idx] = worker
                fault = faults.probe("farm.worker", index=panel_idx)
                try:
                    worker.conn.send(("task", panel_idx, hi - lo, fault))
                except OSError:
                    pass  # worker already died; its sentinel reports it

            def stage(panel_idx: int, worker: _Worker) -> None:
                lo, hi = bounds[panel_idx]
                rows = hi - lo
                panel = _checked_panel(next(panels), rows, n)
                arena = np.ndarray((rows, n), dtype=dtype,
                                   buffer=worker.in_shm.buf)
                try:
                    np.copyto(arena, panel)
                finally:
                    del arena  # release the buffer export before close()
                send_task(worker, panel_idx)

            def replace(worker: _Worker) -> _Worker:
                """Respawn one slot on fresh arenas (reaping the old)."""
                try:
                    fresh = self._spawn(context, worker.wid, widest, n,
                                        dtype, spec_base)
                except Exception as exc:
                    raise _DegradeSignal(
                        worker.panel,
                        f"worker {worker.process.name!r} could not be "
                        f"respawned: {exc!r}") from exc
                if worker.panel is not None:
                    # carry the lost panel's bytes across before the old
                    # arena is unlinked — the source never rewinds
                    lo, hi = bounds[worker.panel]
                    rows = hi - lo
                    old = np.ndarray((rows, n), dtype=dtype,
                                     buffer=worker.in_shm.buf)
                    new = np.ndarray((rows, n), dtype=dtype,
                                     buffer=fresh.in_shm.buf)
                    try:
                        np.copyto(new, old)
                    finally:
                        del old, new
                self._reap(worker)
                workers[worker.wid] = fresh
                recovery.respawns += 1
                return fresh

            def recover(worker: _Worker, reason: str) -> None:
                """Heal one lost worker: respawn and replay its panel."""
                worker.dead = True
                panel_idx = worker.panel
                if panel_idx is None or panel_idx in ready:
                    # nothing owed (died idle, or after acking its panel);
                    # the fold loop respawns the slot if staging remains
                    return
                if retries.get(panel_idx, 0) >= max_retries:
                    raise _DegradeSignal(panel_idx, reason)
                retries[panel_idx] = retries.get(panel_idx, 0) + 1
                recovery.retried_panels += 1
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
                        if message[0] == "done":
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
        except _DegradeSignal as signal:
            self._finish_in_process(c, alpha, bounds, next_fold, staged,
                                    panels, recovery, signal,
                                    algo=algo, cache=cache, parallel=parallel)
        finally:
            for worker in workers:
                if not worker.dead:
                    try:
                        worker.conn.send(("stop",))
                    except Exception:
                        pass
            for worker in workers:
                self._reap(worker)

    def _finish_in_process(self, c: np.ndarray, alpha: float, bounds,
                           next_fold: int, staged, panels,
                           recovery: _Recovery, signal: _DegradeSignal, *,
                           algo, cache, parallel) -> None:
        """Graceful degradation: complete the remaining panels in-process.

        Replays the exact fold the workers would have produced — one
        kernel-on-zeros partial per remaining panel, added in ascending
        order — so the healed result stays bit-identical to the
        fault-free run.  Panels already staged are read straight out of
        the surviving shared-memory arenas (the parent owns them; a dead
        worker cannot take them along); panels beyond the staging
        frontier keep streaming from the source, which is positioned
        exactly there.  Raises :class:`FarmError` — the farm's only
        failure mode left — when this last line of defence fails too.
        """
        n = c.shape[1]
        partial = np.zeros_like(c)
        panel_idx = next_fold
        try:
            for panel_idx in range(next_fold, len(bounds)):
                lo, hi = bounds[panel_idx]
                rows = hi - lo
                worker = staged.get(panel_idx)
                if worker is not None:
                    panel = np.ndarray((rows, n), dtype=c.dtype,
                                       buffer=worker.in_shm.buf)
                else:
                    panel = _checked_panel(next(panels), rows, n)
                partial.fill(0)
                try:
                    self.engine.matmul_ata(panel, partial, alpha, algo=algo,
                                           cache=cache, parallel=parallel)
                finally:
                    del panel  # release any arena buffer export
                np.add(c, partial, out=c)
                recovery.degraded_panels += 1
        except Exception as exc:
            raise FarmError(
                f"farm could not heal a worker failure ({signal.reason}); "
                "the retry budget was exhausted and the degraded "
                f"in-process completion failed at panel {panel_idx} of "
                f"{len(bounds)}: {exc!r}") from exc


# ---------------------------------------------------------------------------
# module-level convenience (default engine)
# ---------------------------------------------------------------------------

def run_farm(a, c: Optional[np.ndarray] = None, alpha: float = 1.0, *,
             beta: float = 1.0, algo: str = "auto", cache=None,
             parallel: Optional[str] = None, budget: Optional[int] = None,
             panel_rows: Optional[int] = None,
             procs: Optional[int] = None,
             max_retries: Optional[int] = None
             ) -> Tuple[np.ndarray, FarmRunStats]:
    """Multi-process out-of-core ``C = alpha * A^T A + beta * C`` on the
    default engine, returning ``(C, FarmRunStats)``; see :class:`PanelFarm`."""
    from .dispatch import default_engine
    return PanelFarm(default_engine(), procs=procs,
                     max_retries=max_retries).run(
        a, c, alpha, beta=beta, algo=algo, cache=cache, parallel=parallel,
        budget=budget, panel_rows=panel_rows)
