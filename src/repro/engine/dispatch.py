"""Dispatch front-end: registry-driven backend selection over cached plans.

:class:`ExecutionEngine` ties the engine pieces together: it resolves each
request to an execution :class:`~repro.engine.backends.Backend` (explicit
``algo=`` first, else the deterministic modeled-cost heuristic
:func:`~repro.engine.backends.choose_heuristic`), and provides
the services backends execute through: the plan cache, the workspace pool
and the sequential/DAG schedulers.  A module-level default engine serves the
library's own rewired call sites (:mod:`repro.apps`,
:mod:`repro.parallel.ata_shared`, :mod:`repro.bench`); tests and
benchmarks construct isolated engines.

Algorithm selection is **pluggable**: nothing in this module enumerates
algorithms.  ``algo=`` strings are looked up in the backend registry
(:mod:`repro.engine.backends`), so a backend registered at runtime is
immediately dispatchable, and the set a given operation accepts is exactly
``backend_names(op)``.  Each backend's output is bit-identical to its
direct call; dispatch only selects among them.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import Counter
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..blas.direct import blas_threads
from ..blas.kernels import scale, validate_b, validate_c, validate_matrix
from ..cache.model import CacheModel, default_cache_model
from ..config import get_config
from ..errors import ConfigurationError, ShapeError
from .backends import Backend, candidates, choose_heuristic, get_backend
from .cache import PlanCache
from .cpu import available_cpus
from .dag import DagExecutor
from .plan import ExecutionPlan, compile_plan, execute_plan
from .pool import WorkspacePool
from .sparse import operand_kind, operand_nnz, validate_operand

__all__ = ["ExecutionEngine", "EngineStats", "default_engine",
           "matmul_ata", "matmul_atb", "run_batch", "run_batch_atb",
           "validate_dense", "validate_structured", "explicit_backend"]


def validate_dense(a: np.ndarray, b: Optional[np.ndarray] = None) -> None:
    """Validate the operands of a dense request: ``A`` alone for ``ata``,
    the ``(A, B)`` pair for ``atb``.

    With :func:`validate_structured` this is the engine's front door to
    the operand contract of :mod:`repro.blas.kernels`
    (:func:`~repro.blas.kernels.validate_product`): the ``matmul_*`` and
    batch entry points and the serving layer's pre-admission check (in
    process and over the wire) all call these, so the engine raises what
    every direct entry point raises.
    """
    validate_matrix(a, "A")
    if b is not None:
        validate_b(a, b)


def validate_structured(a, b: Optional[np.ndarray] = None) -> None:
    """:func:`validate_dense` for a scipy sparse ``A`` (``B`` stays a
    dense ndarray)."""
    validate_operand(a, "A")
    if b is not None:
        validate_b(a, b)


def explicit_backend(algo: str, op: str, shape: Tuple[int, ...], dtype,
                     model: CacheModel, operand=None) -> Backend:
    """Resolve an explicit ``algo=`` selector for this exact request.

    Raises :class:`ShapeError` when the backend is unknown, does not take
    the operand's kind, or cannot serve the shape.  Dispatch calls it for
    every explicit ``algo``; the serving layer calls it before admission,
    per exact shape, because its coalescing key only buckets shapes.
    """
    backend = get_backend(algo, op)
    kind = operand_kind(operand) if operand is not None else "dense"
    if kind not in backend.operands:
        raise ShapeError(
            f"backend {algo!r} does not accept {kind!r} operands "
            f"(accepts {sorted(backend.operands)})")
    if not backend.supports(op, shape, dtype, model):
        raise ShapeError(
            f"backend {algo!r} cannot serve {op!r} on shape {shape} "
            f"with dtype {np.dtype(dtype)} on this host")
    return backend


_PARALLEL_MODES = ("auto", "dag")

#: "auto" falls back to sequential replay below this step count: the
#: scheduling machinery costs more than it can overlap on tiny plans.
_DAG_MIN_STEPS = 8


@dataclasses.dataclass(frozen=True)
class EngineStats:
    """A point-in-time snapshot of an engine's cache, pool, scheduler and
    backend accounting.  The plan, pool and DAG fields are read
    from those objects; every other int field is a key of the engine's
    tally (see :meth:`ExecutionEngine._count`)."""

    plan_hits: int = 0
    plan_misses: int = 0
    #: plans dropped by an explicit ``engine.clear()`` /
    #: ``plans.invalidate()``; a config change drops nothing (the plan
    #: key carries every config value a plan depends on)
    plan_invalidations: int = 0
    plan_evictions: int = 0
    cached_plans: int = 0
    pool_allocations: int = 0
    pool_reuses: int = 0
    pool_idle: int = 0
    pool_evictions: int = 0
    #: lifetime high-water mark (bytes) of the engine's pooled workspaces
    #: (idle + checked out) — the figure the out-of-core executor charges
    #: against the per-call ``budget=``
    pool_bytes_high: int = 0
    dag_runs: int = 0
    dag_steps: int = 0
    sequential_runs: int = 0
    #: executions per backend name (every completed matmul_* increments
    #: exactly one bucket)
    backend_runs: Mapping[str, int] = dataclasses.field(
        default_factory=dict, metadata={"label": "backend"})
    #: the same executions by why dispatch chose their backend:
    #: ``explicit`` (``algo=``) or ``heuristic`` (the modeled cost)
    dispatch_reasons: Mapping[str, int] = dataclasses.field(
        default_factory=dict, metadata={"label": "reason"})
    #: completed ``run_batch`` / ``run_batch_atb`` invocations
    batch_calls: int = 0
    #: requests those batch invocations carried in total — the serving
    #: layer's coalescing effectiveness is ``batch_items / batch_calls``
    batch_items: int = 0
    #: completed out-of-core (:mod:`repro.engine.ooc`) runs through this
    #: engine
    ooc_runs: int = 0
    #: row panels those runs streamed in total
    ooc_panels: int = 0
    #: high-water mark (bytes) of the out-of-core resident set across all
    #: runs: the output ``C`` plus the staged panel — see
    #: :class:`repro.engine.ooc.OocRunStats`
    ooc_bytes_resident_high: int = 0
    #: memory budget (bytes) of the most recent out-of-core run
    #: (0 = unbounded)
    ooc_budget_bytes: int = 0
    #: completed multi-process farm (:mod:`repro.engine.farm`) runs
    #: recorded against this engine
    farm_runs: int = 0
    #: row panels those farm runs fanned out in total
    farm_panels: int = 0
    #: worker-process count of the most recent farm run
    farm_procs: int = 0
    #: high-water mark (bytes) of the farm resident set across all runs:
    #: ``C`` plus every worker's input/output arenas — see
    #: :class:`repro.engine.farm.FarmRunStats`
    farm_bytes_resident_high: int = 0
    #: worker processes started for farm runs' initial pools (cold
    #: starts; 0 while runs reuse the warm pool), across all farm runs
    farm_spawned: int = 0
    #: worker processes respawned after dying or failing mid-run, across
    #: all farm runs (0 = no recovery was ever needed)
    farm_respawns: int = 0
    #: panel replays: lost panels re-staged onto respawned workers,
    #: across all farm runs
    farm_retried_panels: int = 0
    #: panels completed by the farm's in-process degradation path after
    #: the per-panel retry budget (:data:`repro.engine.farm.MAX_RETRIES`)
    #: ran out
    farm_degraded: int = 0
    #: completed matmul_* calls whose operand was scipy sparse
    sparse_runs: int = 0
    #: sparse runs served by the ``densify`` crossover backend — the
    #: modeled heuristic judged materialising the operand densely faster
    #: than staying sparse
    densify_crossovers: int = 0
    #: stored entries (nnz) those sparse runs processed in total
    sparse_nnz: int = 0

    @property
    def plan_hit_rate(self) -> float:
        total = self.plan_hits + self.plan_misses
        return self.plan_hits / total if total else 0.0

    @property
    def total_backend_runs(self) -> int:
        return sum(self.backend_runs.values())

    @property
    def mean_batch_size(self) -> float:
        return self.batch_items / self.batch_calls if self.batch_calls else 0.0


class ExecutionEngine:
    """Compile-once / execute-many front-end for the AtA algorithm family.

    Parameters
    ----------
    plan_capacity:
        LRU capacity of the plan cache.
    pool_size:
        Maximum idle workspaces retained by the workspace pool.
    workers:
        Maximum worker threads per plan execution (caller included).  With
        ``workers > 1``, plans are compiled with their step dependency DAG
        and ``min(workers, 4)`` scratch lanes (more lanes decouple
        Strassen scratch reuse, at up to ``lanes``× the sequential
        workspace), and large executions are scheduled across the worker
        pool.  ``workers=1`` (the default) replays every plan
        sequentially.
    parallel:
        ``"auto"`` (default) DAG-schedules plans with enough independent
        steps when ``workers > 1``, on at most ``available_cpus() //
        blas_threads()`` workers (the cores the bound BLAS leaves free;
        sequential replay when that is one); ``"dag"`` forces DAG
        scheduling (with ``workers == 1`` this is a deterministic
        dependency-ordered replay).  Scheduling is fixed here, for every call the engine
        serves.

    Notes
    -----
    Results are bit-for-bit identical to each backend's direct call
    (:func:`repro.core.ata.ata`, :func:`repro.core.strassen.fast_strassen`,
    :func:`repro.core.recursive_gemm.recursive_gemm`,
    :func:`repro.blas.direct.direct_syrk`) because plans replay the exact
    kernel sequence of the recursion, and DAG scheduling orders every pair
    of conflicting steps exactly as the sequential replay does (see
    :mod:`repro.engine.dag`).  The engine is safe to use
    from multiple threads: plans are immutable and each concurrent
    execution checks out its own workspace.
    """

    def __init__(self, plan_capacity: int = 128, pool_size: int = 8,
                 workers: int = 1, parallel: str = "auto") -> None:
        if parallel not in _PARALLEL_MODES:
            raise ConfigurationError(f"unknown parallel mode {parallel!r}; "
                                     "expected 'auto' or 'dag'")
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.plans = PlanCache(capacity=plan_capacity)
        self.pool = WorkspacePool(max_idle=pool_size)
        self.workers = int(workers)
        self.parallel = parallel
        self._dag_capable = workers > 1 or parallel == "dag"
        self._lanes = min(self.workers, 4) if self._dag_capable else 1
        self.dag = DagExecutor(self.workers) if self._dag_capable else None
        # "auto" never schedules more workers than the host has cores to
        # spare: on an under-provisioned host the GIL serialises the
        # Python-level dispatch and DAG scheduling would only add overhead
        # ("dag" still forces it, which is what the determinism tests rely
        # on).  The count honours the affinity/cgroup mask, not the
        # installed cores (a container pinned to 2 of 64 cores gets 2 auto
        # workers), and divides by the threads the bound BLAS already runs
        # each leaf on: 2 cores under a 2-thread OpenBLAS leave no core for
        # a second DAG worker.  A one-worker engine (the import-time
        # default among them) never asks, so importing the package binds
        # no BLAS library
        self._auto_workers = (
            min(self.workers, max(1, available_cpus() // (blas_threads() or 1)))
            if self.workers > 1 else 1)
        # per-engine accounting: ``_tally`` holds the EngineStats fields by
        # name, the other two count executions
        self._tally: Counter = Counter()
        self._backend_runs: Counter = Counter()
        self._dispatch_reasons: Counter = Counter()
        self._stats_lock = threading.Lock()

    # -- plan acquisition ---------------------------------------------------
    def _plan(self, backend: str, kind: str, shape: tuple, dtype,
              model: CacheModel) -> ExecutionPlan:
        """Fetch (or compile) the plan for ``(backend, kind, shape)``.

        The key leads with the backend id, so two backends compiling the
        same plan kind can never collide in the cache.  The depth limit is
        read once and handed to the walk, so key and plan cannot disagree.
        """
        max_depth = get_config().max_recursion_depth
        key = (backend, kind, shape, np.dtype(dtype).str,
               model.capacity_words, model.line_words, self._lanes, max_depth)
        return self.plans.get_or_compile(
            key, lambda: compile_plan(kind, shape, dtype, model, key=key,
                                      lanes=self._lanes,
                                      build_dag=self._dag_capable,
                                      max_depth=max_depth))

    # -- backend resolution -------------------------------------------------
    def _resolve_backend(self, op: str, shape: Tuple[int, ...], dtype,
                         model: CacheModel, algo: str,
                         operand=None) -> Tuple[Backend, str]:
        """Resolve a request to a backend.

        Returns ``(backend, reason)``.  ``reason`` names the precedence
        level that decided: ``"explicit"`` ``algo``, else ``"heuristic"``
        (modeled cost).  A scipy sparse ``operand`` flips the candidate
        axis to its kind — only backends declaring that kind are
        considered — and its density feeds the sparse backends' cost
        hooks.  Dense requests (``operand=None``) resolve byte-identically
        to the pre-sparse engine.
        """
        if algo != "auto":
            return (explicit_backend(algo, op, shape, dtype, model, operand),
                    "explicit")
        kind = operand_kind(operand) if operand is not None else "dense"
        pool = candidates(op, shape, dtype, model, kind=kind)
        return (choose_heuristic(op, shape, dtype, model, pool,
                                 operand=operand), "heuristic")

    def _run_backend(self, backend: Backend, op: str, a: np.ndarray,
                     c: np.ndarray, alpha: float, b: Optional[np.ndarray],
                     model: CacheModel, reason: str,
                     held: Optional[dict] = None) -> None:
        """Execute through ``backend`` and count the run under ``reason``."""
        backend.run(self, op, a, c, alpha, b, model, held)
        self._count_run(backend.name, reason)

    def _count_run(self, backend: str, reason: str) -> None:
        with self._stats_lock:
            self._backend_runs[backend] += 1
            self._dispatch_reasons[reason] += 1

    def _count(self, *, high: Mapping[str, int] = {},
               last: Mapping[str, int] = {}, **sums: int) -> None:
        """Fold one update into the tally, atomically: ``sums`` add,
        ``high`` keeps each field's maximum, ``last`` overwrites."""
        with self._stats_lock:
            self._tally.update(sums)
            for name, value in high.items():
                self._tally[name] = max(self._tally[name], value)
            for name, value in last.items():
                self._tally[name] = value

    # -- scheduling ---------------------------------------------------------
    def _execute(self, plan: ExecutionPlan, a: np.ndarray, c: np.ndarray,
                 alpha: float, workspace, b: Optional[np.ndarray]) -> None:
        use_dag = (self.dag is not None and plan.dag is not None
                   and (self.parallel == "dag"
                        or (self._auto_workers > 1
                            and plan.n_steps >= _DAG_MIN_STEPS
                            and plan.dag.max_width > 1)))
        if use_dag:
            # "auto" never schedules beyond the host's cores; "dag"
            # honours the configured worker count as-is
            cap = self._auto_workers if self.parallel == "auto" else None
            self.dag.execute(plan, a, c, alpha, workspace, b=b,
                             max_workers=cap)
        else:
            self._count(sequential_runs=1)
            execute_plan(plan, a, c, alpha, workspace, b=b)

    # -- A^T A --------------------------------------------------------------
    def matmul_ata(self, a: np.ndarray, c: Optional[np.ndarray] = None,
                   alpha: float = 1.0, *, beta: float = 1.0,
                   algo: str = "auto",
                   cache: Optional[CacheModel] = None) -> np.ndarray:
        """Lower-triangular ``C = alpha * A^T A + beta * C`` via a backend.

        Parameters
        ----------
        a:
            Input matrix of shape ``(m, n)``.
        c:
            Output ``(n, n)`` matrix (allocated as zeros when omitted);
            only its lower triangle is written.
        alpha, beta:
            BLAS-style scaling factors (``beta`` pre-scales ``c``;
            ``beta == 0`` overwrites it, so an unset ``c`` — NaN, Inf —
            need not be zeroed first, as in BLAS ``?syrk``).
        algo:
            ``"auto"`` resolves through the modeled-cost heuristic
            (``syrk`` when the operand fits the cache model, the
            Algorithm 1 plan otherwise).  Any registered backend name
            (``"ata"``, ``"syrk"``, ``"tiled"``, ``"recursive_gemm"``,
            ``"blas_direct"``, …) forces that path.
        cache:
            Cache model for the base-case predicates; defaults to the
            configured model for ``a``'s dtype.

        ``a`` may also be a scipy sparse matrix (any format): dispatch
        then selects between the sparse backends (``sparse_gram`` /
        ``densify``) by their modeled cost at the operand's density.
        ``c`` stays a
        dense ndarray either way.
        """
        kind = operand_kind(a)
        (validate_dense if kind == "dense" else validate_structured)(a)
        c = validate_c(a, c, beta=beta)
        return self._run_request("ata", a.shape, kind, a, None, c, alpha,
                                 beta, algo, cache)

    # -- A^T B --------------------------------------------------------------
    def matmul_atb(self, a: np.ndarray, b: np.ndarray,
                   c: Optional[np.ndarray] = None, alpha: float = 1.0, *,
                   algo: str = "auto",
                   cache: Optional[CacheModel] = None) -> np.ndarray:
        """``C = alpha * A^T B + C`` via a backend.

        ``algo="auto"`` resolves through the same precedence as
        :meth:`matmul_ata` (the heuristic picks FastStrassen);
        ``"recursive_gemm"`` forces the classical Algorithm 2 recursion
        and ``"blas_direct"`` a bound vendor ``?gemm``.

        ``a`` may be a scipy sparse matrix (``b`` and ``c`` stay dense):
        dispatch selects between the sparse backends by modeled cost, as
        in :meth:`matmul_ata`.
        """
        kind = operand_kind(a)
        (validate_dense if kind == "dense" else validate_structured)(a, b)
        c = validate_c(a, c, b)
        return self._run_request("atb", (*a.shape, b.shape[1]), kind, a, b, c,
                                 alpha, 1.0, algo, cache)

    def _run_request(self, op: str, shape: Tuple[int, ...], kind: str,
                     a, b: Optional[np.ndarray], c: np.ndarray, alpha: float,
                     beta: float, algo: str,
                     cache: Optional[CacheModel]) -> np.ndarray:
        """Resolve, pre-scale ``c`` by ``beta`` and run one validated
        request, counting a sparse operand's run and nnz."""
        model = cache if cache is not None else default_cache_model(a.dtype)
        operand = a if kind != "dense" else None
        backend, reason = self._resolve_backend(
            op, shape, a.dtype, model, algo, operand=operand)
        scale(c, beta)
        self._run_backend(backend, op, a, c, alpha, b, model, reason)
        if operand is not None:
            self._count(sparse_runs=1, sparse_nnz=operand_nnz(a),
                        densify_crossovers=int(backend.name == "densify"))
        return c

    # -- out-of-core --------------------------------------------------------
    def matmul_ata_ooc(self, a, c: Optional[np.ndarray] = None,
                       alpha: float = 1.0, *, beta: float = 1.0,
                       algo: str = "auto",
                       cache: Optional[CacheModel] = None,
                       budget: int = 0,
                       panel_rows: Optional[int] = None,
                       procs: int = 0) -> np.ndarray:
        """Out-of-core ``C = alpha * A^T A + beta * C``: stream row panels
        of ``a`` (an array, ``np.memmap`` or chunk source) through this
        engine under ``budget`` bytes (0, the default, is unbounded).

        Each panel's Gram update is an ordinary :meth:`matmul_ata` call —
        plans, the workspace pool and backend selection are reused at
        panel granularity — accumulated in the deterministic schedule of
        :class:`repro.engine.ooc.ShardedAtA` (see there for the
        bit-identity contract).  ``procs`` selects the executor: ``0``
        runs in-process (the default), ``N >= 1`` fans
        panels out to ``N`` worker processes through
        :class:`repro.engine.farm.PanelFarm`.
        """
        result, _ = self.run_ooc(a, c, alpha, beta=beta, algo=algo,
                                 cache=cache, budget=budget,
                                 panel_rows=panel_rows, procs=procs)
        return result

    def run_ooc(self, a, c: Optional[np.ndarray] = None, alpha: float = 1.0,
                *, beta: float = 1.0, algo: str = "auto",
                cache: Optional[CacheModel] = None,
                budget: int = 0,
                panel_rows: Optional[int] = None,
                procs: int = 0):
        """Like :meth:`matmul_ata_ooc` but returns ``(C, run stats)`` —
        ``(C, OocRunStats)`` from the in-process executor (``procs=0``),
        ``(C, FarmRunStats)`` from the multi-process farm (``procs>=1``)."""
        if procs:
            from .farm import PanelFarm
            return PanelFarm(self, procs=procs).run(
                a, c, alpha, beta=beta, algo=algo, cache=cache,
                budget=budget, panel_rows=panel_rows)
        from .ooc import ShardedAtA
        return ShardedAtA(self).run(a, c, alpha, beta=beta, algo=algo,
                                    cache=cache, budget=budget,
                                    panel_rows=panel_rows)

    def _record_ooc(self, stats) -> None:
        """Fold one :class:`~repro.engine.ooc.OocRunStats` into the tally."""
        self._count(ooc_runs=1, ooc_panels=stats.panels,
                    high={"ooc_bytes_resident_high": stats.bytes_resident_high},
                    last={"ooc_budget_bytes": stats.budget_bytes})

    def _record_farm(self, stats) -> None:
        """Fold one :class:`~repro.engine.farm.FarmRunStats` into the
        tally."""
        self._count(farm_runs=1, farm_panels=stats.panels,
                    farm_spawned=stats.spawned,
                    farm_respawns=stats.respawns,
                    farm_retried_panels=stats.retried_panels,
                    farm_degraded=stats.degraded_panels,
                    high={"farm_bytes_resident_high": stats.bytes_resident_high},
                    last={"farm_procs": stats.procs})

    # -- batching -----------------------------------------------------------
    def _batched(self, op: str, items, prepare, algo: str, alpha: float,
                 cache: Optional[CacheModel]) -> List[np.ndarray]:
        """Shared mechanics of :meth:`run_batch` / :meth:`run_batch_atb`.

        ``prepare(item)`` validates one item and returns ``(a, b, shape,
        c)``.  Every item then takes the single-request path — resolve,
        then run, with the same DAG-or-sequential choice — except that
        plan workspaces are held per plan key across the whole batch, so
        items resolving to the same plan share one checked-out workspace.
        The batch counters count only completed invocations.
        """
        if algo != "auto":
            get_backend(algo, op)  # reject unknown/unsupported up front
        held: dict = {}
        prepared = [prepare(item) for item in items]
        try:
            for a, b, shape, c in prepared:
                model = cache if cache is not None else default_cache_model(a.dtype)
                backend, reason = self._resolve_backend(
                    op, shape, a.dtype, model, algo)
                self._run_backend(backend, op, a, c, alpha, b, model, reason,
                                  held=held)
            self._count(batch_calls=1, batch_items=len(prepared))
        finally:
            for workspace in held.values():
                self.pool.release(workspace)
        return [c for *_, c in prepared]

    def run_batch(self, matrices: Sequence[np.ndarray], *,
                  algo: str = "auto", alpha: float = 1.0,
                  cache: Optional[CacheModel] = None) -> List[np.ndarray]:
        """Compute ``alpha * A^T A`` for every matrix in ``matrices``.

        Each matrix takes the :meth:`matmul_ata` path, DAG-or-sequential
        choice included, and matrices resolving to the same plan share a
        single checked-out workspace on every engine, so a homogeneous
        batch compiles once and allocates once no matter its length.
        Results are identical to calling :meth:`matmul_ata` in a loop.
        """
        def prepare(a: np.ndarray):
            validate_dense(a)
            return a, None, a.shape, validate_c(a, None)

        return self._batched("ata", matrices, prepare, algo, alpha, cache)

    def run_batch_atb(self, pairs: Sequence[Tuple[np.ndarray, np.ndarray]], *,
                      algo: str = "auto", alpha: float = 1.0,
                      cache: Optional[CacheModel] = None) -> List[np.ndarray]:
        """Compute ``alpha * A^T B`` for every ``(A, B)`` pair in ``pairs``.

        The ``atb`` counterpart of :meth:`run_batch` — and the primitive
        the serving layer coalesces concurrent ``atb`` requests into: each
        pair takes the :meth:`matmul_atb` path and pairs resolving to the
        same plan share one checked-out workspace on every engine, so a
        homogeneous batch compiles once and allocates once.  Results are
        identical to calling :meth:`matmul_atb` in a loop.
        """
        def prepare(pair):
            a, b = pair
            validate_dense(a, b)
            return a, b, (*a.shape, b.shape[1]), validate_c(a, None, b)

        return self._batched("atb", pairs, prepare, algo, alpha, cache)

    # -- maintenance --------------------------------------------------------
    def stats(self) -> EngineStats:
        """Snapshot the plan-cache, workspace-pool, DAG-scheduler and
        backend accounting.  The tally is copied under one lock hold, so
        the snapshot never mixes two halves of one update."""
        with self._stats_lock:
            tally = dict(self._tally)
            backend_runs = dict(self._backend_runs)
            reasons = dict(self._dispatch_reasons)
        return EngineStats(
            plan_hits=self.plans.hits,
            plan_misses=self.plans.misses,
            plan_invalidations=self.plans.invalidations,
            plan_evictions=self.plans.evictions,
            cached_plans=len(self.plans),
            pool_allocations=self.pool.allocations,
            pool_reuses=self.pool.reuses,
            pool_idle=self.pool.idle_count,
            pool_evictions=self.pool.evictions,
            pool_bytes_high=self.pool.bytes_high_water,
            dag_runs=self.dag.runs if self.dag is not None else 0,
            dag_steps=self.dag.steps_retired if self.dag is not None else 0,
            backend_runs=backend_runs,
            dispatch_reasons=reasons,
            **tally)

    def clear(self) -> None:
        """Drop all cached plans and pooled workspaces (stats retained)."""
        self.plans.invalidate()
        self.pool.clear()

    def close(self) -> None:
        """Release the DAG executor's helper threads and stop the farm's
        idle warm pool (engine stays usable; threads and pool are
        recreated on the next run needing them)."""
        if self.dag is not None:
            self.dag.shutdown()
        from .farm import stop_idle_pool
        stop_idle_pool()


#: The process-wide engine serving the library's rewired call sites.
_DEFAULT_ENGINE = ExecutionEngine()


def default_engine() -> ExecutionEngine:
    """Return the process-wide :class:`ExecutionEngine` instance."""
    return _DEFAULT_ENGINE


def matmul_ata(a: np.ndarray, c: Optional[np.ndarray] = None,
               alpha: float = 1.0, *, beta: float = 1.0,
               algo: str = "auto",
               cache: Optional[CacheModel] = None) -> np.ndarray:
    """Module-level convenience: :meth:`ExecutionEngine.matmul_ata` on the
    default engine."""
    return _DEFAULT_ENGINE.matmul_ata(a, c, alpha, beta=beta, algo=algo, cache=cache)


def matmul_atb(a: np.ndarray, b: np.ndarray, c: Optional[np.ndarray] = None,
               alpha: float = 1.0, *, algo: str = "auto",
               cache: Optional[CacheModel] = None) -> np.ndarray:
    """Module-level convenience: :meth:`ExecutionEngine.matmul_atb` on the
    default engine."""
    return _DEFAULT_ENGINE.matmul_atb(a, b, c, alpha, algo=algo, cache=cache)


def run_batch(matrices: Sequence[np.ndarray], *, algo: str = "auto",
              alpha: float = 1.0,
              cache: Optional[CacheModel] = None) -> List[np.ndarray]:
    """Module-level convenience: :meth:`ExecutionEngine.run_batch` on the
    default engine."""
    return _DEFAULT_ENGINE.run_batch(matrices, algo=algo, alpha=alpha, cache=cache)


def run_batch_atb(pairs: Sequence[Tuple[np.ndarray, np.ndarray]], *,
                  algo: str = "auto", alpha: float = 1.0,
                  cache: Optional[CacheModel] = None) -> List[np.ndarray]:
    """Module-level convenience: :meth:`ExecutionEngine.run_batch_atb` on
    the default engine."""
    return _DEFAULT_ENGINE.run_batch_atb(pairs, algo=algo, alpha=alpha, cache=cache)
