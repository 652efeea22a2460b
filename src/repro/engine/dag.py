"""DAG-parallel execution of compiled plans.

:func:`~repro.engine.plan.execute_plan` replays a plan's steps strictly in
plan order; this module schedules them by *dependency* instead.  The
compiler already derived the step dependency graph
(:class:`~repro.engine.plan.StepDag`): steps whose operand regions conflict
carry a forward edge, so any topological execution retires accumulation
chains in exactly the sequential order, while steps with provably disjoint
reads and writes may run concurrently.  That is what keeps DAG execution
**bit-identical** to the sequential replay (and hence to the direct
recursions) under any worker count — floating-point addition is not
associative, so the ordering of conflicting steps, not the scheduling of
independent ones, is what determines the bits.

The executor is a ready-queue dispatcher over a persistent
:class:`concurrent.futures.ThreadPoolExecutor`: the calling thread always
participates as a worker (so progress is guaranteed even when the helper
pool is saturated by other concurrent runs on the same engine) and up to
``workers - 1`` helper tasks drain the shared ready heap.  A step becomes
ready when its last predecessor retires; the heap prefers the highest
*bottom-level priority* (the step's flop cost plus the costliest
dependency chain hanging off it, precomputed by the compiler), so the
critical path drains ahead of leaf work — ties break by step index, and
any pop order is bit-identical anyway since the DAG already serialises
every conflicting pair.

Real overlap requires the GIL to be released inside the kernels — numpy's
matmul does so for the dominant ``syrk``/``gemm`` steps, which is the same
caveat the shared-memory scheduler documents in DESIGN.md.  On a
single-core host DAG execution degrades gracefully to roughly sequential
speed (plus scheduling overhead); the ``engine_dag_parallel`` experiment
reports the measured ratio.
"""

from __future__ import annotations

import dataclasses
import heapq
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, ShapeError
from .plan import ExecutionPlan, record_plan_counters, run_step

__all__ = ["DagExecutor", "DagRunStats"]


@dataclasses.dataclass(frozen=True)
class DagRunStats:
    """What one DAG-scheduled plan execution looked like.

    Attributes
    ----------
    steps:
        Steps retired (always the plan's full step count on success).
    edges:
        Dependency edges of the executed DAG.
    workers:
        Workers that participated (caller thread included).
    critical_path:
        Length of the longest dependency chain — the step-count lower
        bound no worker count can beat.
    """

    steps: int
    edges: int
    workers: int
    critical_path: int


class DagExecutor:
    """Ready-queue scheduler executing plan steps as dependencies clear.

    Parameters
    ----------
    workers:
        Maximum workers per run, caller thread included.  The helper pool
        (``workers - 1`` threads) is created lazily on the first parallel
        run and persists across runs; :meth:`shutdown` releases it.

    Notes
    -----
    The executor is safe to share: concurrent :meth:`execute` calls keep
    their scheduling state on the stack and only share the helper pool and
    the cumulative counters.  Each run must execute against its own
    workspace (the engine's pool guarantees that), since plan steps address
    scratch by fixed offset.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()
        self.runs = 0
        self.steps_retired = 0

    def _submit_helpers(self, drain, count: int) -> list:
        """Create the helper pool if needed and submit ``count`` drain
        tasks, all under the lock so a concurrent :meth:`shutdown` cannot
        close the pool between the existence check and the submits."""
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers - 1,
                    thread_name_prefix="repro-dag")
            return [self._pool.submit(drain) for _ in range(count)]

    def shutdown(self) -> None:
        """Release the helper threads (the executor stays usable; the pool
        is recreated on the next parallel run)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def execute(self, plan: ExecutionPlan, a: np.ndarray, c: np.ndarray,
                alpha: float = 1.0, workspace=None,
                b: Optional[np.ndarray] = None,
                max_workers: Optional[int] = None) -> DagRunStats:
        """Execute ``plan`` in dependency order; returns run statistics.

        Arguments mirror :func:`~repro.engine.plan.execute_plan`; the
        result written into ``c`` is bit-identical to it.  ``max_workers``
        caps this run below the executor's configured worker count (the
        engine's ``"auto"`` mode passes the host-core cap).  Raises
        :class:`~repro.errors.ShapeError` when the plan was compiled
        without a DAG (``build_dag=False``).
        """
        dag = plan.dag
        if dag is None:
            raise ShapeError(f"plan {plan.key} was compiled without a "
                             "dependency DAG; recompile with build_dag=True")
        p = q = m = None
        if plan.needs_workspace:
            if workspace is None:
                raise ShapeError(f"plan {plan.key} requires a workspace "
                                 f"({plan.requirement}) but none was supplied")
            p, q, m = workspace.flat_buffers()

        steps = plan.steps
        succs = dag.succs
        n = len(steps)
        workers = self.workers
        if max_workers is not None:
            workers = max(1, min(workers, int(max_workers)))
        # a plan with no exploitable width runs faster without scheduling
        # machinery; plan order is a valid topological order (edges always
        # point forward), so this is exactly the sequential replay
        n_helpers = min(workers, dag.max_width, n) - 1
        if n_helpers < 1:
            for step in steps:
                run_step(step, a, b, c, p, q, m, alpha)
            return self._finish(plan, a, n, dag, workers=1)

        cond = threading.Condition()
        pending: List[int] = list(dag.preds)
        # highest bottom-level priority first (critical path drains ahead
        # of leaf work); ties break by step index.  DAGs from older plans
        # without cost data fall back to plain plan-order preference.
        prios = dag.priorities if dag.priorities else (0,) * n
        ready = [(-prios[i], i) for i, count in enumerate(pending)
                 if count == 0]
        heapq.heapify(ready)
        remaining = [n]
        failure: List[BaseException] = []

        def drain() -> None:
            while True:
                with cond:
                    while not ready and remaining[0] and not failure:
                        cond.wait()
                    if failure or not remaining[0]:
                        return
                    _, idx = heapq.heappop(ready)
                try:
                    run_step(steps[idx], a, b, c, p, q, m, alpha)
                except BaseException as exc:  # propagate to the caller
                    with cond:
                        failure.append(exc)
                        cond.notify_all()
                    return
                with cond:
                    remaining[0] -= 1
                    woken = 0
                    for succ in succs[idx]:
                        pending[succ] -= 1
                        if not pending[succ]:
                            heapq.heappush(ready, (-prios[succ], succ))
                            woken += 1
                    if woken or not remaining[0]:
                        cond.notify_all()

        helpers = self._submit_helpers(drain, n_helpers)
        drain()  # the caller is always a worker: progress is guaranteed
        for helper in helpers:
            helper.result()
        if failure:
            raise failure[0]
        return self._finish(plan, a, n, dag, workers=1 + n_helpers)

    def execute_batch(self, entries: Sequence[Tuple[ExecutionPlan,
                                                    np.ndarray,
                                                    Optional[np.ndarray],
                                                    np.ndarray]],
                      alpha: float = 1.0,
                      acquire: Optional[Callable] = None,
                      release: Optional[Callable] = None,
                      max_workers: Optional[int] = None) -> DagRunStats:
        """Run each ``(plan, a, b, c)`` entry through :meth:`execute`, in
        order, against a workspace from ``acquire(plan, dtype)`` that
        ``release(workspace)`` gets back even when the run fails.

        Returns the entries' :class:`DagRunStats`: ``steps``/``edges``
        summed, ``workers``/``critical_path`` the max over entries.
        """
        if not entries:
            raise ShapeError("execute_batch requires at least one entry")
        runs = []
        for plan, a, b, c in entries:
            ws = (acquire(plan, a.dtype)
                  if plan.needs_workspace and acquire is not None else None)
            try:
                runs.append(self.execute(plan, a, c, alpha, ws, b=b,
                                         max_workers=max_workers))
            finally:
                if ws is not None and release is not None:
                    release(ws)
        return DagRunStats(steps=sum(r.steps for r in runs),
                           edges=sum(r.edges for r in runs),
                           workers=max(r.workers for r in runs),
                           critical_path=max(r.critical_path for r in runs))

    def _finish(self, plan: ExecutionPlan, a: np.ndarray, n: int,
                dag, workers: int) -> DagRunStats:
        record_plan_counters(plan, a.dtype.itemsize)
        with self._lock:
            self.runs += 1
            self.steps_retired += n
        return DagRunStats(steps=n, edges=dag.n_edges, workers=workers,
                           critical_path=dag.critical_path)
