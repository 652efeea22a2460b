"""AtA-S — the shared-memory parallel algorithm (Algorithm 3, Section 4.2).

The algorithm has two phases:

1. *Task assignment*: every thread conceptually simulates the recursion of
   ``AtANaive`` and derives the task tree ``T``; here the tree is built
   once by :func:`repro.scheduler.build_task_tree` (the result is identical
   for every thread, so building it once is equivalent and cheaper).
   Leaves carry the computation type and the sub-matrix offsets; inner
   nodes are ignored because no communication is needed in shared memory.

2. *Execution*: each thread runs the task(s) it owns — ``AtA`` for
   A^T A-type leaves, ``FastStrassen`` for A^T B-type leaves — on views of
   the shared input/output arrays.  Because the shared-memory tree tiles
   ``C`` into disjoint blocks (Fig. 2), threads never write to overlapping
   memory and no synchronisation is required until the final join.

The function returns the lower-triangular product like the sequential
:func:`repro.core.ata.ata`, plus (optionally) an
:class:`~repro.parallel.executor.ExecutionReport` describing per-worker
work, which the benchmark harness feeds to the performance model to obtain
the modeled multi-core times of Fig. 5.
"""

from __future__ import annotations

from typing import Literal, Optional, Tuple, Union

import numpy as np

from ..blas.kernels import scale, validate_product
from ..cache.model import CacheModel, default_cache_model
from ..engine import default_engine
from ..errors import ShapeError
from ..scheduler.task import ComputationType, Task
from ..scheduler.tree import TaskTree, build_task_tree
from .executor import ExecutionReport, get_executor

__all__ = ["ata_shared", "make_task_callable"]


def make_task_callable(task: Task, a: np.ndarray, c: np.ndarray, alpha: float,
                       cache: Optional[CacheModel], *,
                       use_strassen: bool = True):
    """Wrap a scheduler :class:`Task` into a zero-argument callable that
    performs the task on views of ``a`` and ``c``.

    Exposed separately so the distributed algorithm and the examples can
    reuse the same task-to-computation mapping.

    Leaves execute through the process-wide execution engine: many leaves
    of one tree (and of every later call on the same problem shape) share
    identical sub-matrix shapes, so their recursion plans are compiled once
    and their Strassen workspaces come from the pool instead of being
    re-allocated per leaf.  The engine is thread-safe — each concurrent
    leaf checks out its own workspace — and its results are bit-identical
    to the direct ``ata``/``fast_strassen`` calls it replaced.
    """
    model = cache if cache is not None else default_cache_model(a.dtype)
    engine = default_engine()

    if task.kind is ComputationType.ATA:
        a_view = task.a.view(a)
        c_view = task.c.view(c)

        def run_ata() -> None:
            engine.matmul_ata(a_view, c_view, alpha, cache=model)

        return run_ata

    a_view = task.a.view(a)
    b_view = task.b.view(a)  # type: ignore[union-attr]  # B is a block of A
    c_view = task.c.view(c)

    def run_atb() -> None:
        engine.matmul_atb(a_view, b_view, c_view, alpha,
                          algo="strassen" if use_strassen else "recursive_gemm",
                          cache=model)

    return run_atb


def ata_shared(a: np.ndarray, c: Optional[np.ndarray] = None, alpha: float = 1.0, *,
               threads: int = 4,
               beta: float = 1.0,
               executor: Literal["serial", "threads", "simulated"] = "threads",
               cache: Optional[CacheModel] = None,
               tree: Optional[TaskTree] = None,
               use_strassen: bool = True,
               return_report: bool = False,
               ) -> Union[np.ndarray, Tuple[np.ndarray, ExecutionReport, TaskTree]]:
    """Lower-triangular ``C = alpha * A^T A + beta * C`` computed by AtA-S.

    Parameters
    ----------
    a:
        Input matrix of shape ``(m, n)``.
    c:
        Output ``(n, n)`` matrix; allocated when omitted.  Only the lower
        triangle is meaningful on return.
    alpha, beta:
        The usual BLAS-style scaling factors.
    threads:
        Number of workers ``P``; the task tree is built for this count.
    executor:
        ``"threads"`` (default) runs leaves on a thread pool of ``threads``
        workers, ``"serial"`` runs them in order in the calling thread,
        ``"simulated"`` runs serially but attributes cost to simulated
        cores (used by the benchmark harness on machines with fewer
        physical cores than the paper's nodes).
    cache:
        Ideal cache model for the base cases of the per-leaf recursions.
    tree:
        A pre-built task tree to reuse (must match ``a``'s shape and
        ``threads``); built on the fly when omitted.
    use_strassen:
        When False, A^T B leaves use RecursiveGEMM instead of FastStrassen
        (the AtANaive variant; used in ablation benchmarks).
    return_report:
        When True, return ``(c, report, tree)`` instead of just ``c``.

    Notes
    -----
    The result is numerically identical to the sequential
    :func:`repro.core.ata.ata` up to floating point reassociation, because
    the leaf tasks partition exactly the same set of block products.
    """
    c = validate_product(a, c=c)
    m, n = a.shape
    if threads < 1:
        raise ShapeError(f"threads must be >= 1, got {threads}")

    scale(c, beta)

    if tree is None:
        tree = build_task_tree(m, n, threads, mode="shared")
    elif tree.mode != "shared" or tree.m != m or tree.n != n or tree.processes != threads:
        raise ShapeError("supplied task tree does not match the problem "
                         f"(tree is {tree.mode} {tree.m}x{tree.n} for {tree.processes} workers)")

    model = cache if cache is not None else default_cache_model(a.dtype)
    items = [(task.owner, make_task_callable(task, a, c, alpha, model,
                                             use_strassen=use_strassen))
             for task in tree.tasks()]

    backend = get_executor(executor, workers=threads)
    report = backend.run(items)

    if return_report:
        return c, report, tree
    return c
