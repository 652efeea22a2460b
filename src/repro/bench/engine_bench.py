"""Engine experiments: plan-cache amortisation, DAG-parallel execution,
the default base case and the measured check of backend selection.

``engine_plan_cache`` measures compile-once/execute-many: under repeated
traffic the recursion walk, the cache-fit checks and the workspace
allocation are paid once per ``(shape, dtype, algorithm, cache model,
config)`` key instead of once per call.  It runs the same AtA product
through a fresh :class:`~repro.engine.ExecutionEngine` twice per size:

* **cold** — the plan cache and workspace pool are cleared before every
  call, so each call compiles its plan and allocates its workspace;
* **warm** — the plan is compiled and the workspace pooled once, and every
  call replays the cached plan.

The reported speedup is the per-call amortisation factor a serving system
gains on repeated same-shape traffic; ``benchmarks/test_engine_plan_cache.py``
asserts it stays ≥ 1.5× at small shapes.

``engine_dag_parallel`` measures plan-level parallelism: the compiler's
step dependency DAG lets :class:`~repro.engine.dag.DagExecutor` run
independent steps concurrently on one large call, where the sequential
replay uses a single core however many are idle.  Results stay
bit-identical (conflicting steps retire in plan order), so the experiment
reports *measured wall-clock* ratios per worker count together with the
DAG shape (steps, edges, critical path, width).  Genuine speedup needs
real cores — on a single-core host the ratio degrades to ≈ 0.7–1.0×, which
the table records honestly; ``benchmarks/test_engine_dag.py`` enforces the
≥ 1.3× bar on hosts with ≥ 4 cores.

``engine_base_case`` sweeps ``base_case_elements`` over the benchmark's
``gram_dense`` shapes at default dispatch: the measurement behind the
2**20-element default (see :data:`repro.config.DEFAULT_BASE_CASE_ELEMENTS`).

``engine_backends`` times every candidate backend per shape at the
default base case and reports whether the modeled heuristic that
``algo="auto"`` dispatches through picks the measured winner.
"""

from __future__ import annotations

import os
import time
from typing import List, Optional, Sequence, Tuple

from ..config import configured
from ..engine import ExecutionEngine
from ..engine.backends import backends_for, candidates, choose_heuristic
from ..cache.model import default_cache_model
from .harness import register
from .reporting import ExperimentTable
from .workloads import random_matrix

__all__ = ["engine_plan_cache", "engine_dag_parallel", "engine_base_case",
           "engine_backends"]


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@register("engine_plan_cache",
          "Cold-plan vs warm-plan AtA throughput through the execution engine",
          "Engine architecture (DESIGN.md)")
def engine_plan_cache(sizes: Optional[Sequence[int]] = None,
                      repeats: int = 10,
                      base_case_elements: int = 256) -> List[ExperimentTable]:
    """Measure the plan-cache / workspace-pool amortisation factor.

    Parameters
    ----------
    sizes:
        Square problem sizes to sweep (defaults chosen so the recursion is
        several levels deep at the given base case).
    repeats:
        Timing repeats per configuration; the fastest run is kept.
    base_case_elements:
        Base-case threshold used for the sweep (smaller values deepen the
        recursion and grow the compiled plans).
    """
    table = ExperimentTable(
        "engine_plan_cache",
        "cold (compile per call) vs warm (cached plan, pooled workspace) seconds",
        ["n", "cold_seconds", "warm_seconds", "warm_speedup",
         "plan_steps", "workspace_elements"])
    sizes = sizes if sizes is not None else [96, 128, 192]
    with configured(base_case_elements=base_case_elements):
        for n in sizes:
            a = random_matrix(n, n, seed=n)
            engine = ExecutionEngine()

            def cold_call() -> None:
                engine.clear()
                engine.matmul_ata(a)

            cold = _best_of(cold_call, repeats)
            engine.matmul_ata(a)  # prime the plan cache and the pool
            warm = _best_of(lambda: engine.matmul_ata(a), repeats)

            plan = engine.plans.snapshot()[0]
            ws_elements = (plan.requirement.total_elements
                           if plan.requirement is not None else 0)
            table.add_row(n, cold, warm, cold / warm if warm else float("inf"),
                          plan.n_steps, ws_elements)
    table.add_note("warm calls replay the cached plan against a pooled "
                   "workspace; the speedup is the amortisation a serving "
                   "system gains on repeated same-shape traffic")
    return [table]


@register("engine_dag_parallel",
          "Sequential vs DAG-scheduled execution of one large AtA plan "
          "across worker counts",
          "Engine architecture (DESIGN.md)")
def engine_dag_parallel(sizes: Optional[Sequence[int]] = None,
                        workers: Sequence[int] = (1, 2, 4),
                        repeats: int = 5,
                        base_case_elements: int = 65536) -> List[ExperimentTable]:
    """Measure DAG-parallel execution of a single large AtA call.

    Parameters
    ----------
    sizes:
        Square problem sizes to sweep.  The default pairs with the default
        ``base_case_elements`` to give a few hundred chunky base-case
        kernels — large enough that numpy releases the GIL inside each
        ``syrk``/``gemm``, which is what worker threads overlap.
    workers:
        Worker counts to schedule the same plan with (``1`` measures pure
        scheduling overhead).
    repeats:
        Timing repeats per configuration; the fastest run is kept.
    base_case_elements:
        Base-case threshold; larger values mean fewer, chunkier steps.
    """
    table = ExperimentTable(
        "engine_dag_parallel",
        "sequential replay vs DAG-scheduled execution of one cached AtA plan",
        ["n", "workers", "seq_seconds", "dag_seconds", "dag_speedup",
         "plan_steps", "dag_edges", "critical_path", "max_width"])
    sizes = sizes if sizes is not None else [768, 1024]
    with configured(base_case_elements=base_case_elements):
        for n in sizes:
            a = random_matrix(n, n, seed=n)
            sequential = ExecutionEngine()
            sequential.matmul_ata(a)  # prime plan cache + pool
            seq_seconds = _best_of(lambda: sequential.matmul_ata(a), repeats)
            for count in workers:
                engine = ExecutionEngine(workers=count, parallel="dag")
                try:
                    engine.matmul_ata(a)  # prime (compile with DAG + lanes)
                    dag_seconds = _best_of(lambda: engine.matmul_ata(a), repeats)
                    plan = engine.plans.snapshot()[0]
                finally:
                    engine.close()
                table.add_row(n, count, seq_seconds, dag_seconds,
                              seq_seconds / dag_seconds if dag_seconds else float("inf"),
                              plan.n_steps, plan.dag.n_edges,
                              plan.dag.critical_path, plan.dag.max_width)
    table.add_note(f"host cores: {os.cpu_count()}; DAG results are "
                   "bit-identical to the sequential replay (conflicting "
                   "steps retire in plan order), so the speedup column is "
                   "a pure scheduling effect; expect <= 1x without real "
                   "cores to overlap the GIL-releasing kernels")
    return [table]


#: the benchmark's ``gram_dense`` shapes: ``(m, n)`` AtA, ``(m, n, k)`` AtB
GRAM_DENSE_SHAPES = ((1024, 1024), (4096, 256), (512, 512), (1024, 512, 512))


@register("engine_base_case",
          "Default-path throughput of the gram_dense shapes across base cases",
          "Section 3.4 base case (DESIGN.md, \"Leaf kernels and the base case\")")
def engine_base_case(base_cases: Sequence[int] = (1 << 12, 1 << 16, 1 << 18,
                                                  1 << 19, 1 << 20, 1 << 21),
                     repeats: int = 3) -> List[ExperimentTable]:
    """Sweep ``base_case_elements`` over the ``gram_dense`` shapes.

    Each base case gets a fresh engine, one untimed pass that compiles
    the plans, then ``repeats`` timed passes over every shape through
    default dispatch; the best pass is reported as useful GFLOP/s
    (``m·n·(n+1)`` per AtA, ``2·m·n·k`` per AtB).  The default base case
    is the smallest value at which this curve stops rising.
    """
    table = ExperimentTable(
        "engine_base_case",
        "warm-pass seconds and useful GFLOP/s of the gram_dense shape set",
        ["base_case_elements", "pass_seconds", "gflops", "ata_1024_steps"])
    operands = [tuple(random_matrix(shape[0], d, seed=i + d)
                      for d in shape[1:])
                for i, shape in enumerate(GRAM_DENSE_SHAPES)]
    flops = sum(m * n * (n + 1) if len(rest) == 0 else 2 * m * n * rest[0]
                for m, n, *rest in GRAM_DENSE_SHAPES)

    def one_pass(engine) -> None:
        for ops in operands:
            if len(ops) == 1:
                engine.matmul_ata(ops[0])
            else:
                engine.matmul_atb(*ops)

    for base in base_cases:
        with configured(base_case_elements=base):
            engine = ExecutionEngine()
            one_pass(engine)
            best = _best_of(lambda: one_pass(engine), repeats)
        steps = sum(plan.n_steps for plan in engine.plans.snapshot()
                    if plan.shape == (1024, 1024))
        table.add_row(base, best, flops / best / 1e9, steps)
    table.add_note("BLAS thread count is inherited from the environment; "
                   "pin OPENBLAS_NUM_THREADS=1 to reproduce EXPERIMENTS.md")
    return [table]


def _verdict_row(op: str, shape: Tuple[int, ...], dtype, run,
                 names: Sequence[str], repeats: int) -> list:
    """Time every candidate backend of one request (warm plans, best of
    ``repeats``) and set the measured winner beside the heuristic's pick:
    ``[*seconds per name (None = unsupported), winner, heuristic,
    heuristic_vs_winner, agrees]``."""
    model = default_cache_model(dtype)
    pool = candidates(op, shape, dtype, model)
    measured = {}
    for backend in pool:
        run(backend.name)  # warm the plan and workspace
        measured[backend.name] = _best_of(lambda: run(backend.name), repeats)
    winner = min(measured, key=measured.get)
    pick = choose_heuristic(op, shape, dtype, model, pool).name
    return [*(measured.get(name) for name in names), winner, pick,
            measured[pick] / measured[winner], pick == winner]


@register("engine_backends",
          "Measured per-backend AtA and A^T B timings beside the backend "
          "the modeled heuristic picks, per shape",
          "Engine architecture (DESIGN.md)")
def engine_backends(sizes: Optional[Sequence[int]] = None,
                    atb_shapes: Optional[Sequence[Tuple[int, int, int]]] = None,
                    repeats: int = 3) -> List[ExperimentTable]:
    """Time every candidate backend and check the heuristic's choice.

    ``algo="auto"`` dispatches through
    :func:`~repro.engine.backends.choose_heuristic`, which prices
    backends with modeled costs, not timings.  This experiment is the measurement that keeps that model
    honest: for each square AtA size and each ``(m, n, k)`` A^T B shape
    it times every backend in the candidate set on warm plans at the
    default base case, and reports the measured winner beside the
    heuristic's pick.  ``heuristic_vs_winner`` is the slowdown the
    heuristic's pick costs against the measured winner (1.0 where they
    agree).  The default sizes sit on both sides of the heuristic's
    ``syrk`` → ``ata`` flip (``n² > 2**20``).

    Parameters
    ----------
    sizes:
        Square AtA problem sizes to sweep.
    atb_shapes:
        ``(m, n, k)`` A^T B shapes to sweep.
    repeats:
        Timing repeats per backend; the fastest run is kept.
    """
    sizes = sizes if sizes is not None else [512, 1024, 2048]
    atb_shapes = (list(atb_shapes) if atb_shapes is not None
                  else [(1024, 512, 512), (2048, 1024, 1024),
                        (2048, 2048, 2048)])
    verdict = ["winner", "heuristic", "heuristic_vs_winner", "agrees"]
    ata_names = [b.name for b in backends_for("ata") if "dense" in b.operands]
    atb_names = [b.name for b in backends_for("atb") if "dense" in b.operands]
    table = ExperimentTable(
        "engine_backends",
        "best-of seconds per AtA backend (- = unsupported on this host), "
        "the measured winner and the heuristic's pick",
        ["n", *ata_names, *verdict])
    atb_table = ExperimentTable(
        "engine_backends_atb",
        "best-of seconds per A^T B backend, the measured winner and the "
        "heuristic's pick",
        ["m", "n", "k", *atb_names, *verdict])
    for n in sizes:
        a = random_matrix(n, n, seed=n)
        engine = ExecutionEngine()
        table.add_row(n, *_verdict_row(
            "ata", (n, n), a.dtype,
            lambda name: engine.matmul_ata(a, algo=name), ata_names, repeats))
    for m, n, k in atb_shapes:
        a = random_matrix(m, n, seed=m + n)
        b = random_matrix(m, k, seed=m + k + 1)
        engine = ExecutionEngine()
        atb_table.add_row(m, n, k, *_verdict_row(
            "atb", (m, n, k), a.dtype,
            lambda name: engine.matmul_atb(a, b, algo=name), atb_names,
            repeats))
    table.add_note("BLAS thread count is inherited from the environment; "
                   "pin OPENBLAS_NUM_THREADS=1 to reproduce EXPERIMENTS.md")
    return [table, atb_table]
