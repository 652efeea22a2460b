"""Engine experiments: plan-cache amortisation, DAG-parallel execution,
the default base case and measured backend auto-tuning.

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
"""

from __future__ import annotations

import os
import time
from typing import List, Optional, Sequence, Tuple

from ..config import configured
from ..engine import BackendTuner, ExecutionEngine
from ..engine.backends import candidates
from ..cache.model import default_cache_model
from .harness import register
from .reporting import ExperimentTable
from .workloads import random_matrix

__all__ = ["engine_plan_cache", "engine_dag_parallel", "engine_base_case",
           "engine_backend_tuner"]


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
            sequential = ExecutionEngine(parallel="off")
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


@register("engine_backend_tuner",
          "Measured per-backend AtA and A^T B timings and the backend the "
          "auto-tuner converges on, per shape",
          "Engine architecture (DESIGN.md)")
def engine_backend_tuner(sizes: Optional[Sequence[int]] = None,
                         atb_shapes: Optional[Sequence[Tuple[int, int, int]]] = None,
                         repeats: int = 5,
                         base_case_elements: int = 256) -> List[ExperimentTable]:
    """Measure every registered backend and show the tuner's verdict.

    For each AtA size, every backend in the candidate set (``syrk``,
    ``ata``, ``tiled``, ``recursive_gemm``, and ``blas_direct`` where a
    provider could be bound) is timed on warm plans; the same timings are
    fed into an in-memory :class:`~repro.engine.BackendTuner`, whose
    exploit choice is the backend ``algo="auto"`` traffic converges on.
    A second table does the same for the ``atb`` operation per
    ``(m, n, k)`` shape (``strassen``, ``recursive_gemm``,
    ``blas_direct``) — previously the tuner's ``atb`` buckets were never
    exercised by the bench at all (ROADMAP leftover from PR 3).  The
    point of the experiment is the paper's own lesson applied to serving:
    which backend wins depends on the shape *and the machine*, so the
    engine measures instead of modeling.

    Parameters
    ----------
    sizes:
        Square AtA problem sizes to sweep.
    atb_shapes:
        ``(m, n, k)`` A^T B shapes to sweep.
    repeats:
        Timing repeats per backend; the fastest run is kept (and recorded
        into the tuner table).
    base_case_elements:
        Base-case threshold for the sweep.
    """
    table = ExperimentTable(
        "engine_backend_tuner",
        "best measured AtA seconds per backend; 'winner' is the "
        "measured-fastest backend at that size (the tuner's exploit "
        "choice when the size has its own shape bucket)",
        ["n", "backend", "best_seconds", "vs_winner", "winner"])
    atb_table = ExperimentTable(
        "engine_backend_tuner_atb",
        "best measured A^T B seconds per backend; 'winner' is the "
        "measured-fastest backend at that (m, n, k) shape",
        ["m", "n", "k", "backend", "best_seconds", "vs_winner", "winner"])
    sizes = sizes if sizes is not None else [96, 192, 384]
    atb_shapes = (list(atb_shapes) if atb_shapes is not None
                  else [(96, 96, 48), (192, 192, 96), (384, 192, 192)])
    bucket_picks: List[str] = []
    atb_bucket_picks: List[str] = []
    with configured(base_case_elements=base_case_elements):
        tuner = BackendTuner(persist=False)
        for n in sizes:
            a = random_matrix(n, n, seed=n)
            model = default_cache_model(a.dtype)
            pool = candidates("ata", (n, n), a.dtype, model)
            engine = ExecutionEngine()
            measured = {}
            for backend in pool:
                engine.matmul_ata(a, algo=backend.name)  # warm the plan
                best = _best_of(
                    lambda: engine.matmul_ata(a, algo=backend.name), repeats)
                measured[backend.name] = best
                tuner.record("ata", (n, n), a.dtype, backend.name, best)
            # the per-size winner comes from this size's own measurements:
            # tuner.best() answers per power-of-two *bucket*, which custom
            # size lists may share across rows
            winner = min(measured, key=measured.get)
            bucket_picks.append(
                f"n={n}->{tuner.best('ata', (n, n), a.dtype)}")
            for name, best in sorted(measured.items(), key=lambda kv: kv[1]):
                table.add_row(n, name, best, best / measured[winner], winner)
        for m, n, k in atb_shapes:
            a = random_matrix(m, n, seed=m + n)
            b = random_matrix(m, k, seed=m + k + 1)
            model = default_cache_model(a.dtype)
            pool = candidates("atb", (m, n, k), a.dtype, model)
            engine = ExecutionEngine()
            measured = {}
            for backend in pool:
                engine.matmul_atb(a, b, algo=backend.name)  # warm the plan
                best = _best_of(
                    lambda: engine.matmul_atb(a, b, algo=backend.name),
                    repeats)
                measured[backend.name] = best
                tuner.record("atb", (m, n, k), a.dtype, backend.name, best)
            winner = min(measured, key=measured.get)
            atb_bucket_picks.append(
                f"({m},{n},{k})->{tuner.best('atb', (m, n, k), a.dtype)}")
            for name, best in sorted(measured.items(), key=lambda kv: kv[1]):
                atb_table.add_row(m, n, k, name, best,
                                  best / measured[winner], winner)
    table.add_note("timings feed the same per-(shape-bucket, dtype) table "
                   "algo='auto' consults when a tuner is attached "
                   "(ExecutionEngine(tuner='measured')); the table persists "
                   "across runs at ~/.cache/repro/tuner.json "
                   "($REPRO_TUNER_PATH) with config-fingerprint invalidation")
    table.add_note("tuner exploit picks per power-of-two bucket (sizes "
                   "sharing a bucket share samples): "
                   + "; ".join(bucket_picks))
    atb_table.add_note("atb buckets key on all three dimensions (m, n, k), "
                       "rounded up to powers of two; tuner exploit picks: "
                       + "; ".join(atb_bucket_picks))
    return [table, atb_table]
