"""Out-of-core experiment: Gram matrices for inputs that exceed memory.

``engine_ooc`` stages a disk-backed matrix (``np.memmap``) whose bytes
exceed a sweep of memory budgets and computes ``A^T A`` through
:class:`~repro.engine.ooc.ShardedAtA`, reporting what the out-of-core
subsystem exists to deliver: the run *completes* under every feasible
budget, the resident working set (``C`` + staged panels) stays within the
budget, the panel plans amortise through the engine's plan cache, and the
result is bit-identical to the in-memory engine accumulating the same
fixed panel schedule.  Wall-clock overhead versus the fully in-memory call
is reported for context — on the single-core container the streaming copy
cost is visible and recorded honestly; it is never gated.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import List, Optional, Sequence

import numpy as np

from ..config import configured
from ..engine import ExecutionEngine, ShardedAtA, split_rows
from .harness import register
from .reporting import ExperimentTable
from .workloads import random_matrix

__all__ = ["engine_ooc"]


@register("engine_ooc",
          "Out-of-core panel-sharded AtA on a memmap exceeding a sweep of "
          "memory budgets: panels, resident high-water, plan reuse and "
          "overhead vs the in-memory engine",
          "Engine architecture (DESIGN.md)")
def engine_ooc(shape=(8192, 96),
               budgets_kb: Optional[Sequence[int]] = None,
               repeats: int = 3,
               base_case_elements: int = 4096) -> List[ExperimentTable]:
    """Measure the out-of-core executor on a disk-backed workload.

    Parameters
    ----------
    shape:
        ``(m, n)`` of the memmap-backed input (the default is ~6 MB of
        float64 — far above the budget sweep, so every budgeted run
        streams many panels).
    budgets_kb:
        Memory budgets to sweep, in KiB; ``0`` means unbounded (the whole
        input becomes one panel — the in-memory fast path).
    repeats:
        Timing repeats per budget; the fastest run is kept.
    base_case_elements:
        Base-case threshold for the sweep.
    """
    m, n = shape
    budgets_kb = list(budgets_kb) if budgets_kb is not None else [128, 256, 1024, 0]
    table = ExperimentTable(
        "engine_ooc",
        "per memory budget: panel schedule, resident high-water, plan-cache "
        "reuse across panels, seconds vs the fully in-memory engine",
        ["budget_kb", "panels", "panel_rows", "resident_kb", "input_mb",
         "ooc_seconds", "in_memory_seconds", "vs_in_memory", "plan_hit_rate",
         "identical"])

    with configured(base_case_elements=base_case_elements), \
            tempfile.TemporaryDirectory() as tmpdir:
        path = os.path.join(tmpdir, "ooc_input.dat")
        filler = random_matrix(m, n, seed=m + n)
        mm = np.memmap(path, dtype=np.float64, mode="w+", shape=(m, n))
        mm[:] = filler
        mm.flush()
        input_mb = round(mm.nbytes / 2 ** 20, 2)

        in_memory = ExecutionEngine()
        in_memory.matmul_ata(filler)  # warm plan + pool
        best_mem = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            in_memory.matmul_ata(filler)
            best_mem = min(best_mem, time.perf_counter() - start)

        for budget_kb in budgets_kb:
            engine = ExecutionEngine()
            sharded = ShardedAtA(engine)
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                result, run_stats = sharded.run(mm, budget=budget_kb * 1024)
                best = min(best, time.perf_counter() - start)
            # the determinism contract: bit-identical to the in-memory
            # engine replaying the same fixed panel schedule
            reference_engine = ExecutionEngine()
            reference = np.zeros((n, n), dtype=np.float64)
            for lo, hi in split_rows(m, run_stats.panel_rows):
                reference_engine.matmul_ata(filler[lo:hi], reference)
            estats = engine.stats()
            table.add_row(
                budget_kb, run_stats.panels, run_stats.panel_rows,
                round(run_stats.bytes_resident_high / 1024, 1), input_mb,
                best, best_mem,
                round(best / best_mem, 2) if best_mem else float("inf"),
                round(estats.plan_hit_rate, 3),
                bool(np.array_equal(result, reference)))
    table.add_note("equal-height panels resolve to one cached plan, so a "
                   "budgeted stream pays one compile however many panels it "
                   "takes (the ragged last panel adds at most one more)")
    table.add_note("vs_in_memory includes the panel staging copies, "
                   "which run synchronously between panel kernels")
    table.add_note("vs_in_memory < 1 is real, not noise: budgeted panels "
                   "fall under the cache-fit threshold and dispatch to one "
                   "syrk kernel each, while the whole-matrix call takes the "
                   "Algorithm 1 recursion — the paper's choose-by-machine "
                   "lesson resurfacing at the sharding layer")
    return [table]
