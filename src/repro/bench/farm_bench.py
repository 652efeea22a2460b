"""Multi-process farm experiment: fan the panel schedule out to workers.

``engine_farm`` computes the Gram of one fixed workload, held once as an
in-memory array and once as an on-disk memmap, through the in-process
out-of-core executor and through :class:`~repro.engine.farm.PanelFarm`
at a sweep of worker counts, reporting what the farm exists to deliver:
the result is bit-identical to the in-process executor at every worker
count and for both sources (the fixed ascending reduction tree), the
farm's resident set stays within what its budget formula charges, the
parent stages the array's panels while the workers read the memmap's
from the file (``staged_kb``), and the farm's cost is measured against
the in-process baseline on the same source twice per worker count: a
cold first run (fork + fresh arenas) and a warm steady run on the pool
the previous run parked.  Wall-clock is reported, never gated; the
experiment pins the *correctness* and *accounting* contracts.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import List, Optional, Sequence

import numpy as np

from ..config import configured
from ..engine import ExecutionEngine, PanelFarm, ShardedAtA, available_cpus
from ..engine.farm import stop_idle_pool
from .harness import register
from .reporting import ExperimentTable
from .workloads import random_matrix

__all__ = ["engine_farm"]


def _best_of(repeats: int, run) -> float:
    """The fastest of ``repeats`` calls of ``run``, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


@register("engine_farm",
          "Multi-process shared-memory panel farm over an in-memory array "
          "and an on-disk memmap at a sweep of worker counts: bit-identity "
          "to the in-process executor, resident accounting, parent-staged "
          "bytes, and cold/warm pool cost vs in-process streaming",
          "Engine architecture (DESIGN.md)")
def engine_farm(shape=(4096, 64),
                procs_sweep: Optional[Sequence[int]] = None,
                panel_rows: int = 512,
                repeats: int = 3,
                base_case_elements: int = 4096) -> List[ExperimentTable]:
    """Measure the multi-process panel farm against in-process streaming.

    Parameters
    ----------
    shape:
        ``(m, n)`` of the workload (~2 MB of float64 by default: large
        enough for a many-panel schedule, small enough that per-run
        process forking dominates nothing else).
    procs_sweep:
        Worker counts to sweep (``None``: 1, 2, 4).
    panel_rows:
        Pinned panel height — the schedule must be identical across the
        sweep for the bit-identity column to be meaningful.
    repeats:
        Warm timing repeats per worker count; the fastest run is kept.
    base_case_elements:
        Base-case threshold for the sweep.
    """
    m, n = shape
    procs_sweep = list(procs_sweep) if procs_sweep is not None else [1, 2, 4]
    table = ExperimentTable(
        "engine_farm",
        "per source and worker count: schedule, resident high-water vs "
        "the farm's budget formula, bytes the parent staged, cold and "
        "warm seconds vs the in-process executor, bit-identity",
        ["source", "procs", "panels", "panel_rows", "resident_kb",
         "staged_kb", "cold_seconds", "warm_seconds", "in_process_seconds",
         "warm_vs_in_process", "identical"])

    with configured(base_case_elements=base_case_elements), \
            tempfile.TemporaryDirectory() as workdir:
        a = random_matrix(m, n, seed=m + n)
        path = os.path.join(workdir, "a.npy")
        np.save(path, a)
        sources = {"array": a, "memmap": np.load(path, mmap_mode="r")}

        sharded = ShardedAtA(ExecutionEngine())
        # syrk is a single-kernel backend, so the distributive envelope
        # holds and the farm is bit-identical to in-process streaming —
        # the whole point of the `identical` column.
        reference, _ = sharded.run(a, algo="syrk",  # warm plan + pool
                                   panel_rows=panel_rows)

        for name, source in sources.items():
            stop_idle_pool()  # parked workers would share the cores
            in_process = _best_of(repeats, lambda: sharded.run(
                source, algo="syrk", panel_rows=panel_rows))
            for procs in procs_sweep:
                farm = PanelFarm(ExecutionEngine(), procs=procs)
                stop_idle_pool()  # the first run spawns its pool
                start = time.perf_counter()
                cold, _ = farm.run(source, algo="syrk", panel_rows=panel_rows)
                cold_seconds = time.perf_counter() - start
                runs = []
                best = _best_of(repeats, lambda: runs.append(farm.run(
                    source, algo="syrk", panel_rows=panel_rows)))
                result, run_stats = runs[-1]
                table.add_row(
                    name, run_stats.procs, run_stats.panels,
                    run_stats.panel_rows,
                    round(run_stats.bytes_resident_high / 1024, 1),
                    round(run_stats.staged_bytes / 1024, 1),
                    cold_seconds, best, in_process,
                    round(best / in_process, 2) if in_process
                    else float("inf"),
                    bool(np.array_equal(cold, reference)
                         and np.array_equal(result, reference)))
        stop_idle_pool()

    table.add_note("identical must be True at every worker count and for "
                   "both sources: partial Grams fold into C in ascending "
                   "panel order (a fixed reduction tree), so neither the "
                   "pool size nor the data path can change the bits on a "
                   "pinned schedule")
    table.add_note("staged_kb is what the parent copied into worker arenas: "
                   "the whole array for the in-memory source, 0 for the "
                   "memmap, whose panels each worker reads from the file "
                   "itself")
    table.add_note(f"this host grants the process {available_cpus()} "
                   "CPU(s) (affinity-aware); on one CPU the farm pays "
                   "its messaging for no parallel compute, so "
                   "warm_vs_in_process records overhead there, speedup only "
                   "on multi-core hosts — it is reported, never gated")
    table.add_note("cold_seconds is the first run at a worker count (fork "
                   "+ fresh arenas); warm_seconds is the best later run, "
                   "which reuses the parked worker pool and its arenas; "
                   "in_process_seconds is the best in-process stream of "
                   "the same source")
    return [table]
