"""Fan a Gram computation out to worker processes over shared memory.

Demonstrates the multi-process panel farm: the same budget-sized row
panels the out-of-core executor streams in-process are staged into
``multiprocessing.shared_memory`` arenas and computed by a pool of
worker processes, each running the full engine stack (plan cache,
workspace pool, backend dispatch) on its own interpreter — sidestepping
the GIL for the Python-level dispatch work.  The parent folds every
worker's partial Gram into ``C`` in ascending panel order (a fixed
reduction tree), so the result is **bit-identical whatever the worker
count** — verified below against the in-process executor.

Run with ``python examples/multiprocess_gram.py``.
"""

import numpy as np

from repro.engine import (
    ExecutionEngine,
    PanelFarm,
    ShardedAtA,
    available_cpus,
)

M, N = 6_000, 64
PANEL_ROWS = 512  # pinned: identical schedule for every executor below


def main() -> None:
    rng = np.random.default_rng(29)
    a = rng.standard_normal((M, N))

    # The in-process reference: one interpreter streaming the panels.
    reference, ref_stats = ShardedAtA(ExecutionEngine()).run(
        a, algo="syrk", panel_rows=PANEL_ROWS)
    print(f"[farm] input: {M}x{N} float64, schedule: {ref_stats.panels} "
          f"panels of {ref_stats.panel_rows} rows")
    print(f"[farm] host grants this process {available_cpus()} CPU(s) "
          "(affinity-aware)")

    all_identical = True
    for procs in (1, 2, 4):
        engine = ExecutionEngine()
        farm = PanelFarm(engine, procs=procs)
        gram, stats = farm.run(a, algo="syrk", panel_rows=PANEL_ROWS)
        identical = np.array_equal(gram, reference)
        all_identical = all_identical and identical
        print(f"[farm] procs={procs}: {stats.panels} panels over "
              f"{stats.procs} worker(s), resident high-water "
              f"{stats.bytes_resident_high / 1024:.0f} KiB, "
              f"bit-identical to in-process: {identical}")

    # The same farm through the engine front-end, budget-capped.
    engine = ExecutionEngine()
    budget = 3 * N * N * 8 + 2 * PANEL_ROWS * N * 8
    gram, stats = engine.run_ooc(a, algo="syrk", budget=budget, procs=2)
    print(f"[farm] run_ooc(procs=2) under a {budget // 1024} KiB budget: "
          f"panels of {stats.panel_rows} rows, within budget: "
          f"{stats.bytes_resident_high <= budget}")
    snap = engine.stats()
    print(f"[farm] engine stats: farm_runs={snap.farm_runs} "
          f"farm_panels={snap.farm_panels} farm_procs={snap.farm_procs}")
    print(f"[farm] all worker counts agree bit for bit: {all_identical}")


if __name__ == "__main__":
    main()
