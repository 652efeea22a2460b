"""Compute the Gram matrix of a disk-backed matrix under a memory budget.

Demonstrates the out-of-core subsystem: a matrix that must not be held in
RAM at once (here an ``np.memmap`` standing in for a multi-GB file) is
streamed through the execution engine as budget-sized row panels, with
the partial Gram updates ``C += A_p^T A_p`` accumulated in a fixed,
deterministic panel order.  The resident working set — the output ``C``
plus the staged panel(s) — never exceeds ``Config.memory_budget``, and
every panel reuses the engine's cached plan and pooled workspace.

Run with ``python examples/out_of_core_gram.py``.
"""

import os
import tempfile

import numpy as np

import repro
from repro.engine import ExecutionEngine, ShardedAtA, split_rows

M, N = 20_000, 64           # ~9.8 MB of float64 on disk
BUDGET = 256 * 1024         # 256 KiB working-set budget (~2.6% of the input)


def main() -> None:
    rng = np.random.default_rng(13)
    with tempfile.TemporaryDirectory() as tmpdir:
        path = os.path.join(tmpdir, "observations.dat")

        # Stage the "too big for RAM" input on disk, writing in slabs the
        # way a real ingest would (nothing below ever loads it whole).
        mm = np.memmap(path, dtype=np.float64, mode="w+", shape=(M, N))
        for lo in range(0, M, 4096):
            hi = min(lo + 4096, M)
            mm[lo:hi] = rng.standard_normal((hi - lo, N))
        mm.flush()

        engine = ExecutionEngine()
        gram, stats = ShardedAtA(engine).run(mm, budget=BUDGET)

        input_mb = mm.nbytes / 2**20
        print(f"[ooc] input: {M}x{N} float64 on disk ({input_mb:.1f} MB), "
              f"budget {BUDGET // 1024} KiB")
        print(f"[ooc] schedule: {stats.panels} panels of "
              f"{stats.panel_rows} rows")
        print("[ooc] resident high-water: "
              f"{stats.bytes_resident_high / 1024:.1f} KiB "
              f"<= budget: {stats.bytes_resident_high <= BUDGET}")
        estats = engine.stats()
        print("[ooc] engine plan hit rate across panels: "
              f"{estats.plan_hit_rate:.3f} "
              f"({estats.plan_misses} compiles for {stats.panels} panels)")

        # The determinism contract: bit-identical to the in-memory engine
        # accumulating the same fixed panel schedule.
        reference_engine = ExecutionEngine()
        reference = np.zeros((N, N))
        for lo, hi in split_rows(M, stats.panel_rows):
            reference_engine.matmul_ata(np.asarray(mm[lo:hi]), reference)
        print("[ooc] bit-identical to the in-memory panel schedule: "
              f"{np.array_equal(gram, reference)}")

        # And numerically it is the Gram matrix (lower triangle).
        dense = np.asarray(mm)
        max_err = float(np.max(np.abs(np.tril(gram) - np.tril(dense.T @ dense))))
        print(f"[ooc] max |C - A^T A| over the lower triangle: {max_err:.3e}")

        # Convenience form: one call on the default engine, budget from
        # Config.memory_budget / REPRO_MEMORY_BUDGET.
        with repro.configured(memory_budget=BUDGET):
            again = repro.matmul_ata_ooc(mm)
        print("[ooc] repro.matmul_ata_ooc under Config.memory_budget "
              f"matches: {np.array_equal(again, gram)}")


if __name__ == "__main__":
    main()
