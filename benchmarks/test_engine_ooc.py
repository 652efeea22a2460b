"""Benchmark: out-of-core panel-sharded AtA under a memory budget.

Acceptance criteria of ISSUE 5: a memmap-backed input whose bytes exceed
its ``budget=`` completes with the resident working set inside
the budget, bit-identically to the in-memory engine replaying the same
fixed panel schedule.  Those effects are structural, so they are asserted
unconditionally; the ``benchmark``-fixture microbenchmarks at the bottom
carry the ``engine_ooc`` group into the CI regression-compare JSON
(``scripts/compare_bench.py --group engine_ooc`` selects them).
"""

import numpy as np
import pytest

from repro.bench.harness import run_experiment
from repro.bench.workloads import random_matrix
from repro.engine import ExecutionEngine, ShardedAtA, split_rows

pytestmark = pytest.mark.timeout(300)


def _reference(data: np.ndarray, panel_rows: int) -> np.ndarray:
    engine = ExecutionEngine()
    n = data.shape[1]
    c = np.zeros((n, n), dtype=data.dtype)
    for lo, hi in split_rows(data.shape[0], panel_rows):
        engine.matmul_ata(data[lo:hi], c)
    return c


@pytest.fixture(scope="module")
def memmap_workload(tmp_path_factory):
    m, n = 4096, 64
    data = random_matrix(m, n, seed=17)
    path = tmp_path_factory.mktemp("ooc") / "input.dat"
    mm = np.memmap(path, dtype=np.float64, mode="w+", shape=(m, n))
    mm[:] = data
    mm.flush()
    return mm, data


class TestOutOfCoreAcceptance:
    def test_memmap_beyond_budget_completes_within_budget(self, memmap_workload):
        mm, data = memmap_workload
        budget = 256 * 1024
        assert mm.nbytes > budget  # the input genuinely exceeds the budget
        engine = ExecutionEngine()
        result, stats = engine.run_ooc(mm, budget=budget)
        assert stats.panels > 1
        assert stats.bytes_resident_high <= budget
        assert np.array_equal(result, _reference(data, stats.panel_rows))
        estats = engine.stats()
        assert estats.ooc_bytes_resident_high <= budget
        assert estats.ooc_budget_bytes == budget

    def test_streaming_overhead_bounded(self, memmap_workload):
        """Staging panels from disk must cost overhead, not multiples: the
        budgeted stream stays within 5x of the warm in-memory call (on the
        container it is actually *faster* — small panels dispatch to the
        syrk kernel — so the bound only guards catastrophic regressions)."""
        import time

        mm, data = memmap_workload
        in_memory = ExecutionEngine()
        in_memory.matmul_ata(data)  # warm
        start = time.perf_counter()
        in_memory.matmul_ata(data)
        direct = time.perf_counter() - start

        sharded = ShardedAtA(ExecutionEngine())
        sharded.run(mm, budget=256 * 1024)  # warm the panel plan
        start = time.perf_counter()
        sharded.run(mm, budget=256 * 1024)
        streamed = time.perf_counter() - start
        assert streamed < 5.0 * direct + 0.05, (
            f"out-of-core streaming too slow: streamed={streamed * 1e3:.1f}ms "
            f"in-memory={direct * 1e3:.1f}ms")


class TestRegisteredExperiment:
    def test_engine_ooc_experiment_runs(self):
        (table,) = run_experiment("engine_ooc", shape=(2048, 64),
                                  budgets_kb=[96, 0], repeats=2)
        records = table.as_records()
        assert len(records) == 2
        budgeted, unbounded = records
        assert budgeted["panels"] > 1
        assert budgeted["resident_kb"] <= 96
        assert unbounded["panels"] == 1
        for record in records:
            assert record["identical"] is True
            assert record["plan_hit_rate"] >= 0.0


@pytest.mark.benchmark(group="engine_ooc")
class TestRegressionTrackingMicrobenchmarks:
    """``benchmark``-fixture timings exported to JSON for the CI compare
    step — the out-of-core group of the widened compared set."""

    def test_bench_ooc_budgeted_stream_warm(self, benchmark, memmap_workload):
        mm, _ = memmap_workload
        sharded = ShardedAtA(ExecutionEngine())
        # compile the panel plan, warm the pool
        sharded.run(mm, budget=256 * 1024)
        benchmark.pedantic(lambda: sharded.run(mm, budget=256 * 1024),
                           rounds=5, iterations=1, warmup_rounds=1)

    def test_bench_ooc_single_panel_warm(self, benchmark, memmap_workload):
        _, data = memmap_workload
        engine = ExecutionEngine()
        engine.matmul_ata_ooc(data)  # unbounded: one panel, one plan
        benchmark.pedantic(lambda: engine.matmul_ata_ooc(data),
                           rounds=5, iterations=1, warmup_rounds=1)
