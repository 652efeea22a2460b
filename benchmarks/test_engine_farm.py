"""Benchmark: multi-process shared-memory panel farm.

Acceptance criteria of the farm issue: the Gram fanned out to worker
processes over shared-memory arenas is bit-identical to the in-process
out-of-core executor at every worker count (the fixed ascending
reduction tree), the resident set stays within what the farm's budget
formula charges, and the engine surfaces the farm counters.  Those
effects are structural, so they are asserted unconditionally; the
``benchmark``-fixture microbenchmarks at the bottom carry the
``engine_farm`` group into the CI regression-compare JSON
(``scripts/compare_bench.py --group engine_farm`` selects them).
"""

import numpy as np
import pytest

from repro.bench.harness import run_experiment
from repro.bench.workloads import random_matrix
from repro.engine import ExecutionEngine, PanelFarm, ShardedAtA

pytestmark = pytest.mark.timeout(300)

PANEL_ROWS = 512


@pytest.fixture(scope="module")
def workload():
    return random_matrix(4096, 64, seed=23)


@pytest.fixture(scope="module")
def reference(workload):
    engine = ExecutionEngine()
    sharded = ShardedAtA(engine, panel_rows=PANEL_ROWS, prefetch=False)
    result, _ = sharded.run(workload, algo="syrk")
    return result


class TestFarmAcceptance:
    @pytest.mark.parametrize("procs", [1, 2, 4])
    def test_bit_identical_at_every_worker_count(self, workload, reference,
                                                 procs):
        engine = ExecutionEngine()
        farm = PanelFarm(engine, procs=procs, panel_rows=PANEL_ROWS)
        result, stats = farm.run(workload, algo="syrk")
        assert stats.panels > 1
        assert np.array_equal(result, reference)

    def test_resident_high_water_charged_against_budget(self, workload):
        engine = ExecutionEngine()
        n = workload.shape[1]
        budget = 4 * n * n * 8 + 2 * PANEL_ROWS * n * 8
        result, stats = engine.run_ooc(workload, algo="syrk", budget=budget,
                                       procs=2)
        assert stats.bytes_resident_high <= budget
        estats = engine.stats()
        assert estats.farm_runs == 1
        assert estats.farm_panels == stats.panels
        assert estats.farm_procs == stats.procs
        assert estats.farm_bytes_resident_high == stats.bytes_resident_high


class TestRegisteredExperiment:
    def test_engine_farm_experiment_runs(self):
        (table,) = run_experiment("engine_farm", shape=(2048, 64),
                                  procs_sweep=[1, 2], repeats=1)
        records = table.as_records()
        assert len(records) == 2
        for record in records:
            assert record["identical"] is True
            assert record["panels"] > 1
        # the farm's budget formula charges one more output arena per worker
        assert records[1]["resident_kb"] > records[0]["resident_kb"]


@pytest.mark.benchmark(group="engine_farm")
class TestRegressionTrackingMicrobenchmarks:
    """``benchmark``-fixture timings exported to JSON for the CI compare
    step — the multi-process-farm group of the compared set.  The warmup
    round spawns the pool; each timed round reuses it and its arenas
    (staging + per-run worker engines + fold), the steady cost a user
    pays per repeated ``run_ooc(procs=N)`` call."""

    def test_bench_farm_two_workers(self, benchmark, workload):
        engine = ExecutionEngine()
        farm = PanelFarm(engine, procs=2, panel_rows=PANEL_ROWS)
        benchmark.pedantic(lambda: farm.run(workload, algo="syrk"),
                           rounds=3, iterations=1, warmup_rounds=1)

    def test_bench_farm_single_worker(self, benchmark, workload):
        engine = ExecutionEngine()
        farm = PanelFarm(engine, procs=1, panel_rows=PANEL_ROWS)
        benchmark.pedantic(lambda: farm.run(workload, algo="syrk"),
                           rounds=3, iterations=1, warmup_rounds=1)
