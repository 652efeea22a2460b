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
    result, _ = ShardedAtA(engine).run(workload, algo="syrk",
                                       panel_rows=PANEL_ROWS)
    return result


class TestFarmAcceptance:
    # the in-memory cases keep their historical ids; "memmap" is the
    # on-disk operand the workers read from the file themselves
    @pytest.mark.parametrize("kind, procs", [
        pytest.param(kind, procs, id=f"{procs}" if kind == "array"
                     else f"{kind}-{procs}")
        for kind in ("array", "memmap") for procs in (1, 2, 4)])
    def test_bit_identical_at_every_worker_count(self, workload, reference,
                                                 kind, procs, tmp_path):
        operand = workload
        if kind == "memmap":
            np.save(tmp_path / "a.npy", workload)
            operand = np.load(tmp_path / "a.npy", mmap_mode="r")
        engine = ExecutionEngine()
        farm = PanelFarm(engine, procs=procs)
        result, stats = farm.run(operand, algo="syrk", panel_rows=PANEL_ROWS)
        assert stats.panels > 1
        assert stats.staged_bytes == (0 if kind == "memmap"
                                      else workload.nbytes)
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
        assert [(r["source"], r["procs"]) for r in records] == [
            ("array", 1), ("array", 2), ("memmap", 1), ("memmap", 2)]
        for record in records:
            assert record["identical"] is True
            assert record["panels"] > 1
            # the parent stages the array; workers read the memmap's file
            assert record["staged_kb"] == (
                2048 * 64 * 8 / 1024 if record["source"] == "array" else 0)
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
        farm = PanelFarm(engine, procs=2)
        benchmark.pedantic(lambda: farm.run(workload, algo="syrk",
                                            panel_rows=PANEL_ROWS),
                           rounds=3, iterations=1, warmup_rounds=1)

    def test_bench_farm_single_worker(self, benchmark, workload):
        engine = ExecutionEngine()
        farm = PanelFarm(engine, procs=1)
        benchmark.pedantic(lambda: farm.run(workload, algo="syrk",
                                            panel_rows=PANEL_ROWS),
                           rounds=3, iterations=1, warmup_rounds=1)
