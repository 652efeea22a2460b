"""Benchmark: sequential plan replay vs DAG-scheduled execution.

Acceptance criterion of ISSUE 2: on a large single AtA call, DAG execution
with ≥ 4 workers must be at least 1.3× faster than the sequential replay
of the same plan.  Overlap is real thread parallelism — numpy releases the
GIL inside the chunky base-case kernels — so the 1.3× assertion only makes
sense with ≥ 4 physical cores and is skipped below that (the CI
``benchmarks`` job runs on multi-core runners with BLAS pinned to one
thread so the comparison isolates plan-level parallelism).  Bit-identity
and bounded scheduling overhead are asserted on every host.

The ``benchmark``-fixture microbenchmarks at the bottom feed the CI
regression tracking: the job exports their timings with
``--benchmark-json`` and ``scripts/compare_bench.py`` fails the run when a
median regresses > 20% against the checked-in ``BENCH_engine.json``
baseline.  Like the rest of this directory, everything is skipped under
``--benchmark-disable`` (the CI fast lane).
"""

import os

import numpy as np
import pytest

from repro.bench.engine_bench import _best_of
from repro.bench.harness import run_experiment
from repro.bench.workloads import random_matrix
from repro.blas.direct import blas_threads
from repro.config import configured
from repro.engine import ExecutionEngine, available_cpus

#: Large single call: ~136 chunky steps at this base case, critical path
#: ~12% of the plan, available parallelism ~8 — enough width for 4 workers.
LARGE_N = 1024
LARGE_BASE_CASE = 131072
CORES = os.cpu_count() or 1


@pytest.fixture(scope="module")
def large_matrix() -> np.ndarray:
    return random_matrix(LARGE_N, LARGE_N, seed=42)


class TestDagSpeedup:
    def test_dag_bit_identical_to_sequential_on_large_call(self, large_matrix):
        with configured(base_case_elements=LARGE_BASE_CASE):
            sequential = ExecutionEngine()
            dag = ExecutionEngine(workers=4, parallel="dag")
            try:
                assert np.array_equal(sequential.matmul_ata(large_matrix),
                                      dag.matmul_ata(large_matrix))
            finally:
                dag.close()

    @pytest.mark.skipif(CORES < 4, reason=f"needs >= 4 cores for real overlap, host has {CORES}")
    def test_dag_at_least_1_3x_faster_with_4_workers(self, large_matrix):
        with configured(base_case_elements=LARGE_BASE_CASE):
            sequential = ExecutionEngine()
            dag = ExecutionEngine(workers=4, parallel="dag")
            try:
                sequential.matmul_ata(large_matrix)  # prime caches
                dag.matmul_ata(large_matrix)
                seq_seconds = _best_of(
                    lambda: sequential.matmul_ata(large_matrix), repeats=5)
                dag_seconds = _best_of(
                    lambda: dag.matmul_ata(large_matrix), repeats=5)
            finally:
                dag.close()
        speedup = seq_seconds / dag_seconds
        assert speedup >= 1.3, (
            f"DAG execution only {speedup:.2f}x sequential on {CORES} cores "
            f"(seq={seq_seconds * 1e3:.1f}ms dag={dag_seconds * 1e3:.1f}ms)")

    def test_dag_overhead_bounded_on_any_host(self, large_matrix):
        """Even without cores to overlap on, scheduling must not blow up:
        the forced-DAG run stays within 4x of the sequential replay."""
        with configured(base_case_elements=LARGE_BASE_CASE):
            sequential = ExecutionEngine()
            dag = ExecutionEngine(workers=4, parallel="dag")
            try:
                sequential.matmul_ata(large_matrix)
                dag.matmul_ata(large_matrix)
                seq_seconds = _best_of(
                    lambda: sequential.matmul_ata(large_matrix), repeats=3)
                dag_seconds = _best_of(
                    lambda: dag.matmul_ata(large_matrix), repeats=3)
            finally:
                dag.close()
        assert dag_seconds <= 4 * seq_seconds

    def test_auto_mode_never_schedules_beyond_host_cores(self, large_matrix):
        """Where the bound BLAS already keeps every core busy (one core,
        or 2 cores under a 2-thread OpenBLAS) "auto" must fall back to
        sequential replay instead of paying contention for nothing."""
        engine = ExecutionEngine(workers=4, parallel="auto")
        with configured(base_case_elements=LARGE_BASE_CASE):
            try:
                engine.matmul_ata(large_matrix)
            finally:
                engine.close()
        stats = engine.stats()
        if available_cpus() // (blas_threads() or 1) <= 1:
            assert stats.dag_runs == 0 and stats.sequential_runs == 1
        else:
            assert stats.dag_runs == 1 and stats.sequential_runs == 0


class TestRegisteredExperiment:
    def test_engine_dag_parallel_experiment_runs(self):
        (table,) = run_experiment("engine_dag_parallel", sizes=[256],
                                  workers=(1, 2), repeats=2,
                                  base_case_elements=8192)
        records = table.as_records()
        assert len(records) == 2
        for record in records:
            assert record["plan_steps"] > 0
            assert record["dag_edges"] > 0
            assert record["dag_speedup"] > 0
            assert record["critical_path"] <= record["plan_steps"]


class TestRegressionTrackingMicrobenchmarks:
    """``benchmark``-fixture timings exported to JSON for the CI compare
    step.  Small shapes: these also run in the tier-1 lane."""

    @pytest.fixture(scope="class")
    def matrix(self) -> np.ndarray:
        return random_matrix(256, 256, seed=9)

    def test_bench_engine_sequential_warm(self, benchmark, matrix):
        with configured(base_case_elements=8192):
            engine = ExecutionEngine()
            engine.matmul_ata(matrix)
            benchmark.pedantic(lambda: engine.matmul_ata(matrix),
                               rounds=10, iterations=1, warmup_rounds=2)

    def test_bench_engine_dag_warm(self, benchmark, matrix):
        with configured(base_case_elements=8192):
            engine = ExecutionEngine(workers=2, parallel="dag")
            try:
                engine.matmul_ata(matrix)
                benchmark.pedantic(lambda: engine.matmul_ata(matrix),
                                   rounds=10, iterations=1, warmup_rounds=2)
            finally:
                engine.close()

    def test_bench_plan_compile_with_dag(self, benchmark, matrix):
        from repro.cache.model import CacheModel
        from repro.engine import compile_plan

        with configured(base_case_elements=8192):
            model = CacheModel(capacity_words=8192)
            benchmark.pedantic(
                lambda: compile_plan("ata", matrix.shape, matrix.dtype, model,
                                     lanes=2, build_dag=True),
                rounds=5, iterations=1, warmup_rounds=1)

    def test_bench_engine_interleaved_batch_warm(self, benchmark):
        """A DAG engine's warm batch, each entry replayed on its own; the
        name predates the per-entry batch path and keys the baseline."""
        matrices = [random_matrix(128, 128, seed=20 + i) for i in range(3)]
        with configured(base_case_elements=4096):
            engine = ExecutionEngine(workers=2, parallel="dag")
            try:
                engine.run_batch(matrices)
                benchmark.pedantic(lambda: engine.run_batch(matrices),
                                   rounds=10, iterations=1, warmup_rounds=2)
            finally:
                engine.close()
