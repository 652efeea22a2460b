"""Benchmark: sparse A^T A vs densify-and-run across the density sweep.

The ``engine_sparse`` experiment times both structured paths over a
density sweep and sets the modeled heuristic's pick beside the measured
winner at each density, and the
``benchmark``-fixture microbenchmarks at the bottom export the
``engine_sparse`` group for CI regression tracking against
``BENCH_engine.json`` (see ``scripts/compare_bench.py``).  One cell per
side of the crossover is tracked: ``sparse_gram`` on a genuinely sparse
operand (where spgemm's nnz²/m work wins) and ``densify`` on a
near-dense one (where BLAS wins) — regressions on either side are
dispatch-layer overhead, not BLAS/scipy noise.

The whole module skips honestly when scipy is absent: there is no
sparse path to measure, and the no-scipy CI lane covers that half of
the contract functionally.
"""

import numpy as np
import pytest

from repro.bench.harness import run_experiment
from repro.engine import HAVE_SCIPY, ExecutionEngine

pytestmark = pytest.mark.skipif(
    not HAVE_SCIPY, reason="sparse benchmarks need scipy")

#: One shape, two densities — one per side of the crossover on any
#: plausible host (0.4 stored ≈ dense work anyway; 0.005 is ~50x fewer
#: flops on the sparse path than the dense gemm).
SHAPE = (1024, 256)
DENSE_SIDE = 0.4
SPARSE_SIDE = 0.005


def _random_csr(dens: float, seed: int):
    import scipy.sparse as sps
    m, n = SHAPE
    rng = np.random.default_rng(seed)
    nnz = max(1, int(round(dens * m * n)))
    return sps.coo_matrix(
        (rng.standard_normal(nnz),
         (rng.integers(0, m, nnz), rng.integers(0, n, nnz))),
        shape=(m, n)).tocsr()


class TestRegisteredExperiment:
    def test_engine_sparse_experiment_runs(self):
        (sweep,) = run_experiment(
            "engine_sparse", densities=[0.4, 0.01], m=256, n=64, repeats=2)
        records = sweep.as_records()
        assert len(records) == 2
        for record in records:
            assert record["winner"] in ("sparse_gram", "densify")
            assert record["heuristic"] in ("sparse_gram", "densify")
            assert record["agrees"] == (record["heuristic"]
                                        == record["winner"])
            assert record["sparse_seconds"] > 0
            assert record["densify_seconds"] > 0


class TestRegressionTrackingMicrobenchmarks:
    """``benchmark``-fixture timings exported to JSON for the CI compare
    step, grouped as ``engine_sparse``."""

    @pytest.mark.benchmark(group="engine_sparse")
    def test_bench_sparse_gram_sparse_side(self, benchmark):
        a = _random_csr(SPARSE_SIDE, seed=31)
        engine = ExecutionEngine()
        engine.matmul_ata(a, algo="sparse_gram")
        benchmark.pedantic(
            lambda: engine.matmul_ata(a, algo="sparse_gram"),
            rounds=10, iterations=1, warmup_rounds=2)

    @pytest.mark.benchmark(group="engine_sparse")
    def test_bench_densify_dense_side(self, benchmark):
        a = _random_csr(DENSE_SIDE, seed=32)
        engine = ExecutionEngine()
        engine.matmul_ata(a, algo="densify")
        benchmark.pedantic(
            lambda: engine.matmul_ata(a, algo="densify"),
            rounds=10, iterations=1, warmup_rounds=2)
