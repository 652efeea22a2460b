"""Tests for the out-of-core panel-sharded AtA executor (ISSUE 5).

The acceptance contract under test:

* ``matmul_ata_ooc`` is bit-identical (``np.array_equal``) to
  ``matmul_ata`` whenever the input fits the budget (single panel), and to
  the in-memory engine replaying the same fixed panel schedule for every
  multi-panel run — across dtypes, algorithms, panel sizes and source
  kinds (array / memmap / chunk stream);
* a budget-derived schedule is the same on every host;
* a memmap-backed input whose bytes exceed the ``budget=``
  completes, with the resident high-water within the budget;
* infeasible budgets fail up front with :class:`repro.errors.BudgetError`;
* the counted panel flops reconcile exactly with the direct call for the
  row-additive kernels (``syrk`` / ``tiled``).
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.blas.counters import CounterSet, counting
from repro.config import configured
from repro.engine import (
    ArraySource,
    ChunkSource,
    ExecutionEngine,
    MemmapSource,
    PanelFarm,
    ShardedAtA,
    as_source,
    matmul_ata_ooc,
    split_rows,
)
from repro.errors import BudgetError, DTypeError, ShapeError


def reference_panel_sum(a: np.ndarray, panel_rows: int, alpha: float = 1.0,
                        algo: str = "auto") -> np.ndarray:
    """The determinism reference: the in-memory engine accumulating the
    identical fixed panel schedule."""
    n = a.shape[1]
    engine = ExecutionEngine()
    c = np.zeros((n, n), dtype=a.dtype)
    for lo, hi in split_rows(a.shape[0], panel_rows):
        engine.matmul_ata(a[lo:hi], c, alpha, algo=algo)
    return c


class TestSplitRows:
    def test_exact_cover_in_ascending_order(self):
        bounds = split_rows(10, 4)
        assert bounds == ((0, 4), (4, 8), (8, 10))

    def test_single_panel_when_max_rows_covers(self):
        assert split_rows(7, 7) == ((0, 7),)
        assert split_rows(7, 100) == ((0, 7),)

    def test_every_row_exactly_once(self):
        for m in (1, 2, 17, 64, 101):
            for rows in (1, 3, 64, 200):
                bounds = split_rows(m, rows)
                assert bounds[0][0] == 0 and bounds[-1][1] == m
                for (_, hi), (lo2, _) in zip(bounds, bounds[1:]):
                    assert hi == lo2

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ShapeError):
            split_rows(0, 4)
        with pytest.raises(ShapeError):
            split_rows(4, 0)


class TestBitIdentity:
    """The fixed-schedule determinism contract, via hypothesis sweep."""

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(2, 80), n=st.integers(1, 40),
           panel_rows=st.integers(1, 96),
           dtype=st.sampled_from([np.float64, np.float32]),
           algo=st.sampled_from(["auto", "syrk", "ata", "tiled"]))
    def test_ooc_matches_engine_across_schedules(self, m, n, panel_rows,
                                                 dtype, algo):
        rng = np.random.default_rng(m * 1000 + n * 10 + panel_rows)
        a = rng.standard_normal((m, n)).astype(dtype)
        with configured(base_case_elements=64):
            engine = ExecutionEngine()
            got = engine.matmul_ata_ooc(a, algo=algo, panel_rows=panel_rows)
            want = reference_panel_sum(a, panel_rows, algo=algo)
            assert np.array_equal(got, want)
            if panel_rows >= m:
                # one panel: the call *is* matmul_ata, bit for bit
                direct = ExecutionEngine().matmul_ata(a, algo=algo)
                assert np.array_equal(got, direct)

    def test_single_panel_is_matmul_ata(self, rng):
        a = rng.standard_normal((120, 50))
        with configured(base_case_elements=64):
            assert np.array_equal(matmul_ata_ooc(a),
                                  ExecutionEngine().matmul_ata(a))

    def test_sources_agree_bit_for_bit(self, rng, tmp_path):
        a = rng.standard_normal((150, 24))
        mm = np.memmap(tmp_path / "a.dat", dtype=a.dtype, mode="w+",
                       shape=a.shape)
        mm[:] = a
        mm.flush()
        chunks = [a[0:37], a[37:37], a[37:99], a[99:150]]
        engine = ExecutionEngine()
        from_array = engine.matmul_ata_ooc(a, panel_rows=40)
        from_memmap = engine.matmul_ata_ooc(mm, panel_rows=40)
        from_stream = engine.matmul_ata_ooc(
            ChunkSource(iter(chunks), a.shape, a.dtype), panel_rows=40)
        assert np.array_equal(from_array, from_memmap)
        assert np.array_equal(from_array, from_stream)

    def test_alpha_beta_semantics(self, rng):
        a = rng.standard_normal((90, 20))
        c0 = rng.standard_normal((20, 20))
        engine = ExecutionEngine()
        got = engine.matmul_ata_ooc(a, c0.copy(), alpha=2.0, beta=0.5,
                                    panel_rows=32)
        want = c0.copy()
        want *= 0.5
        ref = ExecutionEngine()
        for lo, hi in split_rows(90, 32):
            ref.matmul_ata(a[lo:hi], want, 2.0)
        assert np.array_equal(got, want)

    def test_repeated_runs_identical(self, rng):
        a = rng.standard_normal((128, 32))
        engine = ExecutionEngine()
        first = engine.matmul_ata_ooc(a, panel_rows=50)
        second = engine.matmul_ata_ooc(a, panel_rows=50)
        assert np.array_equal(first, second)


class TestMemmapBeyondBudget:
    def test_input_exceeding_budget_completes_within_budget(self, tmp_path):
        m, n = 4096, 48
        rng = np.random.default_rng(42)
        data = rng.standard_normal((m, n))
        mm = np.memmap(tmp_path / "big.dat", dtype=np.float64, mode="w+",
                       shape=(m, n))
        mm[:] = data
        mm.flush()
        budget = 128 * 1024  # 128 KiB; the input is 1.5 MiB
        assert mm.nbytes > budget
        engine = ExecutionEngine()
        result, stats = engine.run_ooc(mm, budget=budget)
        assert stats.panels > 1
        assert stats.bytes_resident_high <= budget
        assert stats.budget_bytes == budget
        assert np.array_equal(
            result, reference_panel_sum(data, stats.panel_rows))
        estats = engine.stats()
        assert estats.ooc_runs == 1
        assert estats.ooc_panels == stats.panels
        assert estats.ooc_bytes_resident_high == stats.bytes_resident_high
        assert estats.ooc_budget_bytes == budget

    def test_panel_plans_are_reused_across_panels(self, rng):
        a = rng.standard_normal((300, 24))
        engine = ExecutionEngine()
        engine.matmul_ata_ooc(a, panel_rows=60)
        stats = engine.stats()
        # 5 equal panels -> one compile, four cache hits
        assert stats.plan_misses == 1
        assert stats.plan_hits == 4


class TestBudgetErrors:
    def test_budget_below_output_matrix(self, rng):
        a = rng.standard_normal((64, 32))  # C alone is 8 KiB
        with pytest.raises(BudgetError, match="cannot hold"):
            ExecutionEngine().matmul_ata_ooc(a, budget=4096)

    def test_budget_without_room_for_one_row(self, rng):
        a = rng.standard_normal((64, 32))
        c_bytes = 32 * 32 * 8
        with pytest.raises(BudgetError):
            ExecutionEngine().matmul_ata_ooc(a, budget=c_bytes + 8)

    def test_explicit_panel_rows_overshooting_budget(self, rng):
        a = rng.standard_normal((64, 32))
        c_bytes = 32 * 32 * 8
        budget = c_bytes + 4 * 32 * 8  # room for 4 rows, single-buffered
        engine = ExecutionEngine()
        with pytest.raises(BudgetError):
            engine.matmul_ata_ooc(a, budget=budget, panel_rows=8)
        # the same budget is feasible at 4 rows
        result, stats = engine.run_ooc(a, budget=budget, panel_rows=4)
        assert stats.panels == 16
        assert np.array_equal(result, reference_panel_sum(a, 4))

    def test_error_message_names_the_remedy(self, rng):
        a = rng.standard_normal((64, 32))
        with pytest.raises(BudgetError, match="raise budget="):
            ExecutionEngine().matmul_ata_ooc(a, budget=1)

    def test_negative_budget_rejected(self, rng):
        a = rng.standard_normal((8, 4))
        with pytest.raises(BudgetError):
            ExecutionEngine().matmul_ata_ooc(a, budget=-1)


class TestPanelSchedule:
    """The one panel-schedule solver, through both executors' ``schedule``:
    ``(1 + outputs)·n²·s + buffers·rows·n·s <= budget`` with the largest
    ``rows`` that fits — outputs = 0 and buffers = 1 in process,
    outputs = buffers = procs in the farm."""

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(1, 3000), n=st.integers(1, 48),
           dtype=st.sampled_from([np.float32, np.float64, np.complex128]),
           budget=st.integers(0, 1 << 17), procs=st.integers(0, 3))
    def test_largest_panel_that_fits(self, m, n, dtype, budget, procs):
        engine = ExecutionEngine()
        if procs:
            outputs = buffers = procs
            executor = PanelFarm(engine, procs=procs)
        else:
            outputs, buffers = 0, 1
            executor = ShardedAtA(engine)
        s = np.dtype(dtype).itemsize

        def resident(rows):
            return (1 + outputs) * n * n * s + buffers * rows * n * s

        if budget and resident(1) > budget:
            with pytest.raises(BudgetError) as excinfo:
                executor.schedule((m, n), dtype, budget)
            assert (f"smallest feasible working set is {resident(1)} bytes"
                    in str(excinfo.value))
            return
        bounds, eff_budget = executor.schedule((m, n), dtype, budget)[:2]
        assert eff_budget == budget
        assert bounds == split_rows(m, bounds[0][1])
        rows = bounds[0][1]
        if not budget:
            assert rows == m  # unbounded: one panel
            return
        assert resident(rows) <= budget
        assert rows == m or resident(rows + 1) > budget


    def test_budget_schedule_does_not_depend_on_the_host(self, monkeypatch):
        """A budget-derived schedule — hence the result, bit for bit — is
        the same whether the process may run on one CPU or two."""
        a = np.random.default_rng(7).standard_normal((8192, 96))
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, cpus=cpus: set(range(cpus)),
                                raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            runs.append(ExecutionEngine().run_ooc(a, budget=1 << 20))
        (one, one_stats), (two, two_stats) = runs
        assert one_stats.panels == two_stats.panels
        assert one_stats.panel_rows == two_stats.panel_rows
        assert np.array_equal(one, two)


class TestStatsReconciliation:
    @pytest.mark.parametrize("algo", ["syrk", "tiled"])
    def test_sum_of_panel_flops_equals_direct_flops(self, rng, algo):
        """The row-additive kernels: panel flop totals must sum exactly to
        the whole-matrix call's flops (syrk and tiled kernel counts are
        linear in the row dimension)."""
        a = rng.standard_normal((192, 40))
        with configured(base_case_elements=256):
            direct = CounterSet()
            with counting(direct):
                ExecutionEngine().matmul_ata(a, algo=algo)
            panelled = CounterSet()
            with counting(panelled):
                ExecutionEngine().matmul_ata_ooc(a, algo=algo, panel_rows=48)
        assert panelled.total_flops == direct.total_flops

    def test_engine_accounting_accumulates_across_runs(self, rng):
        engine = ExecutionEngine()
        a = rng.standard_normal((100, 16))
        engine.matmul_ata_ooc(a, panel_rows=30)
        engine.matmul_ata_ooc(a, panel_rows=25)
        stats = engine.stats()
        assert stats.ooc_runs == 2
        assert stats.ooc_panels == 4 + 4

    def test_run_stats_shape(self, rng):
        a = rng.standard_normal((100, 16))
        _, stats = ExecutionEngine().run_ooc(a, panel_rows=40)
        assert stats.panels == 3
        assert stats.panel_rows == 40
        # C plus one scheduled panel window, charged uniformly across
        # source kinds (views included) so it always agrees with admission
        assert stats.bytes_resident_high == (16 * 16 + 40 * 16) * 8


class TestSources:
    def test_as_source_dispatch(self, rng, tmp_path):
        a = rng.standard_normal((10, 4))
        assert isinstance(as_source(a), ArraySource)
        mm = np.memmap(tmp_path / "m.dat", dtype=np.float64, mode="w+",
                       shape=(10, 4))
        assert isinstance(as_source(mm), MemmapSource)
        chunk = ChunkSource(iter([a]), a.shape, a.dtype)
        assert as_source(chunk) is chunk
        with pytest.raises(ShapeError, match="panel source"):
            as_source([a])  # a bare list is not a source

    def test_array_source_rejects_non_matrices(self, rng):
        with pytest.raises(ShapeError):
            ArraySource(rng.standard_normal(5))
        with pytest.raises(DTypeError):
            ArraySource("not an array")

    def test_chunk_source_short_stream_fails(self, rng):
        a = rng.standard_normal((50, 8))
        source = ChunkSource(iter([a[:20]]), (50, 8), a.dtype)
        with pytest.raises(ShapeError, match="ended early"):
            ExecutionEngine().matmul_ata_ooc(source, panel_rows=25)

    def test_chunk_source_long_stream_fails(self, rng):
        a = rng.standard_normal((50, 8))
        source = ChunkSource(iter([a, a[:1]]), (50, 8), a.dtype)
        with pytest.raises(ShapeError, match="more rows"):
            ExecutionEngine().matmul_ata_ooc(source, panel_rows=25)

    def test_chunk_source_wrong_width_fails(self, rng):
        a = rng.standard_normal((50, 8))
        source = ChunkSource(iter([a[:, :4]]), (50, 8), a.dtype)
        with pytest.raises(ShapeError, match="rows, 8"):
            ExecutionEngine().matmul_ata_ooc(source, panel_rows=25)

    def test_chunk_source_dtype_mismatch_fails(self, rng):
        a = rng.standard_normal((50, 8)).astype(np.float32)
        source = ChunkSource(iter([a]), (50, 8), np.float64)
        with pytest.raises(DTypeError, match="declared"):
            ExecutionEngine().matmul_ata_ooc(source, panel_rows=25)

    def test_chunk_taller_than_panel_splits_correctly(self, rng):
        """One delivered chunk spanning many panels: the stitch buffer
        must split it at panel boundaries without re-copying the tail."""
        a = rng.standard_normal((130, 12))
        source = ChunkSource(iter([a]), a.shape, a.dtype)
        got = ExecutionEngine().matmul_ata_ooc(source, panel_rows=17)
        assert np.array_equal(got, reference_panel_sum(a, 17))

    def test_chunk_source_empty_tail_does_not_mask_extra_rows(self, rng):
        a = rng.standard_normal((50, 8))
        source = ChunkSource(iter([a, a[:0], a[:3]]), (50, 8), a.dtype)
        with pytest.raises(ShapeError, match="more rows"):
            ExecutionEngine().matmul_ata_ooc(source, panel_rows=25)

    def test_chunk_source_malformed_trailing_chunk(self, rng):
        a = rng.standard_normal((50, 8))
        source = ChunkSource(iter([a, a[0]]), (50, 8), a.dtype)  # 1-D tail
        with pytest.raises(ShapeError, match="rows, 8"):
            ExecutionEngine().matmul_ata_ooc(source, panel_rows=25)


class TestFrontEnds:
    def test_c_operand_validation(self, rng):
        a = rng.standard_normal((30, 10))
        engine = ExecutionEngine()
        with pytest.raises(ShapeError, match="shape"):
            engine.matmul_ata_ooc(a, c=np.zeros((5, 5)))
        with pytest.raises(DTypeError):
            engine.matmul_ata_ooc(a, c=np.zeros((10, 10), dtype=np.float32))

    def test_module_level_conveniences_use_default_engine(self, rng):
        a = rng.standard_normal((40, 12))
        before = repro.default_engine().stats().ooc_runs
        c1 = repro.matmul_ata_ooc(a, panel_rows=16)
        c2, stats = repro.run_ooc(a, panel_rows=16)
        assert np.array_equal(c1, c2)
        assert stats.panels == 3
        assert repro.default_engine().stats().ooc_runs == before + 2

    def test_sharded_executor_constructor_validation(self):
        """The executors take no out-of-core options; the per-call
        ``panel_rows`` is checked before any budget arithmetic, on the
        stream and the farm alike."""
        engine = ExecutionEngine()
        with pytest.raises(TypeError):
            ShardedAtA(engine, budget=1 << 20)
        with pytest.raises(TypeError):
            ShardedAtA(engine, panel_rows=8)
        with pytest.raises(TypeError):
            PanelFarm(engine, procs=1, max_retries=0)
        with pytest.raises(TypeError):
            engine.run_ooc(np.ones((40, 8)), prefetch=True)
        a = np.ones((40, 8))
        for procs in (0, 2):
            for panel_rows in (0, -3):
                for budget in (None, 1 << 20):
                    with pytest.raises(ShapeError, match="panel_rows"):
                        engine.run_ooc(a, panel_rows=panel_rows,
                                       budget=budget, procs=procs)
        with pytest.raises(BudgetError):
            ShardedAtA(engine).run(a, budget=-5)

    def test_dag_engine_serves_panels(self, rng):
        """Panels run through whatever engine they are given — including a
        DAG-capable one — without perturbing values."""
        a = rng.standard_normal((120, 24))
        with configured(base_case_elements=64):
            dag_engine = ExecutionEngine(workers=2, parallel="dag")
            try:
                got = dag_engine.matmul_ata_ooc(a, panel_rows=50)
            finally:
                dag_engine.close()
            assert np.array_equal(got, reference_panel_sum(a, 50))


class TestOocBudgetCoordination:
    def test_idle_scratch_trimmed_to_fit_budget(self, rng):
        with configured(base_case_elements=64):
            eng = ExecutionEngine()
            # leave a large idle workspace in the pool
            eng.matmul_ata(rng.standard_normal((256, 64)))
            assert eng.pool.footprint() > 0
            a = rng.standard_normal((128, 16))
            budget = (16 * 16 + 2 * 32 * 16) * 8 + 512
            c, stats = ShardedAtA(eng).run(a, budget=budget, panel_rows=32)
            # multi-panel contract: bit-identical to per-panel accumulation
            # in schedule order (not to one whole-matrix call)
            ref_eng = ExecutionEngine()
            ref = np.zeros((16, 16))
            for lo in range(0, 128, 32):
                ref_eng.matmul_ata(a[lo:lo + 32], ref)
            assert np.array_equal(c, ref)
            assert stats.workspace_trimmed >= 1
            assert stats.workspace_bytes <= max(
                0, budget - stats.bytes_resident_high) + eng.pool.footprint()

    def test_unbounded_budget_never_trims(self, rng):
        with configured(base_case_elements=64):
            eng = ExecutionEngine()
            eng.matmul_ata(rng.standard_normal((128, 64)))
            _, stats = ShardedAtA(eng).run(rng.standard_normal((96, 16)),
                                           budget=0, panel_rows=32)
            assert stats.workspace_trimmed == 0
