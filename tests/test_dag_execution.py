"""Tests for DAG-parallel plan execution (:mod:`repro.engine.dag`).

The contract under test is ISSUE 2's hard constraint: DAG execution must
be **bit-identical** (``np.array_equal``, not ``allclose``) to the
sequential plan replay and to the direct recursions, for every algorithm,
under any worker count — because the dependency graph orders every pair of
conflicting steps (accumulation chains in particular) exactly as the
sequential replay does, and provably disjoint steps cannot affect each
other's bits no matter how they interleave.

Also covered: the DAG's structural invariants (forward edges, consistent
predecessor counts, critical path/width accounting), the scratch-lane
layout (disjoint per-lane offsets, requirement = sum of lanes), engine
wiring (modes, stats, constructor-only scheduling), a many-thread stress test on one
shared engine, and the workspace pool's best-fit/eviction policy.
"""

import concurrent.futures

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cache.model import CacheModel
from repro.config import configured
from repro.core.ata import ata
from repro.core.recursive_gemm import recursive_gemm
from repro.core.strassen import fast_strassen
from repro.core.workspace import StrassenWorkspace, _Requirement
from repro.engine import (
    DagExecutor,
    ExecutionEngine,
    WorkspacePool,
    compile_plan,
    execute_plan,
)
from repro.errors import ConfigurationError, ShapeError


@pytest.fixture()
def rng():
    return np.random.default_rng(0xDA6)


def _run(plan, a, b, out_shape, alpha=1.0):
    """Replay one plan sequentially on a fresh workspace."""
    ws = None
    if plan.needs_workspace:
        ws = StrassenWorkspace(*plan.ws_shape, dtype=a.dtype,
                               requirement=plan.requirement)
    c = np.zeros(out_shape, dtype=a.dtype)
    execute_plan(plan, a, c, alpha, ws, b=b)
    return c


def _dag_result(plan, a, b, out_shape, workers, alpha=1.0):
    """Run one plan through a fresh DagExecutor on a dirtied workspace."""
    executor = DagExecutor(workers)
    workspace = None
    if plan.needs_workspace:
        workspace = StrassenWorkspace(*plan.ws_shape, dtype=a.dtype,
                                      requirement=plan.requirement)
        for buf in workspace.flat_buffers():
            buf[...] = np.nan  # aliasing or missing zero-fill would surface
    c = np.zeros(out_shape, dtype=a.dtype)
    try:
        executor.execute(plan, a, c, alpha, workspace, b=b)
    finally:
        executor.shutdown()
    return c


class TestBitIdentity:
    """DAG execution == sequential replay == direct recursion, bitwise."""

    @given(m=st.integers(1, 70), n=st.integers(1, 70),
           workers=st.sampled_from([1, 2, 8]),
           lanes=st.sampled_from([1, 2, 4]),
           kind=st.sampled_from(["ata", "syrk", "tiled"]),
           dtype=st.sampled_from([np.float64, np.float32]),
           alpha=st.sampled_from([1.0, 1.25]),
           bce=st.sampled_from([16, 32, 64]))
    # tall-thin tails pack many scratch-arena generations into few columns
    @example(m=127, n=3, workers=8, lanes=1, kind="ata", dtype=np.float64,
             alpha=1.0, bce=32)
    @example(m=97, n=3, workers=8, lanes=4, kind="ata", dtype=np.float64,
             alpha=1.25, bce=16)
    @settings(max_examples=40, deadline=None)
    def test_ata_shape_sweep(self, m, n, workers, lanes, kind, dtype, alpha,
                             bce):
        a = np.random.default_rng(m * 1000 + n).standard_normal((m, n))
        a = a.astype(dtype)
        with configured(base_case_elements=bce):
            model = CacheModel(capacity_words=bce)
            plan = compile_plan(kind, (m, n), a.dtype, model,
                                lanes=lanes, build_dag=True)
            sequential = _run(plan, a, None, (n, n), alpha)
            got = _dag_result(plan, a, None, (n, n), workers, alpha)
            if kind == "ata":
                assert np.array_equal(sequential, ata(a.copy(), alpha=alpha))
        assert np.array_equal(got, sequential)

    @pytest.mark.parametrize("algo", ["strassen", "recursive_gemm"])
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_atb_algorithms(self, rng, algo, workers):
        for dtype in (np.float64, np.float32):
            for alpha in (1.0, 1.25):
                a = rng.standard_normal((45, 23)).astype(dtype)
                b = rng.standard_normal((45, 31)).astype(dtype)
                with configured(base_case_elements=64):
                    model = CacheModel(capacity_words=64)
                    plan = compile_plan(algo, (45, 23, 31), a.dtype, model,
                                        lanes=4, build_dag=True)
                    direct = (fast_strassen(a, b, alpha=alpha)
                              if algo == "strassen"
                              else recursive_gemm(a, b, alpha=alpha))
                    got = _dag_result(plan, a, b, (23, 31), workers, alpha)
                assert np.array_equal(got, direct)

    @pytest.mark.parametrize("algo", ["tiled", "syrk"])
    def test_workspace_free_plans(self, rng, algo):
        a = rng.standard_normal((40, 28))
        with configured(base_case_elements=64):
            model = CacheModel(capacity_words=64)
            plan = compile_plan(algo, (40, 28), a.dtype, model,
                                lanes=2, build_dag=True)
            sequential = execute_plan(plan, a, np.zeros((28, 28)), 1.0)
            got = _dag_result(plan, a, None, (28, 28), workers=4)
        assert np.array_equal(got, sequential)

    def test_alpha_propagates_identically(self, rng):
        a = rng.standard_normal((50, 30))
        with configured(base_case_elements=64):
            model = CacheModel(capacity_words=64)
            plan = compile_plan("ata", (50, 30), a.dtype, model,
                                lanes=2, build_dag=True)
            ws = StrassenWorkspace(*plan.ws_shape, dtype=a.dtype,
                                   requirement=plan.requirement)
            sequential = execute_plan(plan, a, np.zeros((30, 30)), 2.5, ws)
            got = _dag_result(plan, a, None, (30, 30), workers=4, alpha=2.5)
        assert np.array_equal(got, sequential)


class TestStepDagStructure:
    def _plan(self, algo="ata", shape=(64, 64), lanes=2, bce=64):
        with configured(base_case_elements=bce):
            return compile_plan(algo, shape, np.float64,
                                CacheModel(capacity_words=bce),
                                lanes=lanes, build_dag=True)

    def test_edges_point_forward_and_counts_match(self):
        dag = self._plan().dag
        seen_edges = 0
        pred_counts = [0] * dag.n_steps
        for u, succs in enumerate(dag.succs):
            for v in succs:
                assert v > u, "dependency edges must point forward in plan order"
                pred_counts[v] += 1
                seen_edges += 1
        assert seen_edges == dag.n_edges
        assert tuple(pred_counts) == dag.preds

    def test_critical_path_and_width_bounds(self):
        dag = self._plan().dag
        assert 1 <= dag.critical_path <= dag.n_steps
        assert 1 <= dag.max_width <= dag.n_steps
        assert dag.parallelism >= 1.0

    def test_accumulation_chain_is_ordered(self):
        """Two syrk leaves accumulating into the same C block must carry a
        dependency (the deterministic-accumulation rule)."""
        from repro.engine.plan import OP_SYRK
        plan = self._plan(shape=(32, 8), bce=64)
        syrk_by_ref = {}
        for idx, step in enumerate(plan.steps):
            if step[0] == OP_SYRK:
                syrk_by_ref.setdefault(repr(step[2]), []).append(idx)
        chains = [idxs for idxs in syrk_by_ref.values() if len(idxs) > 1]
        assert chains, "expected at least one accumulation chain"
        for idxs in chains:
            for earlier, later in zip(idxs, idxs[1:]):
                # later must be reachable from earlier; with direct
                # conflict tracking the edge is immediate
                assert later in plan.dag.succs[earlier]

    def test_bottom_level_priorities_dominate_costs(self):
        dag = self._plan("ata", (64, 64), lanes=2).dag
        for u, succs in enumerate(dag.succs):
            expect = dag.costs[u]
            if succs:
                expect += max(dag.priorities[v] for v in succs)
            assert dag.priorities[u] == expect

    def test_single_step_plan(self):
        plan = self._plan(algo="syrk", shape=(8, 8))
        assert plan.dag.n_steps == 1
        assert plan.dag.n_edges == 0
        assert plan.dag.critical_path == 1

    def test_sequential_compile_skips_dag(self):
        with configured(base_case_elements=64):
            plan = compile_plan("ata", (48, 48), np.float64,
                                CacheModel(capacity_words=64))
        assert plan.dag is None and plan.lanes == 1

    def test_executor_rejects_dagless_plan(self, rng):
        with configured(base_case_elements=64):
            plan = compile_plan("ata", (48, 48), np.float64,
                                CacheModel(capacity_words=64))
            ws = StrassenWorkspace(*plan.ws_shape, dtype=np.float64,
                                   requirement=plan.requirement)
            with pytest.raises(ShapeError):
                DagExecutor(2).execute(plan, rng.standard_normal((48, 48)),
                                       np.zeros((48, 48)), 1.0, ws)


class TestScratchLanes:
    def test_lane_requirement_is_sum_of_lanes(self):
        with configured(base_case_elements=64):
            model = CacheModel(capacity_words=64)
            narrow = compile_plan("ata", (64, 64), np.float64, model)
            wide = compile_plan("ata", (64, 64), np.float64, model, lanes=4)
        assert wide.requirement.total_elements > narrow.requirement.total_elements
        assert (wide.requirement.total_elements
                <= 4 * narrow.requirement.total_elements)

    def test_lanes_raise_available_parallelism(self):
        with configured(base_case_elements=64):
            model = CacheModel(capacity_words=64)
            narrow = compile_plan("ata", (96, 96), np.float64, model,
                                  lanes=1, build_dag=True)
            wide = compile_plan("ata", (96, 96), np.float64, model,
                                lanes=4, build_dag=True)
        assert wide.dag.critical_path < narrow.dag.critical_path
        assert wide.dag.parallelism > narrow.dag.parallelism

    def test_requirement_addition(self):
        left = _Requirement(p_elements=3, q_elements=5, m_elements=7, depth=2)
        right = _Requirement(p_elements=11, q_elements=13, m_elements=17, depth=4)
        total = left + right
        assert total == _Requirement(14, 18, 24, 4)


class TestEngineWiring:
    def test_modes_and_worker_counts_bit_identical(self, rng):
        a = rng.standard_normal((96, 64))
        with configured(base_case_elements=64):
            expected = ata(a.copy())
            for workers in (1, 2, 8):
                for mode in ("auto", "dag"):
                    engine = ExecutionEngine(workers=workers, parallel=mode)
                    try:
                        assert np.array_equal(engine.matmul_ata(a), expected), \
                            (workers, mode)
                    finally:
                        engine.close()

    def test_forced_dag_runs_update_stats(self, rng):
        engine = ExecutionEngine(workers=2, parallel="dag")
        a = rng.standard_normal((96, 64))
        with configured(base_case_elements=64):
            engine.matmul_ata(a)
            engine.matmul_ata(a)
        stats = engine.stats()
        assert stats.dag_runs == 2
        assert stats.dag_steps > 0
        assert stats.sequential_runs == 0
        engine.close()

    @pytest.mark.parametrize("blas, dag", [(2, False), (1, True),
                                           (None, True)])
    def test_auto_counts_blas_threads(self, rng, monkeypatch, blas, dag):
        """"auto" DAG-schedules only when the cores outnumber the threads
        the bound BLAS runs each leaf on: 2 cores under a 2-thread BLAS
        replay sequentially.  An unbound BLAS (``None``) counts as one
        thread."""
        import repro.engine.cpu as cpu_mod
        import repro.engine.dispatch as dispatch_mod
        monkeypatch.setattr(cpu_mod.os, "sched_getaffinity",
                            lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(dispatch_mod, "blas_threads", lambda: blas)
        engine = ExecutionEngine(workers=2)
        try:
            with configured(base_case_elements=64):
                engine.matmul_ata(rng.standard_normal((96, 64)))
        finally:
            engine.close()
        stats = engine.stats()
        assert (stats.dag_runs, stats.sequential_runs) == \
            ((1, 0) if dag else (0, 1))

    def test_invalid_parallel_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecutionEngine(parallel="eventually")
        with pytest.raises(ConfigurationError):
            ExecutionEngine(workers=0)
        with pytest.raises(ConfigurationError):
            DagExecutor(0)

    def test_scheduling_is_decided_by_the_constructor_alone(self, rng):
        # workers=1 is the sequential engine, lanes follow from workers,
        # and no call can override the schedule
        with pytest.raises(ConfigurationError):
            ExecutionEngine(parallel="off")
        with pytest.raises(TypeError):
            ExecutionEngine(workers=2, scratch_lanes=2)
        with pytest.raises(TypeError):
            ExecutionEngine().matmul_ata(rng.standard_normal((8, 8)),
                                         parallel="dag")
        for workers, lanes in ((1, 1), (2, 2), (8, 4)):
            engine = ExecutionEngine(workers=workers)
            try:
                with configured(base_case_elements=64):
                    engine.matmul_ata(rng.standard_normal((96, 64)))
                (plan,) = engine.plans.snapshot()
                assert plan.key[6] == lanes, (workers, plan.key)
            finally:
                engine.close()

    def test_run_batch_matches_loop_under_dag(self, rng):
        mats = [rng.standard_normal((52, 36)) for _ in range(4)]
        with configured(base_case_elements=64):
            loop = [ExecutionEngine().matmul_ata(m) for m in mats]
            engine = ExecutionEngine(workers=4, parallel="dag")
            try:
                batch = engine.run_batch(mats)
            finally:
                engine.close()
        for expected, got in zip(loop, batch):
            assert np.array_equal(expected, got)

    def test_atb_through_engine_under_dag(self, rng):
        a = rng.standard_normal((45, 23))
        b = rng.standard_normal((45, 31))
        with configured(base_case_elements=64):
            expected = fast_strassen(a, b)
            engine = ExecutionEngine(workers=4, parallel="dag")
            try:
                got = engine.matmul_atb(a, b)
            finally:
                engine.close()
        assert np.array_equal(expected, got)


#: every scheduling an engine can have: sequential, "auto" and forced DAG
ENGINES = [(workers, parallel) for workers in (1, 2, 4)
           for parallel in ("auto", "dag")]
ENGINE_IDS = [f"w{workers}-{parallel}" for workers, parallel in ENGINES]


class TestBatches:
    """A batch is a loop over the single-request path on every engine:
    results bit-identical to the per-entry loop, one held workspace per
    plan key."""

    @pytest.mark.parametrize("workers,parallel", ENGINES, ids=ENGINE_IDS)
    def test_run_batch_bit_identical_and_counted(self, rng, workers,
                                                 parallel):
        with configured(base_case_elements=256):
            eng = ExecutionEngine(parallel=parallel, workers=workers)
            mats = [rng.standard_normal(s)
                    for s in [(48, 32), (64, 64), (96, 40), (33, 17),
                              (64, 64)]]
            try:
                outs = eng.run_batch(mats, alpha=1.25)
            finally:
                eng.close()
            ref_eng = ExecutionEngine()
            for out, a in zip(outs, mats):
                assert np.array_equal(out, ref_eng.matmul_ata(a, alpha=1.25))
            stats = eng.stats()
            assert stats.batch_calls == 1
            assert stats.batch_items == len(mats)

    @pytest.mark.parametrize("workers,parallel", ENGINES, ids=ENGINE_IDS)
    def test_run_batch_atb_bit_identical(self, rng, workers, parallel):
        with configured(base_case_elements=256):
            eng = ExecutionEngine(parallel=parallel, workers=workers)
            pairs = [(rng.standard_normal((m, n)), rng.standard_normal((m, k)))
                     for m, n, k in [(48, 32, 24), (64, 40, 40), (40, 64, 8)]]
            try:
                outs = eng.run_batch_atb(pairs, alpha=0.5)
            finally:
                eng.close()
            ref_eng = ExecutionEngine()
            for out, (a, b) in zip(outs, pairs):
                assert np.array_equal(
                    out, ref_eng.matmul_atb(a, b, alpha=0.5))
            stats = eng.stats()
            assert stats.batch_calls == 1
            assert stats.batch_items == len(pairs)

    @pytest.mark.parametrize("workers,parallel", ENGINES, ids=ENGINE_IDS)
    def test_homogeneous_batch_holds_one_workspace(self, rng, workers,
                                                   parallel):
        mats = [rng.standard_normal((64, 64)) for _ in range(5)]
        with configured(base_case_elements=256):
            single = ExecutionEngine(parallel=parallel, workers=workers)
            eng = ExecutionEngine(parallel=parallel, workers=workers)
            try:
                single.matmul_ata(mats[0])
                one_workspace = single.stats().pool_bytes_high
                eng.run_batch(mats)
            finally:
                single.close()
                eng.close()
        stats = eng.stats()
        assert one_workspace > 0
        assert stats.pool_allocations + stats.pool_reuses == 1
        assert stats.pool_bytes_high == one_workspace

    def test_execute_batch_direct(self, rng):
        with configured(base_case_elements=64):
            model = CacheModel(capacity_words=64)
            pool = WorkspacePool()
            entries = []
            refs = []
            for m, n in [(48, 32), (64, 64), (40, 24)]:
                a = rng.standard_normal((m, n))
                plan = compile_plan("ata", (m, n), a.dtype, model,
                                    lanes=2, build_dag=True)
                c = np.zeros((n, n))
                entries.append((plan, a, None, c))
                refs.append(_run(plan, a, None, (n, n), alpha=2.0))
            executor = DagExecutor(4)
            try:
                stats = executor.execute_batch(
                    entries, alpha=2.0, acquire=pool.acquire,
                    release=pool.release)
            finally:
                executor.shutdown()
            assert stats.steps == sum(len(p.steps) for p, *_ in entries)
            for (_, _, _, c), ref in zip(entries, refs):
                assert np.array_equal(c, ref)

    def test_execute_batch_sequential_fallback(self, rng):
        with configured(base_case_elements=64):
            model = CacheModel(capacity_words=64)
            pool = WorkspacePool()
            a = rng.standard_normal((48, 32))
            plan = compile_plan("ata", (48, 32), a.dtype, model,
                                lanes=1, build_dag=True)
            c = np.zeros((32, 32))
            executor = DagExecutor(1)
            try:
                stats = executor.execute_batch(
                    [(plan, a, None, c)], acquire=pool.acquire,
                    release=pool.release)
            finally:
                executor.shutdown()
            assert stats.workers == 1
            assert np.array_equal(c, _run(plan, a, None, (32, 32)))

    def test_execute_batch_releases_workspaces_on_failure(self, rng):
        with configured(base_case_elements=64):
            model = CacheModel(capacity_words=64)
            pool = WorkspacePool()
            a = rng.standard_normal((64, 64))
            plan = compile_plan("ata", (64, 64), a.dtype, model,
                                lanes=2, build_dag=True)
            bad = np.zeros((1, 1))  # wrong output shape => kernel raises
            executor = DagExecutor(4)
            try:
                with pytest.raises(Exception):
                    executor.execute_batch(
                        [(plan, a, None, bad)], acquire=pool.acquire,
                        release=pool.release)
            finally:
                executor.shutdown()
            assert pool.footprint() == pool._bytes_idle  # nothing checked out


class TestStress:
    def test_many_threads_hammer_one_dag_engine(self, rng):
        """Concurrent DAG runs on one engine: distinct workspaces per run
        (no aliasing) and coherent stats."""
        engine = ExecutionEngine(workers=4, parallel="dag", pool_size=4)
        shapes = [(96, 64), (80, 80), (64, 96)]
        mats = {shape: rng.standard_normal(shape) for shape in shapes}
        calls = 24
        with configured(base_case_elements=64):
            expected = {shape: ata(mats[shape].copy()) for shape in shapes}

            def work(i):
                shape = shapes[i % len(shapes)]
                return shape, engine.matmul_ata(mats[shape])

            try:
                with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                    for shape, got in pool.map(work, range(calls)):
                        assert np.array_equal(expected[shape], got)
            finally:
                engine.close()
        stats = engine.stats()
        assert stats.dag_runs == calls
        assert stats.plan_hits + stats.plan_misses == calls
        # threads racing on a cold key may each count a miss (documented
        # PlanCache behaviour: first insert wins), but never fewer than
        # one per distinct shape, and exactly one plan per shape survives
        assert stats.plan_misses >= len(shapes)
        assert stats.cached_plans == len(shapes)
        # every checked-out workspace went back through the pool
        assert stats.pool_allocations + stats.pool_reuses == calls

    def test_exception_in_step_propagates_and_engine_survives(self, rng):
        engine = ExecutionEngine(workers=4, parallel="dag")
        a = rng.standard_normal((96, 64))
        with configured(base_case_elements=64):
            expected = ata(a.copy())
            bad = np.zeros((1, 1))  # wrong C shape: kernels must blow up
            with pytest.raises(Exception):
                from repro.engine.plan import compile_plan as _cp
                model = CacheModel(capacity_words=64)
                plan = _cp("ata", (96, 64), a.dtype, model, lanes=2,
                           build_dag=True)
                engine.dag.execute(plan, a, bad, 1.0,
                                   StrassenWorkspace(*plan.ws_shape,
                                                     dtype=a.dtype,
                                                     requirement=plan.requirement))
            # the executor must remain usable after a failed run
            got = engine.matmul_ata(a)
        assert np.array_equal(expected, got)
        engine.close()


class TestPoolBestFit:
    def _plan_for(self, n, bce=64, lanes=1):
        with configured(base_case_elements=bce):
            return compile_plan("ata", (n, n), np.float64,
                                CacheModel(capacity_words=bce), lanes=lanes)

    def test_acquire_prefers_smallest_serving_workspace(self):
        pool = WorkspacePool(max_idle=4)
        small_plan, big_plan = self._plan_for(48), self._plan_for(96)
        small = pool.acquire(small_plan, np.float64)
        big = pool.acquire(big_plan, np.float64)
        pool.release(big)
        pool.release(small)
        served = pool.acquire(small_plan, np.float64)
        assert served is small, "best-fit must pick the smallest serving workspace"
        assert pool.reuses == 1

    def test_release_evicts_smaller_idle_workspace(self):
        pool = WorkspacePool(max_idle=1)
        small_plan, big_plan = self._plan_for(48), self._plan_for(96)
        small = pool.acquire(small_plan, np.float64)
        big = pool.acquire(big_plan, np.float64)
        pool.release(small)            # idle: [small]
        pool.release(big)              # full: small evicted, big admitted
        assert pool.evictions == 1
        assert pool.idle_sizes() == [big.total_elements]
        # the retained large workspace now serves the big plan with no
        # fresh allocation — the peak-memory win under mixed-shape traffic
        assert pool.acquire(big_plan, np.float64) is big
        assert pool.allocations == 2

    def test_release_drops_when_not_larger(self):
        pool = WorkspacePool(max_idle=1)
        small_plan, big_plan = self._plan_for(48), self._plan_for(96)
        small = pool.acquire(small_plan, np.float64)
        big = pool.acquire(big_plan, np.float64)
        pool.release(big)              # idle: [big]
        pool.release(small)            # smaller: dropped
        assert pool.drops == 1 and pool.evictions == 0
        assert pool.idle_sizes() == [big.total_elements]

    def test_zero_capacity_pool_counts_drops(self):
        pool = WorkspacePool(max_idle=0)
        ws = pool.acquire(self._plan_for(48), np.float64)
        pool.release(ws)
        assert pool.idle_count == 0 and pool.drops == 1

    def test_clear_stats_resets_new_counters(self):
        pool = WorkspacePool(max_idle=1)
        ws = pool.acquire(self._plan_for(48), np.float64)
        pool.release(ws)
        pool.release(pool.acquire(self._plan_for(48), np.float64))
        pool.clear_stats()
        assert pool.evictions == pool.drops == 0
        assert pool.allocations == pool.reuses == 0
