"""Tests for the plan-compiling execution engine (:mod:`repro.engine`).

Covers plan-cache hit/miss accounting, plan keys that carry every config
value a plan depends on (a config change compiles a new plan instead of
invalidating the cache), workspace-pool
reuse (no fresh allocation on warm calls), and batch-vs-loop equality —
plus bit-exact numerical identity between engine-routed and direct calls,
which is what makes the rewired ``apps``/``parallel`` paths safe.
"""

import numpy as np
import pytest

from repro.blas.counters import counting
from repro.config import configured
from repro.core.workspace import StrassenWorkspace
from repro.core.ata import ata
from repro.core.recursive_gemm import recursive_gemm
from repro.core.strassen import fast_strassen
from repro.engine import (
    ExecutionEngine,
    WorkspacePool,
    compile_plan,
    default_engine,
    matmul_ata,
    matmul_atb,
    run_batch,
)
from repro.cache.model import CacheModel, default_cache_model
from repro.errors import ShapeError


@pytest.fixture()
def engine():
    return ExecutionEngine()


@pytest.fixture()
def rng():
    return np.random.default_rng(0xE45)


class TestNumericalIdentity:
    """Engine results must be bit-for-bit equal to the direct calls."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (7, 7),
                                       (33, 17), (64, 64), (65, 33), (96, 40)])
    def test_ata_bitwise(self, engine, rng, shape):
        a = rng.standard_normal(shape)
        with configured(base_case_elements=64):
            assert np.array_equal(ata(a.copy()), engine.matmul_ata(a))

    def test_ata_alpha_beta_bitwise(self, engine, rng):
        a = rng.standard_normal((50, 30))
        c0 = rng.standard_normal((30, 30))
        with configured(base_case_elements=64):
            ref = ata(a, c0.copy(), 2.5, beta=0.25)
            got = engine.matmul_ata(a, c0.copy(), 2.5, beta=0.25)
        assert np.array_equal(ref, got)

    def test_atb_strassen_bitwise(self, engine, rng):
        a = rng.standard_normal((45, 23))
        b = rng.standard_normal((45, 31))
        with configured(base_case_elements=64):
            assert np.array_equal(fast_strassen(a, b), engine.matmul_atb(a, b))

    def test_atb_recursive_gemm_bitwise(self, engine, rng):
        a = rng.standard_normal((45, 23))
        b = rng.standard_normal((45, 31))
        with configured(base_case_elements=64):
            ref = recursive_gemm(a, b)
            got = engine.matmul_atb(a, b, algo="recursive_gemm")
        assert np.array_equal(ref, got)

    def test_ata_bitwise_at_default_base_case(self, engine, rng):
        """At the default base case an operand above ``2**20`` elements
        still recurses, and the plan replays the recursion's bound-BLAS
        syrk leaves bit for bit."""
        a = rng.standard_normal((1100, 1000))
        plan = compile_plan("ata", a.shape, a.dtype, default_cache_model())
        assert plan.n_steps > 1
        assert np.array_equal(ata(a), engine.matmul_ata(a, algo="ata"))

    def test_counter_parity_with_direct_call(self, engine, rng):
        """Aggregated plan counters equal the recursion's per-kernel ones."""
        a = rng.standard_normal((96, 96))
        with configured(base_case_elements=64):
            with counting() as direct:
                ata(a)
            with counting() as engined:
                engine.matmul_ata(a)
        assert direct.as_dict() == engined.as_dict()

    def test_tiled_and_gemm_paths_match_oracle(self, engine, rng):
        a = rng.standard_normal((40, 28))
        oracle = np.tril(a.T @ a)
        with configured(base_case_elements=64):
            tiled = engine.matmul_ata(a, algo="tiled")
            via_gemm = engine.matmul_ata(a, algo="recursive_gemm")
        assert np.allclose(np.tril(tiled), oracle)
        assert np.allclose(np.tril(via_gemm), oracle)


class TestPlanCache:
    def test_hit_miss_accounting(self, engine, rng):
        a = rng.standard_normal((48, 32))
        with configured(base_case_elements=64):
            engine.matmul_ata(a)
            stats = engine.stats()
            assert stats.plan_misses == 1 and stats.plan_hits == 0
            engine.matmul_ata(a)
            engine.matmul_ata(a)
            stats = engine.stats()
            assert stats.plan_misses == 1 and stats.plan_hits == 2
            assert stats.plan_hit_rate == pytest.approx(2 / 3)

    def test_distinct_shapes_compile_distinct_plans(self, engine, rng):
        with configured(base_case_elements=64):
            engine.matmul_ata(rng.standard_normal((48, 32)))
            engine.matmul_ata(rng.standard_normal((48, 33)))
        assert engine.stats().plan_misses == 2
        assert engine.stats().cached_plans == 2

    def test_config_change_invalidates(self, engine, rng):
        """A base-case change misses on its own key; the plan compiled
        under the old base case stays cached and nothing is dropped."""
        a = rng.standard_normal((48, 32))
        with configured(base_case_elements=64):
            engine.matmul_ata(a)
        with configured(base_case_elements=32):
            engine.matmul_ata(a)
            stats = engine.stats()
            assert stats.plan_invalidations == 0
            assert stats.plan_misses == 2  # compiled under the new config
            assert stats.cached_plans == 2
        # the recompiled plan must honour the new base case: deeper recursion
        with configured(base_case_elements=32):
            assert np.array_equal(ata(a.copy()), engine.matmul_ata(a))

    def test_keyed_cache_survives_config_excursions(self, engine, rng):
        """An explicit ``cache=`` request, a base-case excursion, the
        explicit request again, then four alternating base cases: two
        compiles in all, nothing invalidated, every result bit-identical
        to the direct recursion under the same config."""
        a = rng.standard_normal((48, 32))
        explicit = CacheModel(capacity_words=64)  # == the base-64 default
        ref = ata(a.copy(), cache=explicit)
        assert np.array_equal(engine.matmul_ata(a, cache=explicit), ref)
        (plan,) = engine.plans.snapshot()
        with configured(base_case_elements=32):
            assert np.array_equal(engine.matmul_ata(a), ata(a.copy()))
        assert any(p is plan for p in engine.plans.snapshot())
        assert np.array_equal(engine.matmul_ata(a, cache=explicit), ref)
        for base in (64, 32, 64, 32):
            with configured(base_case_elements=base):
                assert np.array_equal(engine.matmul_ata(a), ata(a.copy()))
        stats = engine.stats()
        assert stats.plan_misses == 2
        assert stats.plan_invalidations == 0

    def test_recursion_depth_is_part_of_the_key(self, engine, rng):
        """A plan compiled under a generous depth limit is never served
        under a limit its walk would exceed."""
        a = rng.standard_normal((48, 32))
        with configured(base_case_elements=8):
            engine.matmul_ata(a)
            with configured(max_recursion_depth=1):
                with pytest.raises(ShapeError):
                    engine.matmul_ata(a)
            engine.matmul_ata(a)
        stats = engine.stats()
        assert stats.plan_hits == 1 and stats.plan_invalidations == 0

    def test_explicit_invalidate(self, engine, rng):
        with configured(base_case_elements=64):
            engine.matmul_ata(rng.standard_normal((48, 32)))
            dropped = engine.plans.invalidate()
        assert dropped == 1
        assert engine.stats().cached_plans == 0

    def test_lru_eviction(self, rng):
        engine = ExecutionEngine(plan_capacity=2)
        with configured(base_case_elements=64):
            for n in (30, 31, 32):
                engine.matmul_ata(rng.standard_normal((40, n)))
        stats = engine.stats()
        assert stats.cached_plans == 2
        assert stats.plan_evictions == 1

    def test_small_shapes_dispatch_to_syrk_plan(self, engine, rng):
        a = rng.standard_normal((8, 8))  # fits the default base case
        engine.matmul_ata(a)
        (plan,) = engine.plans.snapshot()
        assert plan.algo == "syrk"
        assert not plan.needs_workspace

    def test_unknown_algorithm_rejected(self, engine, rng):
        with pytest.raises(ShapeError):
            engine.matmul_ata(rng.standard_normal((8, 8)), algo="strassen2")
        with pytest.raises(ShapeError):
            engine.matmul_atb(rng.standard_normal((8, 8)),
                              rng.standard_normal((8, 8)), algo="nope")

    def test_mixed_dtype_atb_rejected(self, engine, rng):
        """The direct path raises DTypeError at the first base-case kernel;
        the engine must enforce the same contract up front rather than
        silently computing through a reduced-precision workspace."""
        from repro.errors import DTypeError
        a = rng.standard_normal((40, 20)).astype(np.float32)
        b = rng.standard_normal((40, 24))  # float64
        with pytest.raises(DTypeError):
            engine.matmul_atb(a, b)
        # a mismatched output C is the same mistake, refused alike by both ops
        a64 = a.astype(np.float64)
        with pytest.raises(DTypeError):
            engine.matmul_ata(a64, np.zeros((20, 20), dtype=np.float32))
        with pytest.raises(DTypeError):
            engine.matmul_atb(a64, b, np.zeros((20, 24), dtype=np.float32))


class TestWorkspacePool:
    def test_warm_calls_do_not_allocate(self, engine, rng):
        a = rng.standard_normal((64, 64))
        with configured(base_case_elements=64):
            engine.matmul_ata(a)
            assert engine.stats().pool_allocations == 1
            for _ in range(5):
                engine.matmul_ata(a)
            stats = engine.stats()
            assert stats.pool_allocations == 1
            assert stats.pool_reuses == 5
            assert stats.pool_idle == 1

    def test_pool_serves_compatible_smaller_problem(self, engine, rng):
        with configured(base_case_elements=64):
            engine.matmul_ata(rng.standard_normal((96, 96)))
            engine.matmul_ata(rng.standard_normal((64, 64)))
        stats = engine.stats()
        # the workspace sized for 96x96 can serve the smaller problem
        assert stats.pool_allocations == 1
        assert stats.pool_reuses == 1

    def test_pool_bounded(self, rng):
        engine = ExecutionEngine(pool_size=1)
        with configured(base_case_elements=64):
            cs = engine.run_batch([rng.standard_normal((64, 64))
                                   for _ in range(3)])
        assert len(cs) == 3
        assert engine.stats().pool_idle <= 1

    def test_clear_drops_plans_and_workspaces(self, engine, rng):
        with configured(base_case_elements=64):
            engine.matmul_ata(rng.standard_normal((64, 64)))
            engine.clear()
            stats = engine.stats()
            assert stats.cached_plans == 0 and stats.pool_idle == 0
            engine.matmul_ata(rng.standard_normal((64, 64)))
        assert engine.stats().pool_allocations == 2


class TestBatch:
    def test_batch_equals_loop(self, engine, rng):
        mats = [rng.standard_normal((52, 36)) for _ in range(4)]
        with configured(base_case_elements=64):
            loop = [ExecutionEngine().matmul_ata(m) for m in mats]
            batch = engine.run_batch(mats)
        for expected, got in zip(loop, batch):
            assert np.array_equal(expected, got)

    def test_homogeneous_batch_compiles_once(self, engine, rng):
        mats = [rng.standard_normal((52, 36)) for _ in range(6)]
        with configured(base_case_elements=64):
            engine.run_batch(mats)
        stats = engine.stats()
        assert stats.plan_misses == 1 and stats.plan_hits == 5
        assert stats.pool_allocations == 1  # one workspace for the whole batch

    def test_mixed_shape_batch(self, engine, rng):
        mats = [rng.standard_normal((52, 36)), rng.standard_normal((40, 40)),
                rng.standard_normal((52, 36))]
        with configured(base_case_elements=64):
            batch = engine.run_batch(mats)
        for a, c in zip(mats, batch):
            assert np.allclose(np.tril(c), np.tril(a.T @ a))

    def test_empty_batch(self, engine):
        assert engine.run_batch([]) == []

    def test_batch_rejects_unknown_algo(self, engine, rng):
        with pytest.raises(ShapeError):
            engine.run_batch([rng.standard_normal((8, 8))], algo="strassen")


class TestCompilePlan:
    def test_plan_records_workspace_requirement(self):
        model = CacheModel(capacity_words=64)
        plan = compile_plan("ata", (64, 64), np.float64, model)
        assert plan.needs_workspace
        assert plan.requirement.total_elements > 0
        assert plan.n_steps > 0

    def test_fitting_shape_compiles_to_single_syrk(self):
        model = CacheModel(capacity_words=4096)
        plan = compile_plan("ata", (16, 16), np.float64, model)
        assert plan.n_steps == 1 and not plan.needs_workspace

    def test_unknown_kind_rejected(self):
        with pytest.raises(ShapeError):
            compile_plan("magic", (8, 8), np.float64, CacheModel(64))


class TestBackendStats:
    """EngineStats carries per-backend run counts and dispatch reasons."""

    def test_backend_runs_counted_per_backend(self, engine, rng):
        a = rng.standard_normal((48, 32))
        b = rng.standard_normal((48, 20))
        with configured(base_case_elements=64):
            engine.matmul_ata(a)                      # auto -> ata
            engine.matmul_ata(a, algo="tiled")
            engine.matmul_ata(a, algo="tiled")
            engine.matmul_atb(a, b)                   # auto -> strassen
        stats = engine.stats()
        assert stats.backend_runs["ata"] == 1
        assert stats.backend_runs["tiled"] == 2
        assert stats.backend_runs["strassen"] == 1
        assert stats.total_backend_runs == 4

    def test_small_auto_counts_as_syrk_backend(self, engine, rng):
        engine.matmul_ata(rng.standard_normal((8, 8)))  # fits the base case
        assert engine.stats().backend_runs == {"syrk": 1}

    def test_batch_counts_every_entry(self, engine, rng):
        with configured(base_case_elements=64):
            engine.run_batch([rng.standard_normal((52, 36)) for _ in range(3)])
        assert engine.stats().backend_runs == {"ata": 3}

    @pytest.mark.parametrize("route, reason", [
        ("explicit", "explicit"),
        ("heuristic", "heuristic"),
    ])
    def test_dispatch_reason_per_route(self, rng, route, reason):
        """Every resolution route counts its last call under its reason."""
        a = rng.standard_normal((64, 64))
        with configured(base_case_elements=64):
            engine = ExecutionEngine()
            before = engine.stats().dispatch_reasons
            engine.matmul_ata(a, algo="tiled" if route == "explicit" else "auto")
        after = engine.stats()
        assert {k: v - before.get(k, 0)
                for k, v in after.dispatch_reasons.items()
                if v != before.get(k, 0)} == {reason: 1}
        assert sum(after.dispatch_reasons.values()) == after.total_backend_runs


class TestBackendProtocol:
    def test_every_registered_run_matches_the_protocol(self):
        """Every registered backend's ``run`` takes exactly the parameters
        of ``Backend.run``.  Without scipy the structured backends never
        execute, so this is the only check of their signatures there."""
        import inspect

        from repro.engine.backends import Backend, backend_names, get_backend

        protocol = inspect.signature(Backend.run)
        expected = [(p.name, p.kind) for p in protocol.parameters.values()]
        for name in backend_names():
            run = inspect.signature(type(get_backend(name)).run)
            got = [(p.name, p.kind) for p in run.parameters.values()]
            assert got == expected, (name, str(run), str(protocol))


class TestModuleLevelFrontend:
    def test_default_engine_is_shared(self):
        assert default_engine() is default_engine()

    def test_module_functions_route_through_default_engine(self, rng):
        a = rng.standard_normal((20, 12))
        b = rng.standard_normal((20, 8))
        assert np.allclose(np.tril(matmul_ata(a)), np.tril(a.T @ a))
        assert np.allclose(matmul_atb(a, b), a.T @ b)
        (c,) = run_batch([a])
        assert np.allclose(np.tril(c), np.tril(a.T @ a))

    def test_thread_safety_under_shared_engine(self, rng):
        """Concurrent executions check out distinct workspaces."""
        import concurrent.futures

        engine = ExecutionEngine()
        a = rng.standard_normal((96, 96))
        with configured(base_case_elements=64):
            expected = ata(a.copy())
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda _: engine.matmul_ata(a), range(16)))
        for got in results:
            assert np.array_equal(expected, got)


class TestPoolAccounting:
    def test_acquire_release_tracks_bytes(self, rng):
        with configured(base_case_elements=64):
            model = CacheModel(capacity_words=64)
            plan = compile_plan("ata", (96, 64), np.float64, model,
                                lanes=1, build_dag=False)
            pool = WorkspacePool()
            assert pool.footprint() == 0
            ws = pool.acquire(plan, np.float64)
            nbytes = ws.total_elements * np.dtype(np.float64).itemsize
            assert pool.footprint() == nbytes
            assert pool.bytes_high_water == nbytes
            pool.release(ws)
            assert pool.footprint() == nbytes  # idle now, still resident
            pool.trim(0)
            assert pool.footprint() == 0
            assert pool.trims == 1
            assert pool.bytes_high_water == nbytes  # high water is sticky

    def test_trim_evicts_largest_first(self, rng):
        with configured(base_case_elements=64):
            model = CacheModel(capacity_words=64)
            pool = WorkspacePool()
            sizes = {}
            for shape in [(48, 32), (96, 64)]:
                plan = compile_plan("ata", shape, np.float64, model,
                                    lanes=1, build_dag=False)
                ws = pool.acquire(plan, np.float64)
                sizes[shape] = ws.total_elements * 8
                pool.release(ws)
            keep = sizes[(48, 32)]
            dropped = pool.trim(keep)
            assert dropped == 1
            assert pool.idle_sizes() == [sizes[(48, 32)] // 8]

    def test_foreign_release_clamps_at_zero(self):
        pool = WorkspacePool()
        ws = StrassenWorkspace(16, 16, 16, dtype=np.float64)
        pool.release(ws)  # never acquired here: must not go negative
        assert pool.footprint() >= 0
        assert pool._bytes_in_use == 0

    def test_engine_stats_surface_pool_high_water(self, rng):
        with configured(base_case_elements=64):
            eng = ExecutionEngine()
            eng.matmul_ata(rng.standard_normal((96, 64)))
            assert eng.stats().pool_bytes_high > 0
