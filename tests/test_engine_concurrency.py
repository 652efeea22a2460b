"""Concurrent-access coverage for :class:`~repro.engine.pool.WorkspacePool`
and :class:`~repro.engine.cache.PlanCache`.

Both were thread-safe by design but until the serving layer landed were
only *exercised* single-threaded.  These tests hammer them from many
threads — directly, and through the asyncio serving path with a
multi-worker executor — and assert the invariants the serving layer
leans on: a checked-out workspace is never handed to two holders,
eviction/reuse races leave the counters consistent, and every plan-cache
lookup lands in exactly one of hits/misses with all callers of a key
observing the same immutable plan instance.
"""

import asyncio
import sys
import threading

import numpy as np
import pytest

from repro.cache.model import default_cache_model
from repro.config import configured
from repro.engine import ExecutionEngine, PlanCache, WorkspacePool, compile_plan
from repro.serve import Server

pytestmark = pytest.mark.timeout(120)

N_THREADS = 8
ROUNDS = 40


def _hammer(worker, n_threads=N_THREADS):
    """Run ``worker(index)`` in ``n_threads`` threads; re-raise failures."""
    errors = []

    def _guarded(index):
        try:
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - reported to pytest
            errors.append(exc)

    threads = [threading.Thread(target=_guarded, args=(i,))
               for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def _plan(shape, lanes=1):
    model = default_cache_model(np.float64)
    key = ("ata", "ata", shape, np.dtype(np.float64).str,
           model.capacity_words, model.line_words, lanes)
    return compile_plan("ata", shape, np.float64, model, key=key, lanes=lanes)


class TestPlanCacheConcurrency:
    def test_all_threads_observe_one_instance_per_key(self):
        """Racing compiles on a cold key: first insert wins, every caller
        gets the cached instance (no capacity pressure here)."""
        shapes = [(96, 48), (96, 49), (97, 48), (64, 64)]
        with configured(base_case_elements=64):
            cache = PlanCache(capacity=16)
            seen = {shape: set() for shape in shapes}
            lock = threading.Lock()

            def worker(index):
                for round_ in range(ROUNDS):
                    shape = shapes[(index + round_) % len(shapes)]
                    plan = cache.get_or_compile(
                        ("k", shape), lambda s=shape: _plan(s))
                    with lock:
                        seen[shape].add(id(plan))

            _hammer(worker)
        for shape, ids in seen.items():
            assert len(ids) == 1, f"multiple live instances for {shape}"
        assert cache.hits + cache.misses == N_THREADS * ROUNDS
        assert cache.evictions == 0
        assert len(cache) == len(shapes)

    def test_eviction_churn_keeps_stats_stable(self):
        """More keys than capacity, from many threads: the LRU bound holds
        and the counters stay mutually consistent."""
        shapes = [(40 + i, 20) for i in range(5)]
        with configured(base_case_elements=64):
            cache = PlanCache(capacity=3)

            def worker(index):
                for round_ in range(ROUNDS // 2):
                    shape = shapes[(index * 7 + round_) % len(shapes)]
                    plan = cache.get_or_compile(
                        ("k", shape), lambda s=shape: _plan(s))
                    assert plan.shape == shape

            _hammer(worker)
        assert len(cache) <= 3
        assert cache.hits + cache.misses == N_THREADS * (ROUNDS // 2)
        # every eviction removed something a miss inserted; racing compiles
        # may discard duplicates without inserting, hence <=
        assert len(cache) + cache.evictions <= cache.misses
        assert cache.invalidations == 0

    def test_concurrent_config_invalidation_never_serves_stale_plans(self):
        """Threads flipping between two configurations must always get a
        plan compiled under the active one (the fingerprint check runs
        inside the cache's lock)."""
        shape = (96, 48)
        cache = PlanCache(capacity=8)

        def worker(index):
            base = 64 if index % 2 == 0 else 128
            with configured(base_case_elements=base):
                for _ in range(ROUNDS // 2):
                    plan = cache.get_or_compile(
                        ("k", shape, base), lambda: _plan(shape))
                    assert plan.shape == shape

        _hammer(worker)
        assert cache.hits + cache.misses == N_THREADS * (ROUNDS // 2)


class TestWorkspacePoolConcurrency:
    def test_checked_out_workspaces_are_never_shared(self):
        with configured(base_case_elements=64):
            plan = _plan((96, 48))
            assert plan.needs_workspace
            pool = WorkspacePool(max_idle=4)
            held_ids = set()
            lock = threading.Lock()
            acquires = [0]

            def worker(index):
                for _ in range(ROUNDS):
                    ws = pool.acquire(plan, np.float64)
                    assert ws is not None
                    with lock:
                        assert id(ws) not in held_ids, "workspace shared!"
                        held_ids.add(id(ws))
                        acquires[0] += 1
                    with lock:
                        held_ids.discard(id(ws))
                    pool.release(ws)

            _hammer(worker)
        assert pool.allocations + pool.reuses == acquires[0]
        assert pool.idle_count <= 4

    def test_mixed_size_churn_reconciles_eviction_accounting(self):
        """Best-fit acquire + evict-smaller-on-release under threads: the
        idle count must equal releases minus drops/evictions/reuses."""
        with configured(base_case_elements=64):
            plans = [_plan((96, 48)), _plan((128, 96)), _plan((192, 128))]
            assert all(p.needs_workspace for p in plans)
            pool = WorkspacePool(max_idle=2)
            counts = {"acquires": 0, "releases": 0}
            lock = threading.Lock()

            def worker(index):
                for round_ in range(ROUNDS):
                    plan = plans[(index + round_) % len(plans)]
                    ws = pool.acquire(plan, np.float64)
                    assert ws.can_serve(plan.requirement)
                    with lock:
                        counts["acquires"] += 1
                    pool.release(ws)
                    with lock:
                        counts["releases"] += 1

            _hammer(worker)
        assert pool.allocations + pool.reuses == counts["acquires"]
        # every release is retained (idle), dropped, or replaces an evicted
        # workspace; every reuse removes one from idle — so the idle list
        # length is fully determined by the counters
        assert pool.idle_count == (counts["releases"] - pool.drops
                                   - pool.evictions - pool.reuses)
        assert pool.idle_count <= 2


class TestServingPathConcurrency:
    """The pool and cache as the serving layer actually drives them:
    multiple executor threads calling ``run_batch`` on one engine."""

    def test_concurrent_batches_share_pool_and_cache_safely(self):
        rng = np.random.default_rng(0xC0CC)
        shapes = [(96, 48), (64, 64), (96, 49), (48, 48)]
        mats = [rng.standard_normal(shapes[i % len(shapes)])
                for i in range(32)]

        async def scenario():
            engine = ExecutionEngine(plan_capacity=3, pool_size=2)
            async with Server(engine, max_batch=4, workers=4) as server:
                results = await asyncio.gather(
                    *(server.submit(a) for a in mats))
                return results, engine

        with configured(base_case_elements=64):
            results, engine = run_async(scenario())
            reference = ExecutionEngine()
            for a, c in zip(mats, results):
                assert np.array_equal(c, reference.matmul_ata(a))
        stats = engine.stats()
        assert stats.cached_plans <= 3
        assert stats.pool_idle <= 2
        assert stats.plan_hits + stats.plan_misses >= len(mats)
        assert stats.pool_allocations + stats.pool_reuses >= 1
        assert stats.batch_items == len(mats)

    def test_direct_threads_through_engine_match_serving_semantics(self):
        """Raw threads on one engine (what executor workers are) stay
        bit-identical and keep the shared pool/cache stats coherent."""
        rng = np.random.default_rng(0xD1CE)
        a = rng.standard_normal((96, 48))
        with configured(base_case_elements=64):
            engine = ExecutionEngine(plan_capacity=4, pool_size=2)
            expected = ExecutionEngine().matmul_ata(a)
            outputs = []
            lock = threading.Lock()

            def worker(index):
                for _ in range(10):
                    c = engine.matmul_ata(a)
                    with lock:
                        outputs.append(c)

            _hammer(worker, n_threads=6)
            for c in outputs:
                assert np.array_equal(c, expected)
        stats = engine.stats()
        assert stats.plan_hits + stats.plan_misses == 60
        assert stats.plan_misses >= 1
        assert stats.pool_allocations + stats.pool_reuses == 60
        # one backend run and one dispatch reason per call
        assert stats.total_backend_runs == 60
        assert sum(stats.dispatch_reasons.values()) == 60

    def test_counter_tally_loses_no_update(self):
        """Tally updates are read-modify-writes; with threads switching
        every microsecond, an unlocked update would drop counts."""
        engine = ExecutionEngine()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _hammer(lambda _: [engine.run_batch([]) for _ in range(2000)],
                    n_threads=6)
        finally:
            sys.setswitchinterval(interval)
        stats = engine.stats()
        assert stats.batch_calls == 6 * 2000
        assert stats.batch_items == 0


def run_async(coro, timeout: float = 60.0):
    async def _capped():
        return await asyncio.wait_for(coro, timeout=timeout)
    return asyncio.run(_capped())
