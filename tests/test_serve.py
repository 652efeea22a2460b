"""Bit-identity suite for the asyncio serving front-end (:mod:`repro.serve`).

The serving layer's contract is the engine's, transported: every result a
client receives through ``Server.submit`` must be ``np.array_equal`` to
the corresponding direct :class:`~repro.engine.ExecutionEngine` call —
for every algorithm, operation and dtype, and under concurrent clients
whose requests coalesce into shared batches.  The suite also asserts the
point of the layer: with many concurrent same-shape clients, batches
carry more than one request on average and the plan cache serves ≥ 90%
of lookups after warm-up.

Every asyncio entry point runs under a double timeout: an inner
``asyncio.wait_for`` deadline and the repo's ``@pytest.mark.timeout``
SIGALRM backstop (see ``conftest.py``), so a deadlocked loop fails fast
instead of hanging the job.
"""

import asyncio
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.model import default_cache_model
from repro.config import configured
from repro.engine import ExecutionEngine
from repro.engine.backends import get_backend
from repro.serve import Server, queue_key
from repro.serve.queues import shape_bucket

pytestmark = pytest.mark.timeout(120)

#: inner deadline for every awaited scenario — well under the marker's
WAIT = 60.0


def run(coro, timeout: float = WAIT):
    """Drive one scenario on a fresh loop with a hard inner deadline."""
    async def _capped():
        return await asyncio.wait_for(coro, timeout=timeout)
    return asyncio.run(_capped())


def _supported(op, shape, dtype, algo) -> bool:
    if algo == "auto":
        return True
    backend = get_backend(algo, op)
    return backend.supports(op, shape, dtype, default_cache_model(dtype))


@pytest.fixture
def rng():
    return np.random.default_rng(0x5E12E)


class TestBitIdentity:
    """Served results equal direct engine calls, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("algo", ["auto", "syrk", "ata", "tiled",
                                      "recursive_gemm", "blas_direct"])
    def test_ata_all_algos_dtypes(self, rng, algo, dtype):
        shape = (72, 40)
        if not _supported("ata", shape, dtype, algo):
            pytest.skip(f"backend {algo!r} unavailable for {np.dtype(dtype)}")
        mats = [rng.standard_normal(shape).astype(dtype) for _ in range(6)]

        async def scenario():
            async with Server(ExecutionEngine()) as server:
                return await asyncio.gather(
                    *(server.submit(a, algo=algo) for a in mats))

        with configured(base_case_elements=64):
            served = run(scenario())
            reference = ExecutionEngine()
            for a, c in zip(mats, served):
                assert np.array_equal(c, reference.matmul_ata(a, algo=algo))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("algo", ["auto", "strassen", "recursive_gemm",
                                      "blas_direct"])
    def test_atb_all_algos_dtypes(self, rng, algo, dtype):
        shape = (48, 28, 20)
        if not _supported("atb", shape, dtype, algo):
            pytest.skip(f"backend {algo!r} unavailable for {np.dtype(dtype)}")
        pairs = [(rng.standard_normal(shape[:2]).astype(dtype),
                  rng.standard_normal((shape[0], shape[2])).astype(dtype))
                 for _ in range(6)]

        async def scenario():
            async with Server(ExecutionEngine()) as server:
                return await asyncio.gather(
                    *(server.submit(a, "atb", b, algo=algo) for a, b in pairs))

        with configured(base_case_elements=64):
            served = run(scenario())
            reference = ExecutionEngine()
            for (a, b), c in zip(pairs, served):
                assert np.array_equal(c, reference.matmul_atb(a, b, algo=algo))

    def test_alpha_and_mixed_shapes(self, rng):
        """Heterogeneous concurrent traffic: shapes, alphas and ops mixed."""
        mats = [rng.standard_normal((m, n))
                for m, n in [(33, 17), (64, 64), (65, 33), (96, 40), (7, 7)]]
        pairs = [(rng.standard_normal((45, 23)), rng.standard_normal((45, 31)))]

        async def scenario():
            async with Server(ExecutionEngine()) as server:
                ata = [server.submit(a, alpha=2.5) for a in mats]
                atb = [server.submit(a, "atb", b, alpha=0.5) for a, b in pairs]
                return await asyncio.gather(*ata, *atb)

        with configured(base_case_elements=64):
            results = run(scenario())
            reference = ExecutionEngine()
            for a, c in zip(mats, results[:len(mats)]):
                assert np.array_equal(c, reference.matmul_ata(a, alpha=2.5))
            for (a, b), c in zip(pairs, results[len(mats):]):
                assert np.array_equal(c, reference.matmul_atb(a, b, alpha=0.5))

    def test_dag_capable_engine_bit_identity(self, rng):
        """Serving through a DAG-scheduling engine changes nothing: the
        DAG executor retires conflicting steps in plan order."""
        mats = [rng.standard_normal((96, 48)) for _ in range(8)]

        async def scenario(engine):
            async with Server(engine) as server:
                return await asyncio.gather(*(server.submit(a) for a in mats))

        with configured(base_case_elements=64):
            engine = ExecutionEngine(workers=2, parallel="dag")
            served = run(scenario(engine))
            reference = ExecutionEngine()
            for a, c in zip(mats, served):
                assert np.array_equal(c, reference.matmul_ata(a))

    @settings(max_examples=15, deadline=None)
    @given(m=st.integers(min_value=1, max_value=40),
           n=st.integers(min_value=1, max_value=40),
           op=st.sampled_from(["ata", "atb"]))
    def test_hypothesis_shape_sweep(self, m, n, op):
        rng = np.random.default_rng(m * 1009 + n * 31 + (op == "atb"))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal((m, max(1, n // 2))) if op == "atb" else None

        async def scenario():
            async with Server(ExecutionEngine()) as server:
                return await asyncio.gather(
                    *(server.submit(a, op, b) for _ in range(3)))

        with configured(base_case_elements=64):
            served = run(scenario())
            reference = ExecutionEngine()
            expected = (reference.matmul_ata(a) if op == "ata"
                        else reference.matmul_atb(a, b))
            for c in served:
                assert np.array_equal(c, expected)
                assert c.dtype == expected.dtype


class TestConcurrencyStress:
    def test_many_clients_many_shapes(self, rng):
        """A swarm of clients over a handful of shapes: every result
        correct, every counter reconciled, nothing deadlocks."""
        shapes = [(64, 32), (48, 48), (33, 17)]
        mats = [rng.standard_normal(shapes[i % len(shapes)])
                for i in range(120)]
        # thread-count choices follow the host: a multi-worker executor on
        # a single-core container would only add contention
        workers = min(4, os.cpu_count() or 1)

        async def scenario():
            engine = ExecutionEngine()
            async with Server(engine, max_batch=8, max_inflight=512,
                              workers=workers) as server:
                results = await asyncio.gather(
                    *(server.submit(a) for a in mats))
                return results, server.stats(), engine.stats()

        with configured(base_case_elements=64):
            results, stats, estats = run(scenario(), timeout=WAIT)
            reference = ExecutionEngine()
            for a, c in zip(mats, results):
                assert np.array_equal(c, reference.matmul_ata(a))
        assert stats.submitted == len(mats)
        assert stats.completed == len(mats)
        assert stats.failed == stats.rejected == stats.cancelled == 0
        assert stats.inflight == 0 and stats.depth == 0
        assert stats.submitted == stats.accounted
        assert stats.batched_requests == len(mats)
        assert estats.batch_items == len(mats)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="multi-worker executor assertions need >= 2 "
                               "cores (single-core hosts run one batch at "
                               "a time regardless)")
    def test_multi_worker_executor_still_bit_identical(self, rng):
        """With real cores, distinct batches overlap on executor threads;
        results must not change."""
        mats = [rng.standard_normal((96, 48)) for _ in range(32)]

        async def scenario():
            async with Server(ExecutionEngine(), max_batch=4,
                              workers=2) as server:
                return await asyncio.gather(*(server.submit(a) for a in mats))

        with configured(base_case_elements=64):
            served = run(scenario())
            reference = ExecutionEngine()
            for a, c in zip(mats, served):
                assert np.array_equal(c, reference.matmul_ata(a))


class TestCoalescing:
    def test_same_shape_clients_coalesce_and_share_plans(self, rng):
        """The acceptance demonstration: many concurrent same-shape
        clients produce mean batch size > 1 on the engine's batch entry
        point and a plan-cache hit rate ≥ 90% after warm-up."""
        a_warm = rng.standard_normal((96, 48))
        mats = [rng.standard_normal((96, 48)) for _ in range(32)]

        async def scenario():
            engine = ExecutionEngine()
            async with Server(engine, max_batch=8) as server:
                await server.submit(a_warm)  # warm-up: compiles the plan
                results = await asyncio.gather(
                    *(server.submit(a) for a in mats))
                return results, server.stats(), engine.stats()

        with configured(base_case_elements=64):
            results, stats, estats = run(scenario())
            reference = ExecutionEngine()
            for a, c in zip(mats, results):
                assert np.array_equal(c, reference.matmul_ata(a))
        # coalescing: the engine saw few, large run_batch calls
        assert estats.batch_calls >= 1
        assert estats.mean_batch_size > 1.0
        assert stats.mean_batch_size > 1.0
        assert stats.max_batch_size > 1
        # warm plans: one compile on warm-up, hits from there on
        assert estats.plan_hit_rate >= 0.90
        assert sum(size * count
                   for size, count in stats.size_histogram.items()
                   ) == stats.batched_requests

    def test_incompatible_requests_never_share_a_batch(self, rng):
        """dtype / algo / alpha / op are part of the coalescing key."""
        a64 = rng.standard_normal((64, 32))
        a32 = a64.astype(np.float32)
        b = rng.standard_normal((64, 16))

        async def scenario():
            async with Server(ExecutionEngine()) as server:
                await asyncio.gather(
                    server.submit(a64),
                    server.submit(a32),
                    server.submit(a64, algo="tiled"),
                    server.submit(a64, alpha=2.0),
                    server.submit(a64, "atb", b),
                )
                return server.stats()

        with configured(base_case_elements=64):
            stats = run(scenario())
        assert len(stats.queues) == 5
        for snap in stats.queues.values():
            assert snap.batches == 1 and snap.batched_requests == 1

    def test_queue_key_buckets_by_power_of_two(self):
        assert queue_key("ata", "auto", np.float64, (96, 48), 1.0) == \
            queue_key("ata", "auto", np.float64, (100, 60), 1.0)
        assert queue_key("ata", "auto", np.float64, (96, 48), 1.0) != \
            queue_key("ata", "auto", np.float64, (200, 48), 1.0)
        assert queue_key("ata", "auto", np.float64, (96, 48), 1.0) != \
            queue_key("ata", "auto", np.float32, (96, 48), 1.0)

    def test_shape_bucket_powers_of_two(self):
        assert shape_bucket((1, 1)) == (1, 1)
        assert shape_bucket((64, 64)) == (64, 64)
        assert shape_bucket((65, 33)) == (128, 64)
        assert shape_bucket((100, 3, 17)) == (128, 4, 32)

    def test_wait_and_run_time_accounting(self, rng):
        mats = [rng.standard_normal((64, 32)) for _ in range(12)]

        async def scenario():
            async with Server(ExecutionEngine(), max_batch=4) as server:
                await asyncio.gather(*(server.submit(a) for a in mats))
                return server.stats()

        with configured(base_case_elements=64):
            stats = run(scenario())
        (snap,) = stats.queues.values()
        assert snap.batches >= 3  # 12 requests, batches capped at 4
        assert snap.max_batch_size <= 4
        assert snap.wait_seconds >= 0.0
        assert snap.run_seconds > 0.0
        assert snap.mean_batch_size == pytest.approx(
            snap.batched_requests / snap.batches)
