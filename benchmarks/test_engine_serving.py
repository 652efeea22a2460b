"""Benchmark: coalescing effectiveness of the asyncio serving front-end.

Acceptance criterion of ISSUE 4: with many concurrent same-shape clients,
the engine's ``run_batch`` calls must carry a mean batch size > 1 and the
plan cache must serve ≥ 90% of lookups after warm-up.  Both effects are
structural (event-loop batching), not timing-dependent, so they are
asserted unconditionally — including on the single-core container; the
registered ``engine_serving`` experiment reports the same distributions
through ``repro-bench``.

The ``benchmark``-fixture microbenchmarks at the bottom carry the
``engine_serving`` group into the CI regression-compare JSON (ISSUE 5
widened the compared set beyond the engine microbenchmarks;
``scripts/compare_bench.py --group engine_serving`` selects them).
"""

import asyncio

import numpy as np
import pytest

from repro.bench.harness import run_experiment
from repro.bench.workloads import random_matrix
from repro.config import configured
from repro.engine import ExecutionEngine
from repro.serve import Server

pytestmark = pytest.mark.timeout(300)


class TestCoalescingDistribution:
    def test_experiment_reports_coalescing_and_warm_plans(self):
        (table,) = run_experiment("engine_serving", clients=(12,), n=96,
                                  max_batch=4, base_case_elements=256)
        (record,) = table.as_records()
        assert record["mean_batch"] > 1.0
        assert record["max_batch"] <= 4
        assert record["plan_hit_rate"] >= 0.90
        # 12 clients behind a warm-up single: 1x1 + 3 full batches of 4
        assert record["batches"] >= 2

    def test_served_wave_bit_identical_and_batched(self):
        """The acceptance demonstration end to end: a concurrent wave is
        bit-identical to direct engine calls *and* visibly coalesced."""
        mats = [random_matrix(96, 96, seed=i) for i in range(24)]

        async def wave():
            engine = ExecutionEngine()
            async with Server(engine, max_batch=8) as server:
                await server.submit(mats[0])  # warm-up compile
                results = await asyncio.gather(
                    *(server.submit(a) for a in mats))
                return results, engine.stats()

        with configured(base_case_elements=256):
            results, estats = asyncio.run(
                asyncio.wait_for(wave(), timeout=120))
            reference = ExecutionEngine()
            for a, c in zip(mats, results):
                assert np.array_equal(c, reference.matmul_ata(a))
        assert estats.mean_batch_size > 1.0
        assert estats.plan_hit_rate >= 0.90


class TestServingOverheadBounded:
    def test_serving_not_catastrophically_slower_than_direct_batch(self):
        """The event loop, queues and executor hop must cost overhead, not
        multiples: a served wave stays within 3x of the same work pushed
        through run_batch directly (generous slack for a loaded runner)."""
        import time

        mats = [random_matrix(96, 96, seed=i) for i in range(16)]

        with configured(base_case_elements=256):
            direct_engine = ExecutionEngine()
            direct_engine.run_batch(mats)  # warm plans + pool
            start = time.perf_counter()
            direct_engine.run_batch(mats)
            direct = time.perf_counter() - start

            async def wave():
                engine = ExecutionEngine()
                async with Server(engine, max_batch=8) as server:
                    await server.submit(mats[0])  # warm
                    start = time.perf_counter()
                    await asyncio.gather(*(server.submit(a) for a in mats))
                    return time.perf_counter() - start

            served = asyncio.run(asyncio.wait_for(wave(), timeout=120))
        assert served < 3.0 * direct + 0.05, (
            f"serving overhead too high: served={served * 1e3:.1f}ms "
            f"direct={direct * 1e3:.1f}ms")


@pytest.mark.benchmark(group="engine_serving")
class TestRegressionTrackingMicrobenchmarks:
    """``benchmark``-fixture timings exported to JSON for the CI compare
    step — the serving group of the widened compared set."""

    @pytest.fixture(scope="class")
    def wave_matrices(self):
        return [random_matrix(96, 96, seed=i) for i in range(16)]

    def test_bench_served_wave(self, benchmark, wave_matrices):
        """One coalesced 16-client wave on a pre-warmed server+engine.

        The loop, server and warm-up compile live *outside* the timed
        callable (one persistent event loop across rounds), so each round
        measures exactly the serving path: admission, coalescing, the
        executor hop and the warm batched execution."""
        loop = asyncio.new_event_loop()
        try:
            with configured(base_case_elements=256):
                engine = ExecutionEngine()

                async def make_server() -> Server:
                    server = Server(engine, max_batch=8)
                    await server.submit(wave_matrices[0])  # warm compile
                    return server

                server = loop.run_until_complete(
                    asyncio.wait_for(make_server(), timeout=60))

                async def wave() -> None:
                    await asyncio.gather(
                        *(server.submit(a) for a in wave_matrices))

                benchmark.pedantic(
                    lambda: loop.run_until_complete(
                        asyncio.wait_for(wave(), timeout=60)),
                    rounds=5, iterations=1, warmup_rounds=1)
                loop.run_until_complete(
                    asyncio.wait_for(server.close(), timeout=60))
        finally:
            loop.close()

    def test_bench_direct_batch_reference(self, benchmark, wave_matrices):
        """The run_batch floor the served wave is compared against."""
        with configured(base_case_elements=256):
            engine = ExecutionEngine()
            engine.run_batch(wave_matrices)  # warm plans + pool
            benchmark.pedantic(lambda: engine.run_batch(wave_matrices),
                               rounds=5, iterations=1, warmup_rounds=1)


@pytest.mark.benchmark(group="serve_net")
class TestWireTierMicrobenchmarks:
    """TCP front-door timings for the CI compare step (group
    ``serve_net``): the loopback round trip prices framing, the
    handshake'd socket hop and result marshalling on top of the
    in-process serving path benchmarked above."""

    @pytest.fixture(scope="class")
    def wave_matrices(self):
        return [random_matrix(96, 96, seed=i) for i in range(16)]

    def test_bench_wire_wave_single_connection(self, benchmark,
                                               wave_matrices):
        """A coalesced 16-request wave over one warm TCP connection.

        Loop, NetServer, client connection and the warm-up compile all
        live outside the timed callable, so each round measures exactly
        the wire path: encode, loopback socket, decode, the in-process
        serving path, and the result frame back."""
        from repro.serve import Client, NetServer

        loop = asyncio.new_event_loop()
        try:
            with configured(base_case_elements=256):
                engine = ExecutionEngine()

                async def make_net():
                    net = NetServer(engine=engine, max_batch=8)
                    await net.start()
                    client = Client(port=net.port)
                    await client.connect()
                    await client.submit(wave_matrices[0])  # warm compile
                    return net, client

                net, client = loop.run_until_complete(
                    asyncio.wait_for(make_net(), timeout=60))

                async def wave() -> None:
                    await asyncio.gather(
                        *(client.submit(a) for a in wave_matrices))

                benchmark.pedantic(
                    lambda: loop.run_until_complete(
                        asyncio.wait_for(wave(), timeout=60)),
                    rounds=5, iterations=1, warmup_rounds=1)

                async def teardown():
                    await client.aclose()
                    await net.close()

                loop.run_until_complete(
                    asyncio.wait_for(teardown(), timeout=60))
        finally:
            loop.close()
