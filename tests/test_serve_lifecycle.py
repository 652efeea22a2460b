"""The one serving request lifecycle: admit -> route -> execute -> settle.

Both request kinds — a dense submit (coalesced route) and a CSR submit
(direct route) — pass through the same admission prologue and the same
settlement, so the refusal, fairness, deadline and ledger rules are one
contract:

* a submit after ``close()`` raises :class:`ServerClosedError` and adds
  nothing to the ledger;
* a negative timeout raises :class:`ConfigurationError` before admission;
* a client over its fair share gets :class:`FairnessError`, booked as
  ``rejected``;
* an expired deadline is booked as ``expired`` and frees its slot;
* ``submitted == completed + failed + rejected + cancelled + expired``
  after each of these.

The suite also pins the operand rules shared by the engine and the
server (one error type for one malformed request, on every surface), the
wire's handling of a malformed ``submit`` header, and the demand-driven
dispatch rule of the coalesced route: a queue dispatches as soon as an
executor worker is free, holds while every worker is busy, and a freed
worker serves the key whose oldest live request has waited longest —
also when direct-route traffic keeps every worker busy.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.engine import HAVE_SCIPY, ExecutionEngine
from repro.errors import (
    ConfigurationError,
    DeadlineError,
    DTypeError,
    FairnessError,
    ServerClosedError,
)
from repro.serve import Client, NetServer, PROTOCOL_VERSION, Server
from repro.serve.protocol import (
    encode_frame,
    pack_array,
    read_frame,
    unpack_array,
)

pytestmark = pytest.mark.timeout(120)

WAIT = 60.0

needs_scipy = pytest.mark.skipif(not HAVE_SCIPY, reason="needs scipy")


def run(coro, timeout: float = WAIT):
    async def _capped():
        return await asyncio.wait_for(coro, timeout=timeout)
    return asyncio.run(_capped())


@pytest.fixture
def rng():
    return np.random.default_rng(0x11FEC)


def _reconciled(stats) -> bool:
    return (stats.submitted
            == stats.completed + stats.failed + stats.rejected
            + stats.cancelled + stats.expired)


def _csr(rng, m, n, dtype=np.float64):
    import scipy.sparse
    return scipy.sparse.random(m, n, density=0.2, format="csr",
                               dtype=dtype, random_state=rng)


def _operand(kind, rng):
    """One fresh ``a`` of ``kind``: a dense array or a CSR matrix."""
    if kind == "dense":
        return rng.standard_normal((64, 16))
    return _csr(rng, 64, 16)


KINDS = ["dense", pytest.param("csr", marks=needs_scipy)]


@pytest.mark.parametrize("kind", KINDS)
def test_request_kinds_share_one_contract(kind, rng, gated_engine):
    a = _operand(kind, rng)

    def submit(server, **kw):
        return server.submit(a, **kw)

    async def scenario():
        engine = gated_engine
        # fair_share 0.25 of 4 slots: one in-flight request per client
        server = Server(engine, max_inflight=4, fair_share=0.25)
        try:
            with pytest.raises(ConfigurationError):
                await submit(server, timeout=-1.0, client="c")
            stats = server.stats()
            assert stats.submitted == 0 and _reconciled(stats)

            engine.gate.clear()
            holder = asyncio.ensure_future(submit(server, client="c"))
            while server.stats().inflight == 0:
                await asyncio.sleep(0)
            with pytest.raises(FairnessError):
                await submit(server, client="c")
            engine.gate.set()
            await holder
            stats = server.stats()
            assert stats.rejected == 1
            assert stats.clients["c"].rejected == 1
            assert stats.clients["c"].completed == 1
            assert _reconciled(stats)

            engine.gate.clear()
            with pytest.raises(DeadlineError):
                await submit(server, timeout=0.05, client="d")
            stats = server.stats()
            assert stats.expired == 1 and stats.clients["d"].expired == 1
            assert stats.inflight == 0 and _reconciled(stats)
            engine.gate.set()
            # the freed slot admits the client's next request
            await submit(server, client="d")
        finally:
            engine.gate.set()
            await server.close()
        before = server.stats()
        with pytest.raises(ServerClosedError):
            await submit(server, client="c")
        after = server.stats()
        assert after.submitted == before.submitted
        assert after.clients["c"] == before.clients["c"]
        assert _reconciled(after)

    run(scenario())


@needs_scipy
def test_structured_atb_dtype_mismatch_raises_one_type_everywhere(rng):
    """A CSR float64 ``A`` with a float32 ``B``: the engine, the
    in-process server and the wire client all refuse it with the same
    :class:`DTypeError`, because they share one operand validator."""
    a = _csr(rng, 40, 12)
    b = np.ones((40, 3), dtype=np.float32)
    raised = []
    engine = ExecutionEngine()
    with pytest.raises(DTypeError) as exc_info:
        engine.matmul_atb(a, b)
    raised.append(exc_info.type)
    engine.close()

    async def scenario():
        async with NetServer() as net:
            with pytest.raises(DTypeError) as exc_info:
                await net.server.submit(a, "atb", b)
            raised.append(exc_info.type)
            async with Client(port=net.port) as client:
                with pytest.raises(DTypeError) as exc_info:
                    await client.submit(a, "atb", b)
                raised.append(exc_info.type)
            stats = net.server.stats()
            assert stats.submitted == 0

    run(scenario())
    assert raised == [DTypeError] * 3


def test_bad_submit_fields_get_a_typed_reply(rng):
    """A ``submit`` frame whose ``alpha`` is not a number gets a typed
    error frame with its id; the connection stays up and its next
    ``submit`` is served."""
    a = rng.standard_normal((24, 8))

    async def scenario():
        async with NetServer(max_inflight=4) as net:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", net.port)
            writer.write(encode_frame(
                {"op": "hello", "version": PROTOCOL_VERSION,
                 "encodings": ["json"]}))
            await writer.drain()
            await read_frame(reader)  # hello reply
            meta, raw = pack_array(a)
            writer.write(encode_frame(
                {"op": "submit", "id": 1, "req_op": "ata",
                 "alpha": "not-a-number", **meta}, raw))
            await writer.drain()
            header, _ = await read_frame(reader)
            assert header["op"] == "error" and header["id"] == 1
            assert header["error"] == "ConfigurationError"
            assert "alpha" in header["message"]

            writer.write(encode_frame(
                {"op": "submit", "id": 2, "req_op": "ata", **meta}, raw))
            await writer.drain()
            header, payload = await read_frame(reader)
            assert header["op"] == "result" and header["id"] == 2
            got = unpack_array(header, payload)
            writer.close()
            await writer.wait_closed()
            stats = net.server.stats()
        return got, stats

    got, stats = run(scenario())
    reference = ExecutionEngine()
    assert np.array_equal(got, reference.matmul_ata(a))
    reference.close()
    assert stats.submitted == 1 and stats.completed == 1
    assert _reconciled(stats)


# ---------------------------------------------------------------------------
# demand-driven dispatch
# ---------------------------------------------------------------------------

def test_lone_request_on_an_idle_server_does_not_wait(rng):
    """With a worker free, a queue dispatches on the next loop iteration:
    sequential lone requests spend (almost) nothing queued."""
    a = rng.standard_normal((32, 16))

    async def scenario():
        async with Server(ExecutionEngine()) as server:
            for _ in range(10):
                await server.submit(a)
            return server.stats()

    stats = run(scenario())
    assert stats.batches == 10 and stats.size_histogram == {1: 10}
    (queue,) = stats.queues.values()
    assert queue.wait_seconds / queue.batched_requests < 1e-3


def test_requests_hold_while_the_worker_is_busy(rng, gated_engine):
    """Three requests submitted in three loop iterations behind a busy
    worker run as one batch of 3 once it frees."""
    mats = [rng.standard_normal((32, 16)) for _ in range(3)]

    async def scenario():
        server = Server(gated_engine, max_batch=8)
        holder = await gated_engine.hold(server)
        waiters = []
        for a in mats:
            waiters.append(asyncio.ensure_future(server.submit(a)))
            await asyncio.sleep(0)
        # only the holder's batch has gone
        assert server.stats().depth == 3 and server.stats().batches == 1
        gated_engine.gate.set()
        results = await asyncio.gather(*waiters)
        with pytest.raises(RuntimeError):
            await holder
        await server.close()
        return results, server.stats()

    results, stats = run(scenario())
    for a, c in zip(mats, results):
        assert np.array_equal(c, gated_engine.matmul_ata(a))
    assert stats.size_histogram == {1: 1, 3: 1}
    assert _reconciled(stats)


def test_two_workers_run_two_keys_concurrently(rng):
    """With ``workers=2`` two requests on different keys run at the same
    time: each batch waits at a two-party barrier inside the engine."""
    a = rng.standard_normal((32, 16))
    barrier = threading.Barrier(2, timeout=WAIT / 2)

    class BarrierEngine(ExecutionEngine):
        def run_batch(self, matrices, **kwargs):
            barrier.wait()  # BrokenBarrierError if the batches serialise
            return super().run_batch(matrices, **kwargs)

    async def scenario():
        async with Server(BarrierEngine(), workers=2) as server:
            await asyncio.gather(server.submit(a, alpha=1.0),
                                 server.submit(a, alpha=2.0))
            return server.stats()

    stats = run(scenario())
    assert stats.completed == 2 and stats.batches == 2


def test_freed_worker_serves_the_oldest_waiting_key(rng, gated_engine):
    """Queue A is created first, but its first request is cancelled, so
    queue B holds the oldest live request and must run first."""
    a = rng.standard_normal((32, 16))
    alphas = []
    run_batch = gated_engine.run_batch

    def recording_run_batch(matrices, **kwargs):
        alphas.append(kwargs["alpha"])
        return run_batch(matrices, **kwargs)

    async def scenario():
        server = Server(gated_engine)
        holder = await gated_engine.hold(server)
        # record from here on: the holder's batch is already running
        gated_engine.run_batch = recording_run_batch
        doomed = asyncio.ensure_future(server.submit(a, alpha=1.0))
        await asyncio.sleep(0)
        first_b = asyncio.ensure_future(server.submit(a, alpha=2.0))
        await asyncio.sleep(0)
        doomed.cancel()
        later_a = asyncio.ensure_future(server.submit(a, alpha=1.0))
        await asyncio.sleep(0)
        assert len(server._queues) == 3  # A, B and the holder's
        gated_engine.gate.set()
        await asyncio.gather(first_b, later_a)
        with pytest.raises(RuntimeError):
            await holder
        await server.close()
        return server.stats()

    stats = run(scenario())
    assert alphas == [2.0, 1.0]
    assert stats.cancelled == 1 and stats.completed == 2
    assert _reconciled(stats)


@needs_scipy
def test_direct_route_traffic_cannot_starve_a_held_request(rng):
    """Direct-route requests claim a worker without waiting for a free
    one, so the busy count can exceed ``workers``.  Two clients keep one
    CSR request each in flight on a one-worker server, each resubmitting
    when its request finishes, so the busy count swings between 2 and 1
    and never reaches 0; a dense request queued behind them must still
    be served while they cycle."""
    a = rng.standard_normal((32, 16))
    sparse = _csr(rng, 64, 16)

    class PerRequestGateEngine(ExecutionEngine):
        #: id of a submitted operand -> (operand, the gate it waits on)
        gates = {}

        def matmul_ata(self, a, *args, **kwargs):
            assert self.gates[id(a)][1].wait(WAIT), \
                "test never opened the gate"
            return super().matmul_ata(a, *args, **kwargs)

    async def scenario():
        x1_gate, y1_gate, x2_gate = (threading.Event() for _ in range(3))
        engine = PerRequestGateEngine()
        async with Server(engine, workers=1) as server:
            def direct(client, gate):
                operand = sparse.copy()
                engine.gates[id(operand)] = (operand, gate)
                return asyncio.ensure_future(
                    server.submit(operand, client=client))

            x1, y1 = direct("x", x1_gate), direct("y", y1_gate)
            await asyncio.sleep(0)  # both admitted; both claim a worker
            dense = asyncio.ensure_future(server.submit(a))
            await asyncio.sleep(0)  # queued: the busy count is 2
            x1_gate.set()
            await x1  # busy count 2 -> 1
            x2 = direct("x", x2_gate)
            await asyncio.sleep(0)  # x2 admitted; it claims a worker
            y1_gate.set()
            await y1  # y's request finishes while x2 is held
            try:
                c = await asyncio.wait_for(dense, WAIT / 4)
                assert not x2.done()
            finally:
                x2_gate.set()
            await x2
            return c, server.stats()

    c, stats = run(scenario())
    reference = ExecutionEngine()
    assert np.array_equal(c, reference.matmul_ata(a))
    reference.close()
    assert stats.completed == 4 and _reconciled(stats)


def test_close_without_drain_fails_requests_a_dispatch_was_scheduled_for(
        rng):
    """Three requests pending on an idle server have a dispatch scheduled
    for the next loop iteration; ``close(drain=False)`` must still fail
    them, not let that dispatch run them."""
    mats = [rng.standard_normal((32, 16)) for _ in range(3)]

    async def scenario():
        server = Server(ExecutionEngine())
        waiters = [asyncio.ensure_future(server.submit(a)) for a in mats]
        await asyncio.sleep(0)
        assert server.stats().depth == 3
        await server.close(drain=False)
        outcomes = await asyncio.gather(*waiters, return_exceptions=True)
        return outcomes, server.stats()

    outcomes, stats = run(scenario())
    assert all(isinstance(o, ServerClosedError) for o in outcomes)
    assert stats.failed == 3 and stats.completed == 0
    assert _reconciled(stats)
