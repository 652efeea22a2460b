"""The one serving request lifecycle: admit -> route -> execute -> settle.

Every request kind — a dense in-memory submit (coalesced route), a CSR
submit, ``submit_ooc`` on a memmap and ``submit_stream`` (direct route)
— passes through the same admission prologue and the same settlement,
so the refusal, fairness, deadline and ledger rules are one contract:

* a submit after ``close()`` raises :class:`ServerClosedError` and adds
  nothing to the ledger;
* a negative timeout raises :class:`ConfigurationError` before admission;
* a client over its fair share gets :class:`FairnessError`, booked as
  ``rejected``;
* an expired deadline is booked as ``expired`` and frees its slot;
* ``submitted == completed + failed + rejected + cancelled + expired``
  after each of these.

The suite also pins the operand rules shared by the engine and the
server (one error type for one malformed request, on every surface) and
the wire's handling of a malformed ``stream_begin``.
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


class GatedEngine(ExecutionEngine):
    """An engine whose entry points wait on :attr:`gate` — holds a
    request in execution for as long as a test needs, without sleeps."""

    def __init__(self) -> None:
        super().__init__()
        self.gate = threading.Event()
        self.gate.set()

    def _wait(self) -> None:
        assert self.gate.wait(WAIT), "test never opened the gate"

    def matmul_ata(self, *args, **kwargs):
        self._wait()
        return super().matmul_ata(*args, **kwargs)

    def matmul_atb(self, *args, **kwargs):
        self._wait()
        return super().matmul_atb(*args, **kwargs)

    def run_batch(self, *args, **kwargs):
        self._wait()
        return super().run_batch(*args, **kwargs)

    def run_ooc(self, *args, **kwargs):
        self._wait()
        return super().run_ooc(*args, **kwargs)


def _submitter(kind, rng, tmp_path):
    """``submit(server, **kw)`` issuing one fresh request of ``kind``."""
    a = rng.standard_normal((64, 16))
    if kind == "dense":
        return lambda server, **kw: server.submit(a, **kw)
    if kind == "csr":
        sparse = _csr(rng, 64, 16)
        return lambda server, **kw: server.submit(sparse, **kw)
    if kind == "ooc":
        mapped = np.memmap(tmp_path / "a.bin", dtype=a.dtype, mode="w+",
                           shape=a.shape)
        mapped[:] = a
        mapped.flush()
        return lambda server, **kw: server.submit_ooc(mapped, procs=0, **kw)
    assert kind == "stream"
    return lambda server, **kw: server.submit_stream(
        iter([a[:40], a[40:]]), procs=0, **kw)


KINDS = ["dense", pytest.param("csr", marks=needs_scipy), "ooc", "stream"]


@pytest.mark.parametrize("kind", KINDS)
def test_request_kinds_share_one_contract(kind, rng, tmp_path):
    submit = _submitter(kind, rng, tmp_path)

    async def scenario():
        engine = GatedEngine()
        # fair_share 0.25 of 4 slots: one in-flight request per client
        server = Server(engine, max_inflight=4, fair_share=0.25,
                        linger_ms=0)
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
            engine.close()
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


def test_bad_stream_begin_fields_get_a_typed_reply(rng):
    """A ``stream_begin`` whose ``alpha`` is not a number is refused at
    its ``stream_end`` with a typed error frame; the connection stays up
    and its next ``submit`` is served."""
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
            writer.write(encode_frame(
                {"op": "stream_begin", "id": 1, "alpha": "not-a-number"}))
            meta, raw = pack_array(a)
            writer.write(encode_frame(
                {"op": "stream_chunk", "id": 1, **meta}, raw))
            writer.write(encode_frame({"op": "stream_end", "id": 1}))
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
