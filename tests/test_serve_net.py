"""Wire-protocol suite for the TCP serving front door
(:mod:`repro.serve.net` / :mod:`repro.serve.protocol`).

The front door's contract is the in-process server's, framed: every
result a :class:`repro.serve.Client` receives must be ``np.array_equal``
to the corresponding direct engine call — for every algorithm, operation
and dtype, under many concurrent clients multiplexed over few
connections, with coalescing observed (mean batch size > 1) and the
admission ledger reconciling exactly::

    submitted == completed + failed + rejected + cancelled + expired

including when the ``serve.conn`` chaos site kills connections mid-batch
(dropped requests settle as ``cancelled``; nothing leaks ``inflight``).
The suite also covers the versioned handshake, malformed-frame handling,
remote-error rehydration (``QueueFullError`` stays retryable through
:func:`repro.serve.retry` across the wire), the refusal of frames
outside the three wire operations, and the Prometheus-style metrics
scrape.
"""

import asyncio
import json
import struct

import numpy as np
import pytest

from repro.config import configured
from repro.engine import HAVE_SCIPY, ExecutionEngine
from repro.errors import (
    DeadlineError,
    ProtocolError,
    ServerClosedError,
    ShapeError,
)
from repro.serve import Client, NetServer, PROTOCOL_VERSION, Server
from repro.serve.protocol import (
    encode_frame,
    pack_array,
    raise_remote,
    read_frame,
    unpack_array,
)

pytestmark = pytest.mark.timeout(120)

WAIT = 60.0


def run(coro, timeout: float = WAIT):
    async def _capped():
        return await asyncio.wait_for(coro, timeout=timeout)
    return asyncio.run(_capped())


@pytest.fixture
def rng():
    return np.random.default_rng(0x7C9)


def _reconciled(stats) -> bool:
    return (stats.submitted
            == stats.completed + stats.failed + stats.rejected
            + stats.cancelled + stats.expired)


# ---------------------------------------------------------------------------
# framing primitives
# ---------------------------------------------------------------------------

class TestFraming:
    def test_array_roundtrip_is_bit_identical(self, rng):
        for dtype in (np.float32, np.float64):
            a = rng.standard_normal((17, 9)).astype(dtype)
            meta, raw = pack_array(a)
            back = unpack_array({**meta}, bytes(raw))
            assert back.dtype == a.dtype
            assert np.array_equal(back, a)
            assert back.flags.writeable  # a fresh array, not a view

    def test_noncontiguous_arrays_are_packed_contiguously(self, rng):
        a = rng.standard_normal((24, 24))[::2, ::2]
        meta, raw = pack_array(a)
        assert np.array_equal(unpack_array(meta, bytes(raw)), a)

    def test_short_payload_raises_protocol_error(self):
        meta, raw = pack_array(np.ones((4, 4)))
        with pytest.raises(ProtocolError):
            unpack_array(meta, bytes(raw)[:-8])

    @pytest.mark.parametrize("shape", [[4, -1], [-1, 8], [-2, -4]])
    def test_negative_dimension_raises_protocol_error(self, shape):
        """A negative dimension is refused, never inferred by numpy's
        ``reshape(-1)`` against a payload that happens to fit."""
        meta, raw = pack_array(np.ones((4, 4)))
        with pytest.raises(ProtocolError, match="negative"):
            unpack_array({**meta, "shape": shape}, bytes(raw))

    @pytest.mark.parametrize("shape", [[2**32, 2**32], [2**62, 4],
                                       [0, 2**63]])
    def test_overflowing_shape_raises_protocol_error(self, shape):
        """A shape whose element count overflows int64, or that numpy
        cannot index, is refused as a protocol error, not a bare
        ``ValueError``."""
        meta, raw = pack_array(np.ones((4, 4)))
        with pytest.raises(ProtocolError):
            unpack_array({**meta, "shape": shape}, bytes(raw))

    def test_frame_bytes_are_unchanged(self):
        """Golden bytes: the JSON frame layout is the wire contract."""
        assert encode_frame({"op": "x", "id": 7}, b"p") == (
            b'J\x00\x00\x00\x11\x00\x00\x00\x01{"op":"x","id":7}p')

    def test_frame_roundtrip(self):
        async def scenario():
            reader = asyncio.StreamReader()
            frame = encode_frame({"op": "x", "id": 7}, b"payload")
            reader.feed_data(frame)
            reader.feed_eof()
            header, payload = await read_frame(reader)
            assert header == {"op": "x", "id": 7}
            assert payload == b"payload"
        run(scenario())

    def test_bogus_tag_byte_rejected(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(">BII", ord("Z"), 2, 0) + b"{}")
            reader.feed_eof()
            with pytest.raises(ProtocolError):
                await read_frame(reader)
        run(scenario())

    def test_oversized_header_announcement_rejected(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(">BII", ord("J"), 1 << 24, 0))
            reader.feed_eof()
            with pytest.raises(ProtocolError):
                await read_frame(reader)
        run(scenario())

    def test_headerless_mapping_rejected(self):
        async def scenario():
            reader = asyncio.StreamReader()
            raw = json.dumps([1, 2]).encode()
            reader.feed_data(struct.pack(">BII", ord("J"), len(raw), 0)
                             + raw)
            reader.feed_eof()
            with pytest.raises(ProtocolError):
                await read_frame(reader)
        run(scenario())


# ---------------------------------------------------------------------------
# handshake
# ---------------------------------------------------------------------------

class TestHandshake:
    def test_version_mismatch_is_refused(self):
        async def scenario():
            async with NetServer(max_inflight=4) as net:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", net.port)
                writer.write(encode_frame(
                    {"op": "hello", "version": PROTOCOL_VERSION + 1,
                     "encodings": ["json"]}))
                await writer.drain()
                header, _ = await read_frame(reader)
                assert header["op"] == "error"
                assert header["error"] == "ProtocolError"
                assert "version" in header["message"]
                writer.close()
        run(scenario())

    @pytest.mark.parametrize("offer", [{"encodings": ["json"]}, {}],
                             ids=["json", "no-encodings"])
    def test_json_hello_connects(self, offer):
        async def scenario():
            async with NetServer(max_inflight=4) as net:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", net.port)
                writer.write(encode_frame(
                    {"op": "hello", "version": PROTOCOL_VERSION, **offer}))
                await writer.drain()
                header, _ = await read_frame(reader)
                assert header["op"] == "hello"
                assert header["client"].startswith("conn-")
                writer.close()
        run(scenario())

    @pytest.mark.parametrize("offered", [["msgpack"], 5, "json"],
                             ids=["msgpack", "int", "str"])
    def test_hello_without_json_is_refused(self, offered):
        """An offer without "json" (or not even a list) gets a typed
        error frame, not a dropped connection."""
        async def scenario():
            async with NetServer(max_inflight=4) as net:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", net.port)
                writer.write(encode_frame(
                    {"op": "hello", "version": PROTOCOL_VERSION,
                     "encodings": offered}))
                await writer.drain()
                header, _ = await read_frame(reader)
                assert header["op"] == "error"
                with pytest.raises(ProtocolError, match="encoding"):
                    raise_remote(header)
                writer.close()
        run(scenario())

    def test_first_frame_must_be_hello(self):
        async def scenario():
            async with NetServer(max_inflight=4) as net:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", net.port)
                writer.write(encode_frame({"op": "metrics", "id": 1}))
                await writer.drain()
                header, _ = await read_frame(reader)
                assert header["op"] == "error"
                writer.close()
        run(scenario())

    def test_anonymous_connections_get_unique_ids(self):
        async def scenario():
            async with NetServer(max_inflight=4) as net:
                async with Client(port=net.port) as one, \
                        Client(port=net.port) as two:
                    assert one.client_id != two.client_id
        run(scenario())

    def test_pinned_client_id_is_respected(self):
        async def scenario():
            async with NetServer(max_inflight=4) as net:
                async with Client(port=net.port, client_id="team-a") as c:
                    assert c.client_id == "team-a"
        run(scenario())

    def test_unknown_wire_op_errors_the_connection(self):
        async def scenario():
            async with NetServer(max_inflight=4) as net:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", net.port)
                writer.write(encode_frame(
                    {"op": "hello", "version": PROTOCOL_VERSION,
                     "encodings": ["json"]}))
                await writer.drain()
                await read_frame(reader)  # hello reply
                writer.write(encode_frame({"op": "frobnicate", "id": 1}))
                await writer.drain()
                header, _ = await read_frame(reader)
                assert header["op"] == "error"
                writer.close()
        run(scenario())

    def test_stream_frame_is_an_unknown_op(self, rng):
        """The wire has no streaming operation: a ``stream_begin`` frame
        gets a ``ProtocolError`` reply and admits nothing."""
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
                    {"op": "stream_begin", "id": 1, "alpha": 1.0}))
                await writer.drain()
                header, _ = await read_frame(reader)
                writer.close()
                await writer.wait_closed()
                return header, net.server.stats()

        header, stats = run(scenario())
        assert header["op"] == "error"
        assert header["error"] == "ProtocolError"
        assert "stream_begin" in header["message"]
        assert stats.submitted == 0 and _reconciled(stats)


# ---------------------------------------------------------------------------
# bit identity through the wire (the ISSUE's acceptance scenario)
# ---------------------------------------------------------------------------

class TestWireBitIdentity:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("algo", ["auto", "syrk", "tiled"])
    def test_ata_over_tcp_bit_identical(self, rng, algo, dtype):
        mats = [rng.standard_normal((64, 32)).astype(dtype)
                for _ in range(8)]

        async def scenario():
            reference = ExecutionEngine()
            async with NetServer(max_batch=8) as net:
                async with Client(port=net.port) as client:
                    results = await asyncio.gather(
                        *(client.submit(a, algo=algo) for a in mats))
                stats = net.server.stats()
            for a, c in zip(mats, results):
                assert c.dtype == np.dtype(dtype)
                assert np.array_equal(c, reference.matmul_ata(a, algo=algo))
            reference.close()
            assert _reconciled(stats)
        run(scenario())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("algo", ["auto", "strassen", "recursive_gemm"])
    def test_atb_over_tcp_bit_identical(self, rng, algo, dtype):
        pairs = [(rng.standard_normal((64, 32)).astype(dtype),
                  rng.standard_normal((64, 16)).astype(dtype))
                 for _ in range(6)]

        async def scenario():
            reference = ExecutionEngine()
            async with NetServer(max_batch=8) as net:
                async with Client(port=net.port) as client:
                    results = await asyncio.gather(
                        *(client.submit(a, "atb", b, algo=algo)
                          for a, b in pairs))
                stats = net.server.stats()
            for (a, b), c in zip(pairs, results):
                assert np.array_equal(c,
                                      reference.matmul_atb(a, b, algo=algo))
            reference.close()
            assert _reconciled(stats)
        run(scenario())

    def test_32_clients_over_4_connections_coalesce_and_reconcile(self, rng):
        """The acceptance scenario: 32 concurrent logical clients
        multiplexed over 4 connections, bit-identical results, observed
        coalescing, and an exactly reconciling ledger."""
        a = rng.standard_normal((96, 48))

        async def scenario():
            reference = ExecutionEngine()
            expected = reference.matmul_ata(a)
            async with NetServer(max_batch=16, workers=2) as net:
                clients = [await Client(port=net.port).connect()
                           for _ in range(4)]
                try:
                    results = await asyncio.gather(
                        *(clients[i % 4].submit(a) for i in range(32)))
                finally:
                    for client in clients:
                        await client.aclose()
                stats = net.server.stats()
            for c in results:
                assert np.array_equal(c, expected)
            reference.close()
            assert stats.submitted == 32
            assert stats.completed == 32
            assert _reconciled(stats)
            assert stats.mean_batch_size > 1.0  # coalescing observed
            # each connection's auto-assigned id shows in the ledger
            wire_clients = [cid for cid in stats.clients
                            if cid.startswith("conn-")]
            assert len(wire_clients) == 4
            assert sum(stats.clients[cid].completed
                       for cid in wire_clients) == 32
        run(scenario())

    def test_alpha_rides_the_wire(self, rng):
        a = rng.standard_normal((48, 24))

        async def scenario():
            reference = ExecutionEngine()
            async with NetServer() as net:
                async with Client(port=net.port) as client:
                    c = await client.submit(a, alpha=2.5)
            assert np.array_equal(c, reference.matmul_ata(a, alpha=2.5))
            reference.close()
        run(scenario())


# ---------------------------------------------------------------------------
# remote errors and retry integration
# ---------------------------------------------------------------------------

class TestRemoteErrors:
    def test_shape_error_rehydrates_as_shape_error(self, rng):
        async def scenario():
            async with NetServer() as net:
                async with Client(port=net.port) as client:
                    with pytest.raises(ShapeError):
                        await client.submit(np.zeros(5))
        run(scenario())

    def test_backpressure_rehydrates_retryable_and_retry_succeeds(self, rng):
        mats = [rng.standard_normal((48, 24)) for _ in range(12)]

        async def scenario():
            server = Server(max_inflight=2, max_batch=2)
            async with NetServer(server) as net:
                async with Client(port=net.port) as client:
                    outcomes = await asyncio.gather(
                        *(client.submit(a, attempts=20, backoff=0.01)
                          for a in mats),
                        return_exceptions=True)
            for c in outcomes:
                assert isinstance(c, np.ndarray), c
            stats = server.stats()
            await server.close()
            assert stats.completed == len(mats)
            assert _reconciled(stats)
        run(scenario())

    def test_deadline_error_crosses_the_wire(self, rng):
        a = rng.standard_normal((48, 24))

        async def scenario():
            with configured(faults="serve.engine:slow0.5@always"):
                async with NetServer() as net:
                    async with Client(port=net.port) as client:
                        with pytest.raises(DeadlineError):
                            await client.submit(a, timeout=0.05)
                    stats = net.server.stats()
                assert stats.expired == 1
                assert _reconciled(stats)
        run(scenario())

    def test_submit_after_close_raises(self, rng):
        a = rng.standard_normal((32, 16))

        async def scenario():
            net = await NetServer().start()
            client = await Client(port=net.port).connect()
            await client.aclose()
            await net.close()
            with pytest.raises(ServerClosedError):
                await client.submit(a)
        run(scenario())


# ---------------------------------------------------------------------------
# dropped connections (serve.conn chaos) settle cleanly
# ---------------------------------------------------------------------------

class TestConnectionChaos:
    def test_killed_connection_cancels_requests_and_reconciles(self, rng):
        """serve.conn kills the 3rd frame of each connection: requests
        already in flight settle as cancelled, admission slots free, and
        the ledger still reconciles exactly."""
        a = rng.standard_normal((64, 32))

        async def scenario():
            with configured(faults="serve.conn:kill@p3*99"):
                async with NetServer(max_batch=8) as net:
                    failures = 0
                    for _ in range(3):
                        client = await Client(port=net.port).connect()
                        outcomes = await asyncio.gather(
                            *(client.submit(a) for _ in range(6)),
                            return_exceptions=True)
                        await client.aclose()
                        failures += sum(
                            1 for c in outcomes
                            if isinstance(c, BaseException))
                    assert failures > 0  # chaos actually bit
                    # teardown settles asynchronously; wait for the
                    # ledger to quiesce, then it must reconcile exactly
                    deadline = asyncio.get_running_loop().time() + WAIT / 2
                    while net.server.stats().inflight:
                        assert asyncio.get_running_loop().time() < deadline
                        await asyncio.sleep(0.01)
                    stats = net.server.stats()
                    assert _reconciled(stats)
        run(scenario())

    def test_abrupt_client_disconnect_does_not_leak_inflight(
            self, rng, gated_engine):
        a = rng.standard_normal((64, 32))

        async def scenario():
            async with NetServer(engine=gated_engine, max_batch=64) as net:
                # an in-process holder keeps the only worker busy, so the
                # wire requests park in their queue
                holder = await gated_engine.hold(net.server)
                client = await Client(port=net.port).connect()
                waiters = [asyncio.ensure_future(client.submit(a))
                           for _ in range(8)]
                await asyncio.sleep(0.05)  # frames reach the server
                await client.aclose()      # vanish before any flush
                await asyncio.gather(*waiters, return_exceptions=True)
                gated_engine.gate.set()
                await asyncio.gather(holder, return_exceptions=True)
                deadline = asyncio.get_running_loop().time() + WAIT / 2
                while net.server.stats().inflight:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.01)
                stats = net.server.stats()
                assert _reconciled(stats)
                assert stats.cancelled > 0
        run(scenario())


# ---------------------------------------------------------------------------
# metrics over the wire
# ---------------------------------------------------------------------------

def _parse_exposition(text: str) -> dict:
    """Parse a Prometheus exposition into ``{sample name + labels: value}``
    (strict: every non-comment line must parse)."""
    samples = {}
    for line in text.strip().splitlines():
        if line.startswith("#"):
            assert line.startswith(("# HELP ", "# TYPE "))
            continue
        name, value = line.rsplit(" ", 1)
        samples[name] = float(value)
    return samples


class TestWireMetrics:
    def test_scrape_parses_and_shows_decaying_histograms(self, rng):
        a = rng.standard_normal((64, 32))

        async def scenario():
            async with NetServer(max_batch=4) as net:
                async with Client(port=net.port,
                                  client_id="scraper") as client:
                    await asyncio.gather(*(client.submit(a)
                                           for _ in range(8)))
                    text = await client.metrics()
            return text

        samples = _parse_exposition(run(scenario()))
        assert samples["repro_serve_requests_submitted_total"] == 8
        assert samples['repro_serve_requests_total{outcome="completed"}'] == 8
        assert samples["repro_serve_inflight"] == 0
        # the windowed (decaying) histograms carry the fresh samples
        assert samples["repro_serve_wait_seconds_count"] == 8
        assert samples['repro_serve_wait_seconds_bucket{le="+Inf"}'] == 8
        assert samples["repro_serve_batch_size_count"] >= 1
        assert samples["repro_serve_run_seconds_count"] >= 1
        # the windowed batch-size histogram's recent mean shows coalescing
        assert (samples["repro_serve_batch_size_sum"]
                / samples["repro_serve_batch_size_count"]) > 1.0
        # per-client ledger lines carry the pinned id
        key = 'repro_serve_client_requests_total{client="scraper",outcome="completed"}'
        assert samples[key] == 8
        # the serving engine's counters ride in the same exposition
        runs = {k: v for k, v in samples.items()
                if k.startswith("repro_engine_backend_runs_total{")}
        assert sum(runs.values()) == 8
        assert any(k.startswith("repro_engine_dispatch_reasons_total{")
                   for k in samples)
        assert samples["repro_engine_batch_items"] == 8

    def test_window_histograms_decay_but_cumulative_counters_do_not(self):
        """The decaying-vs-cumulative split: ageing the injectable clock
        past the window empties the histograms while the ledger counters
        keep their totals."""
        clock = {"now": 1000.0}
        server = Server()
        server._metrics.clock = lambda: clock["now"]
        rng = np.random.default_rng(3)
        a = rng.standard_normal((48, 24))

        async def scenario():
            await asyncio.gather(*(server.submit(a) for _ in range(4)))
            before = _parse_exposition(server.metrics_text())
            clock["now"] += 10 * server._metrics.window  # age out
            after = _parse_exposition(server.metrics_text())
            await server.close()
            return before, after

        before, after = run(scenario())
        assert before["repro_serve_wait_seconds_count"] == 4
        assert after["repro_serve_wait_seconds_count"] == 0  # decayed
        assert after["repro_serve_requests_submitted_total"] == 4  # kept
        assert after['repro_serve_requests_total{outcome="completed"}'] == 4


class TestDecayingEstimators:
    def test_window_histogram_expires_slots(self):
        from repro.serve import WindowHistogram
        hist = WindowHistogram((0.1, 1.0), window=60.0, slots=6)
        hist.record(0.05, now=0.0)
        hist.record(0.5, now=1.0)
        cumulative, total, count = hist.snapshot(now=2.0)
        assert count == 2 and cumulative == [1, 2, 2]
        assert total == pytest.approx(0.55)
        # a minute later both samples have rotated out
        cumulative, total, count = hist.snapshot(now=120.0)
        assert count == 0 and cumulative == [0, 0, 0]
        assert total == 0.0

    def test_window_histogram_rejects_bad_bounds(self):
        from repro.serve import WindowHistogram
        with pytest.raises(ValueError):
            WindowHistogram(())
        with pytest.raises(ValueError):
            WindowHistogram((1.0, 0.5))
        with pytest.raises(ValueError):
            WindowHistogram((1.0,), window=0.0)


# ---------------------------------------------------------------------------
# sparse CSR payloads (ISSUE 10)
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not HAVE_SCIPY, reason="CSR payloads need scipy")
class TestSparsePayloads:
    """CSR wire encoding: bit-identical round trips, validated decode,
    and end-to-end sparse ``Client.submit`` without densifying on the
    wire.  Skipped wholesale without scipy — the wire then simply never
    produces a ``sparse: "csr"`` header."""

    @property
    def sps(self):
        import scipy.sparse
        return scipy.sparse

    def _random_csr(self, rng, m=40, n=25, dens=0.1, dtype=np.float64):
        nnz = int(dens * m * n)
        a = self.sps.coo_matrix(
            (rng.standard_normal(nnz).astype(dtype),
             (rng.integers(0, m, nnz), rng.integers(0, n, nnz))),
            shape=(m, n))
        return a.tocsr()

    def test_csr_roundtrip_is_bit_identical(self, rng):
        from repro.serve.protocol import (
            csr_payload_nbytes, pack_csr, unpack_csr)
        for dtype in (np.float32, np.float64):
            a = self._random_csr(rng, dtype=dtype)
            a.sum_duplicates()
            a.sort_indices()
            meta, raw = pack_csr(a)
            assert len(raw) == csr_payload_nbytes(meta)
            back = unpack_csr({**meta}, bytes(raw))
            # component-wise byte identity, not just allclose
            assert back.shape == a.shape and back.dtype == a.dtype
            assert np.array_equal(back.indptr, a.indptr)
            assert np.array_equal(back.indices, a.indices)
            assert back.data.tobytes() == a.data.tobytes()

    def test_pack_canonicalises_without_mutating_input(self, rng):
        from repro.serve.protocol import pack_csr, unpack_csr
        coo = self.sps.coo_matrix(
            (np.array([1.0, 2.0, 4.0]),
             (np.array([0, 0, 1]), np.array([1, 1, 0]))), shape=(3, 3))
        csr = coo.tocsr()  # may hold unsorted/duplicate entries via coo
        meta, raw = pack_csr(coo)
        back = unpack_csr(meta, bytes(raw))
        assert back[0, 1] == 3.0 and back[1, 0] == 4.0  # dups summed
        assert np.all(np.diff(back.indptr) >= 0)
        assert coo.nnz == 3  # input untouched
        del csr

    def test_corrupt_csr_payload_rejected(self, rng):
        from repro.serve.protocol import pack_csr, unpack_csr
        from repro.errors import ProtocolError
        a = self._random_csr(rng)
        meta, raw = pack_csr(a)
        with pytest.raises(ProtocolError):
            unpack_csr(dict(meta), bytes(raw)[:-4])  # short payload
        bad_col = bytearray(raw)
        itemsize = np.dtype(meta["index_dtype"]).itemsize
        # poison the first column index (just past the indptr section)
        # to point past n
        start = (a.shape[0] + 1) * itemsize
        bad_col[start:start + itemsize] = np.array(
            [a.shape[1] + 7], dtype=meta["index_dtype"]).tobytes()
        with pytest.raises(ProtocolError):
            unpack_csr(dict(meta), bytes(bad_col))

    def test_sparse_ata_over_tcp(self, rng):
        a = self._random_csr(rng, m=80, n=30, dens=0.08)
        want = np.tril(a.toarray().T @ a.toarray())

        async def scenario():
            async with NetServer(max_inflight=8) as net:
                async with Client(port=net.port) as client:
                    got = await client.submit(a)
            return got

        got = run(scenario())
        assert got.dtype == np.float64
        assert np.allclose(got, want, rtol=1e-10)

    def test_sparse_atb_over_tcp(self, rng):
        a = self._random_csr(rng, m=60, n=20, dens=0.12)
        b = rng.standard_normal((60, 6))
        want = a.toarray().T @ b

        async def scenario():
            async with NetServer(max_inflight=8) as net:
                async with Client(port=net.port) as client:
                    got = await client.submit(a, op="atb", b=b)
            return got

        got = run(scenario())
        assert np.allclose(got, want, rtol=1e-10)

    def test_sparse_rejects_dense_only_algo_over_wire(self, rng):
        a = self._random_csr(rng)

        async def scenario():
            async with NetServer(max_inflight=8) as net:
                async with Client(port=net.port) as client:
                    with pytest.raises(ShapeError):
                        await client.submit(a, algo="syrk")

        run(scenario())
