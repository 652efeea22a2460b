"""TCP front door for the serving layer: :class:`NetServer` and
:class:`Client`.

:class:`NetServer` listens on a socket and funnels every decoded request
into an in-process :class:`~repro.serve.Server` — so the wire tier adds
**no second policy layer**: coalescing, admission control, per-client
fairness, deadlines and the ledger all happen in the one place they
already happen for in-process submits.  What the wire tier *does* own:

* **framing** — length-prefixed JSON headers plus raw array payloads
  (:mod:`repro.serve.protocol`), so operands and results round-trip
  bit-identically;
* **handshake** — versioned hello and the per-connection **client id**
  that the fairness policy and per-client ledger key on (a client may
  pin its own id to share a fairness budget across connections;
  anonymous connections get a unique one);
* **connection lifecycle** — each ``submit`` frame becomes a concurrent
  task, so one connection can have many requests in flight; when a
  connection drops (cleanly or mid-batch — the ``serve.conn`` fault site
  injects exactly this), every task it still owns is cancelled, which
  settles the underlying futures as ``cancelled`` in the ledger and
  releases their admission slots.  Nothing leaks: the reconciliation
  identity ``submitted == completed + failed + rejected + cancelled +
  expired`` keeps holding with chaos on;
* **metrics** — a ``metrics`` frame answers with
  :meth:`Server.metrics_text`, the Prometheus-style scrape.

The wire knows three operations: ``hello``, ``submit`` and ``metrics``.
Any other frame is a :class:`~repro.errors.ProtocolError` that ends the
connection.

:class:`Client` is the thin counterpart: one connection, one reader
task, request-id-multiplexed futures, ``submit(attempts=N)`` integrating
:func:`repro.serve.retry` so wire-borne backpressure
(:class:`~repro.errors.QueueFullError` / ``FairnessError``) backs off
exactly like in-process backpressure.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Dict, Optional, Set

import numpy as np

from .. import faults
from ..config import get_config
from ..errors import ProtocolError, ServerClosedError
from ..engine.sparse import is_sparse
from .protocol import (
    PROTOCOL_VERSION,
    csr_payload_nbytes,
    error_header,
    pack_array,
    pack_csr,
    raise_remote,
    read_frame,
    unpack_array,
    unpack_csr,
    write_frame,
)
from .retry import retry
from .server import Server

__all__ = ["NetServer", "Client"]


class _ConnectionAborted(Exception):
    """Internal: the serve.conn fault site decided this connection dies."""


class NetServer:
    """Asyncio TCP server funneling wire requests into a
    :class:`~repro.serve.Server`.

    Parameters
    ----------
    server:
        The in-process server to front.  When omitted one is constructed
        from ``**server_kwargs`` (``max_batch``, ``max_inflight``,
        ``fair_share``, ``workers``) and closed with the listener; a
        caller-supplied server is shared and left open.
    host / port:
        Listen address.  ``port=None`` reads ``Config.serve_port`` /
        ``$REPRO_SERVE_PORT``; port ``0`` (the default) binds an
        ephemeral port — read :attr:`port` after :meth:`start`.

    Use as an async context manager, or ``await start()`` / ``await
    close()`` explicitly.
    """

    def __init__(self, server: Optional[Server] = None, *,
                 host: str = "127.0.0.1", port: Optional[int] = None,
                 **server_kwargs) -> None:
        self.host = host
        self.port = int(port if port is not None
                        else get_config().serve_port)
        self.server = server if server is not None else Server(**server_kwargs)
        self._owns_server = server is None
        self._tcp: Optional[asyncio.AbstractServer] = None
        self._conn_ids = itertools.count(1)
        self._connections: Set[asyncio.Task] = set()

    async def start(self) -> "NetServer":
        if self._tcp is not None:
            return self
        self._tcp = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._tcp.sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        """Stop accepting, drop live connections, and (if owned) drain
        the inner server."""
        if self._tcp is not None:
            self._tcp.close()
            await self._tcp.wait_closed()
            self._tcp = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*list(self._connections),
                                 return_exceptions=True)
        if self._owns_server:
            await self.server.close()

    async def __aenter__(self) -> "NetServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # -- connection handling ------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        conn_seq = next(self._conn_ids)
        write_lock = asyncio.Lock()
        requests: Set[asyncio.Task] = set()
        try:
            client = await self._handshake(reader, writer, conn_seq)
            frames = 0
            while True:
                # chaos: evaluated per received frame.  probe(), not
                # maybe() — a "kill" here must model *this connection*
                # dying, not the whole server process exiting
                token = faults.probe("serve.conn", index=frames)
                if token is not None:
                    action, seconds = token
                    if action == "slow":
                        await asyncio.sleep(seconds)
                    else:  # kill / raise / truncate: the connection dies
                        raise _ConnectionAborted(action)
                header, payload = await read_frame(reader)
                frames += 1
                await self._dispatch(header, payload, writer, write_lock,
                                     client, requests)
        except asyncio.CancelledError:
            # NetServer.close() cancelling this handler: absorb the
            # cancel and run the same teardown as a dropped connection,
            # so the handler task finishes cleanly instead of logging a
            # cancelled-task exception
            pass
        except (asyncio.IncompleteReadError, ConnectionError,
                _ConnectionAborted, ProtocolError) as exc:
            # ProtocolError: tell the peer why before hanging up (best
            # effort; the transport may already be gone)
            if isinstance(exc, ProtocolError):
                try:
                    async with write_lock:
                        await write_frame(writer, error_header(None, exc))
                except Exception:
                    pass
        finally:
            # Settle everything this connection still owns.  Cancelling
            # a request task cancels the future it awaits, so the ledger
            # books these as `cancelled` and their admission slots free —
            # a dropped or half-open connection must never leak inflight.
            pending = list(requests)
            for request in pending:
                request.cancel()
            # the teardown awaits absorb a NetServer.close() cancel too:
            # the handler must finish settling its requests either way
            if pending:
                try:
                    await asyncio.gather(*pending, return_exceptions=True)
                except asyncio.CancelledError:
                    pass
            writer.close()
            try:
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):
                pass
            self._connections.discard(task)

    async def _handshake(self, reader, writer, conn_seq: int):
        try:
            header, _ = await read_frame(reader)
        except ProtocolError as exc:
            raise ProtocolError(f"malformed hello frame: {exc}") from exc
        if header.get("op") != "hello":
            raise ProtocolError(
                f"first frame must be op='hello', got {header.get('op')!r}")
        version = header.get("version")
        if version != PROTOCOL_VERSION:
            exc = ProtocolError(
                f"protocol version mismatch: client speaks {version!r}, "
                f"server speaks {PROTOCOL_VERSION}")
            await write_frame(writer, error_header(None, exc))
            raise exc
        offered = header.get("encodings") or ["json"]
        if not isinstance(offered, list) or "json" not in offered:
            exc = ProtocolError(
                f"no common header encoding: client offers {offered}, "
                "server speaks ['json']")
            await write_frame(writer, error_header(None, exc))
            raise exc
        # the client may pin its fairness identity (sharing a budget
        # across connections); anonymous connections get a unique id
        client = str(header.get("client") or f"conn-{conn_seq}")
        # "encoding" stays in the reply so protocol-1 peers that read it
        # see the same hello as before
        await write_frame(writer, {"op": "hello",
                                   "version": PROTOCOL_VERSION,
                                   "encoding": "json",
                                   "client": client})
        return client

    async def _dispatch(self, header, payload, writer, write_lock,
                        client, requests) -> None:
        op = header.get("op")
        if op == "submit":
            request = asyncio.ensure_future(self._serve_submit(
                header, payload, writer, write_lock, client))
            requests.add(request)
            request.add_done_callback(requests.discard)
        elif op == "metrics":
            text = self.server.metrics_text().encode()
            async with write_lock:
                await write_frame(writer,
                                  {"op": "metrics",
                                   "id": header.get("id")},
                                  text)
        else:
            raise ProtocolError(f"unknown wire operation {op!r}")

    async def _serve_submit(self, header, payload, writer, write_lock,
                            client) -> None:
        request_id = header.get("id")
        try:
            if header.get("sparse") == "csr":
                a = unpack_csr(header, payload)
                a_nbytes = csr_payload_nbytes(header)
            else:
                a = unpack_array(header, payload)
                a_nbytes = a.nbytes
            b = None
            if "b_dtype" in header:
                b = unpack_array(header, payload, prefix="b_",
                                 offset=a_nbytes)
            result = await self.server.submit(
                a, op=header.get("req_op", "ata"), b=b,
                algo=header.get("algo", "auto"),
                alpha=header.get("alpha", 1.0),
                timeout=header.get("timeout"),
                client=client)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            await self._reply(writer, write_lock,
                              error_header(request_id, exc), b"")
            return
        meta, raw = pack_array(result)
        await self._reply(writer, write_lock,
                          {"op": "result", "id": request_id, **meta}, raw)

    async def _reply(self, writer, write_lock, header, payload) -> None:
        try:
            async with write_lock:
                await write_frame(writer, header, payload)
        except (ConnectionError, RuntimeError):
            pass  # peer is gone; the teardown path settles the ledger

class Client:
    """One multiplexed connection to a :class:`NetServer`.

    Any number of concurrent ``await client.submit(...)`` calls share
    the connection: requests carry ids, a single reader task routes
    each response to its waiting future.  ``submit(attempts=N)`` wraps
    the round trip in :func:`repro.serve.retry`, so wire-borne
    :class:`~repro.errors.QueueFullError` /
    :class:`~repro.errors.FairnessError` backpressure backs off with
    jitter exactly like in-process submits.

    Parameters
    ----------
    host / port:
        The listener's address (``NetServer.port`` after start).
    client_id:
        Optional fairness identity to pin; connections sharing an id
        share one per-client admission budget and ledger entry.  When
        omitted the server assigns a unique per-connection id
        (available as :attr:`client_id` after :meth:`connect`).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 client_id: Optional[str] = None) -> None:
        self.host = host
        self.port = int(port)
        self.client_id = client_id
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._ids = itertools.count(1)
        self._pending: Dict[int, asyncio.Future] = {}
        self._write_lock = asyncio.Lock()
        self._closed = False

    async def connect(self) -> "Client":
        if self._writer is not None:
            return self
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port)
        hello: Dict[str, Any] = {"op": "hello",
                                 "version": PROTOCOL_VERSION,
                                 "encodings": ["json"]}
        if self.client_id is not None:
            hello["client"] = str(self.client_id)
        await write_frame(self._writer, hello)
        header, _ = await read_frame(self._reader)
        if header.get("op") == "error":
            raise_remote(header)
        if header.get("op") != "hello":
            raise ProtocolError(
                f"expected hello reply, got {header.get('op')!r}")
        self.client_id = header.get("client")
        self._reader_task = asyncio.ensure_future(self._read_loop())
        return self

    async def aclose(self) -> None:
        self._closed = True
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except Exception:
                pass
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
        self._fail_pending(ServerClosedError("client connection closed"))

    async def __aenter__(self) -> "Client":
        return await self.connect()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    # -- the reader side ----------------------------------------------------
    async def _read_loop(self) -> None:
        try:
            while True:
                header, payload = await read_frame(self._reader)
                request_id = header.get("id")
                future = self._pending.pop(request_id, None)
                if future is None or future.done():
                    continue  # response to an abandoned request
                op = header.get("op")
                if op == "result":
                    try:
                        future.set_result(unpack_array(header, payload))
                    except ProtocolError as exc:
                        future.set_exception(exc)
                elif op == "metrics":
                    future.set_result(payload.decode())
                elif op == "error":
                    try:
                        raise_remote(header)
                    except BaseException as exc:
                        future.set_exception(exc)
                else:
                    future.set_exception(ProtocolError(
                        f"unexpected response op {op!r}"))
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            if isinstance(exc, asyncio.IncompleteReadError) and not exc.partial:
                exc = ServerClosedError(
                    "server closed the connection")
            self._fail_pending(exc)

    def _fail_pending(self, exc: BaseException) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)

    # -- the request side ---------------------------------------------------
    async def _roundtrip(self, header: Dict[str, Any],
                         payload: bytes) -> Any:
        if self._writer is None or self._closed:
            raise ServerClosedError("client is not connected")
        request_id = header["id"] = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            async with self._write_lock:
                await write_frame(self._writer, header, payload)
            return await future
        finally:
            self._pending.pop(request_id, None)

    async def submit(self, a: np.ndarray, op: str = "ata",
                     b: Optional[np.ndarray] = None, *,
                     algo: str = "auto", alpha: float = 1.0,
                     timeout: Optional[float] = None,
                     attempts: int = 1, **retry_kwargs) -> np.ndarray:
        """Serve one request over the wire; mirrors
        :meth:`Server.submit` (same ops, algorithms, deadline and
        backpressure semantics, same bit-identical results).

        ``attempts > 1`` retries :class:`QueueFullError` (including the
        fairness subclass) with :func:`repro.serve.retry`'s jittered
        backoff; ``retry_kwargs`` pass through to it.

        ``a`` may be a scipy sparse matrix: it ships as a CSR payload
        (``indptr``/``indices``/``data`` raw byte sections — see
        :func:`repro.serve.protocol.pack_csr`) and is served through the
        engine's sparse dispatch, never densified on the wire.
        """
        if is_sparse(a):
            meta, raw = pack_csr(a)
        else:
            meta, raw = pack_array(a)
        header: Dict[str, Any] = {"op": "submit", "req_op": op,
                                  "algo": algo, "alpha": float(alpha),
                                  **meta}
        if timeout is not None:
            header["timeout"] = float(timeout)
        if b is not None:
            bmeta, braw = pack_array(b, prefix="b_")
            header.update(bmeta)
            payload = bytes(raw) + bytes(braw)
        else:
            payload = raw
        if attempts <= 1:
            return await self._roundtrip(dict(header), payload)
        return await retry(lambda: self._roundtrip(dict(header), payload),
                           attempts=attempts, **retry_kwargs)

    async def metrics(self) -> str:
        """Fetch the server's Prometheus-style metrics scrape."""
        return await self._roundtrip({"op": "metrics"}, b"")
