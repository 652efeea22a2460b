"""Asyncio serving front-end over the plan-compiling execution engine.

A :class:`Server` accepts ``await server.submit(a, op="ata"|"atb", ...)``
coroutines from any number of concurrent clients and turns them into few,
large :meth:`~repro.engine.ExecutionEngine.run_batch` /
:meth:`~repro.engine.ExecutionEngine.run_batch_atb` calls on **one shared
engine**, so every client benefits from the same warm plan cache and
workspace pool.

Every request — dense or CSR — follows one lifecycle, so the admission,
fairness, deadline and ledger rules hold in one place:

* **admit** — one prologue binds the event loop, refuses submits after
  :meth:`close` (:class:`~repro.errors.ServerClosedError`), parses
  ``alpha`` and ``timeout``, validates the operands with the engine's
  own validators, and claims a slot: at most ``max_inflight`` requests
  may be admitted-but-unfinished (:class:`~repro.errors.QueueFullError`
  beyond — backpressure), and one client id at most its fair share
  (:class:`~repro.errors.FairnessError`).  It then creates the request's
  future, whose done-callback books the outcome in the ledger, and arms
  the deadline: ``timeout=`` (default: none) bounds the wait for a
  result; on expiry the awaiter gets :class:`~repro.errors.DeadlineError`
  and the request is dropped through the same dead-waiter path as
  cancellation;
* **route** — dense in-memory requests take the *coalesced* route:
  they land in per-``(op, algo, dtype, shape-bucket, alpha)``
  :class:`~repro.serve.queues.BatchQueue`\\ s, dispatched on demand:
  with an executor worker free, a submit dispatches on the next loop
  iteration (same-iteration submits coalesce); with every worker busy,
  queues hold, and each freed worker takes one batch from the queue
  whose oldest live request has waited longest.  A queue holding
  ``max_batch`` live requests flushes at once.  Sparse (CSR) operands
  take the *direct* route: each runs alone;
* **execute** — one runner hops to a small
  :class:`~concurrent.futures.ThreadPoolExecutor` (the loop stays
  responsive while numpy grinds), times the engine call, and delivers
  results or the shared failure to the batch's live futures;
* **settle** — the future's done-callback is the single accounting
  point: ``completed``, ``failed``, ``cancelled`` or ``expired``.

``await server.close()`` stops admission, flushes every queue
immediately and waits for all admitted work to finish.  Pair with
:func:`repro.serve.retry` on the client side to absorb transient
:class:`QueueFullError` backpressure with jittered backoff.

Bit-identity is inherited, not re-established: the engine's batch entry
points are documented to equal the corresponding ``matmul_*`` loops bit
for bit, and the server only ever *groups* requests — it never reorders a
batch's outputs (results are zipped back positionally onto the live
requests that formed the batch) and never mixes backends inside a batch
(the algorithm selector is part of the coalescing key).
``tests/test_serve.py`` asserts ``np.array_equal`` against direct engine
calls for every algorithm, operation and dtype under concurrent clients.

The server serves in-memory operands only.  An operand larger than RAM
goes through :func:`repro.run_ooc` (or
:meth:`~repro.engine.ExecutionEngine.run_ooc`) directly, which streams
arrays, memmaps and :class:`~repro.engine.ooc.ChunkSource` iterators.

Quickstart
----------
>>> import asyncio, numpy as np
>>> from repro.serve import Server
>>> async def main():
...     async with Server() as server:
...         a = np.random.default_rng(0).standard_normal((256, 128))
...         results = await asyncio.gather(*(server.submit(a) for _ in range(8)))
...         return results, server.stats()
>>> results, stats = asyncio.run(main())
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Set

import numpy as np

from .. import faults
from ..cache.model import default_cache_model
from ..engine import ExecutionEngine
from ..engine.dispatch import (explicit_backend, validate_dense,
                               validate_structured)
from ..engine.sparse import operand_kind
from ..errors import (
    ConfigurationError,
    DeadlineError,
    FairnessError,
    QueueFullError,
    ServerClosedError,
    ShapeError,
)
from .queues import BatchQueue, Request, queue_key
from .stats import ClientStats, QueueStats, ServerStats, ServingMetrics

__all__ = ["Server"]

_OPS = ("ata", "atb")

#: per-key retired-queue aggregates kept before the oldest ones merge into
#: the shared overflow bucket — bounds server memory under unbounded key
#: diversity (e.g. a client sweeping per-request alphas)
_RETIRED_KEYS = 256
_OVERFLOW_KEY = "~retired-overflow~"

#: per-client ledger entries kept before the oldest settled ones merge
#: into the shared overflow id — same bounding story as retired queues,
#: for servers whose wire clients mint one id per connection forever
_CLIENT_KEYS = 256
_CLIENT_OVERFLOW = "~client-overflow~"

#: ledger buckets tracked per client id (the server-wide ledger is their
#: sum over clients)
_LEDGER_FIELDS = ("submitted", "completed", "failed", "rejected",
                  "cancelled", "expired")


def _label(value: str) -> str:
    """Escape a Prometheus label value."""
    return (value.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _number(name: str, value) -> float:
    """Parse a numeric request field; wire headers carry them unchecked."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"{name} must be a number, got {value!r}") from None


def _new_ledger(_key: str = "") -> Counter:
    return Counter(dict.fromkeys(_LEDGER_FIELDS, 0))


def _bounded_entry(table: dict, key: str, make: Callable, merge: Callable,
                   limit: int, overflow: str,
                   busy: Callable[[str], bool] = lambda key: False):
    """``table[key]``, created by ``make(key)`` when absent.

    A creation that takes ``table`` past ``limit`` entries merges its
    oldest entries (other than ``key``, the overflow bucket and those
    ``busy`` still needs) into ``table[overflow]`` with ``merge(into,
    entry)``, so totals stay exact while the map stays bounded under
    unbounded key diversity.  Callers hold the server's stats lock.
    """
    entry = table.get(key)
    if entry is None:
        entry = table[key] = make(key)
        while len(table) > limit:
            oldest = next((k for k in table
                           if k not in (key, overflow) and not busy(k)),
                          None)
            if oldest is None:
                break  # everything else is still in use
            merge(table.setdefault(overflow, make(overflow)),
                  table.pop(oldest))
    return entry


class Server:
    """Admission-controlled, coalescing asyncio front-end for one engine.

    Parameters
    ----------
    engine:
        The :class:`~repro.engine.ExecutionEngine` to serve through.  When
        omitted the server constructs (and on :meth:`close` closes) its
        own; a caller-supplied engine is shared, never closed.
    max_batch:
        Maximum requests coalesced into one batch call.  A queue that
        reaches it dispatches at once; a partial batch goes when an
        executor worker is free.
    max_inflight:
        Admission bound on admitted-but-unfinished requests
        (:class:`~repro.errors.QueueFullError` beyond).
    fair_share:
        Per-client share of the admission window, in ``(0, 1]``.  ``1.0``
        (default) keeps admission first-come; below it, one client id may
        hold at most ``max(1, floor(fair_share * max_inflight))``
        in-flight requests (:class:`~repro.errors.FairnessError` beyond).
    workers:
        Executor threads running batches off the event loop.  One thread
        already keeps the loop responsive; more overlap distinct batches
        only when the host has cores to run them.  Queues hold requests
        for coalescing only while every worker is busy.

    Notes
    -----
    The server binds to the event loop of its first ``submit`` and may be
    rebound (e.g. across ``asyncio.run`` calls in tests) only while idle.
    """

    def __init__(self, engine: Optional[ExecutionEngine] = None, *,
                 max_batch: int = 8,
                 max_inflight: int = 256,
                 fair_share: float = 1.0,
                 workers: int = 1) -> None:
        self.max_batch = int(max_batch)
        self.max_inflight = int(max_inflight)
        if self.max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {self.max_inflight}")
        if not (0.0 < float(fair_share) <= 1.0):
            raise ConfigurationError(
                f"fair_share must be in (0, 1], got {fair_share}")
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.fair_share = float(fair_share)
        #: admission slots one client id may hold; ``fair_share == 1``
        #: disables the per-client bound (any client may fill the window)
        self.client_cap = (self.max_inflight if self.fair_share >= 1.0
                           else max(1, int(self.max_inflight
                                           * self.fair_share)))
        self.engine = engine if engine is not None else ExecutionEngine()
        self._owns_engine = engine is None
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve")
        self._queues: Dict[str, BatchQueue] = {}
        #: counters of drained-and-dropped queues, per key (bounded; the
        #: oldest entries merge into the ``_OVERFLOW_KEY`` bucket)
        self._retired: Dict[str, QueueStats] = {}
        self._batch_tasks: Set[asyncio.Task] = set()
        #: tasks holding an executor worker (may exceed ``workers``)
        self._running = 0
        self._dispatch_handle: Optional[asyncio.Handle] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closing = False
        self._closed = False
        self._close_task: Optional[asyncio.Task] = None
        # counters are mutated on the loop but read by stats() from any
        # thread; the lock keeps multi-field snapshots consistent
        self._lock = threading.Lock()
        #: admitted-but-unsettled requests, kept apart from the ledgers so
        #: admission checks its bound in O(1)
        self._inflight = 0
        #: per-client admitted-but-unsettled counts (entries drop at 0)
        self._client_inflight: Dict[str, int] = {}
        #: the request ledger, per client (bounded; oldest settled
        #: entries merge into the ``_CLIENT_OVERFLOW`` bucket)
        self._clients: Dict[str, Counter] = {}
        #: decaying latency / batch-size estimators behind
        #: :meth:`metrics_text` (recorded under ``_lock``)
        self._metrics = ServingMetrics()

    # -- loop binding -------------------------------------------------------
    def _bind_loop(self) -> asyncio.AbstractEventLoop:
        loop = asyncio.get_running_loop()
        if self._loop is loop:
            return loop
        if self._loop is not None and (self._inflight or self._batch_tasks):
            raise ConfigurationError(
                "Server is bound to another event loop with work in "
                "flight; drain it there before using it from a new loop")
        if self._loop is not None:
            # idle rebind across loops: a dispatch scheduled on the old
            # loop never runs, and its surviving handle would suppress
            # dispatch forever.  Idle means any pending entries are
            # cancelled husks: drop them and retire their queues now
            self._dispatch_handle = None
            for queue in list(self._queues.values()):
                queue.pending.clear()
                self._maybe_retire(queue)
        self._loop = loop
        return loop

    # -- validation ---------------------------------------------------------
    def _validate(self, op: str, a, b: Optional[np.ndarray], algo: str,
                  kind: str) -> None:
        """Reject malformed requests before admission.

        The engine would reject them anyway, but inside a coalesced batch
        — failing every innocent companion request.  Validating up front
        means an admitted request can only fail with its whole batch.
        The operand rules are the engine's own (:func:`validate_dense` /
        :func:`validate_structured`), so both raise the same errors.
        """
        if op not in _OPS:
            raise ConfigurationError(
                f"unknown operation {op!r}; expected one of {_OPS}")
        if op == "ata" and b is not None:
            raise ShapeError("op='ata' takes no B operand")
        if op == "atb" and b is None:
            raise ShapeError("op='atb' requires a B operand")
        (validate_dense if kind == "dense" else validate_structured)(a, b)
        if algo != "auto":
            # the batch-time resolver would reject an unsupported request
            # anyway — but inside a coalesced batch, failing every
            # innocent companion; the coalescing key buckets shapes, so a
            # shape-dependent supports() must be checked per exact shape
            # here, with the same default model execution will use
            explicit_backend(algo, op, self._request_shape(op, a, b),
                             a.dtype, default_cache_model(a.dtype),
                             None if kind == "dense" else a)

    # -- admission ----------------------------------------------------------
    def _client_entry(self, client: str) -> Counter:
        """The (lazily created) per-client ledger entry; callers hold
        ``_lock``.  Bounded like retired queues: the oldest *settled*
        entries merge into the overflow id so wire traffic minting one
        client id per connection cannot grow the map forever."""
        return _bounded_entry(self._clients, client, _new_ledger,
                              Counter.update, _CLIENT_KEYS, _CLIENT_OVERFLOW,
                              busy=self._client_inflight.get)

    def _admit(self, client: str) -> None:
        """Count one submission and claim an admission slot, enforcing
        the global bound and the per-client fair share."""
        with self._lock:
            entry = self._client_entry(client)
            entry["submitted"] += 1
            if self._inflight >= self.max_inflight:
                entry["rejected"] += 1
                raise QueueFullError(
                    "server is at its admission limit "
                    f"({self.max_inflight} requests in flight)")
            held = self._client_inflight.get(client, 0)
            if held >= self.client_cap:
                entry["rejected"] += 1
                raise FairnessError(
                    f"client {client!r} holds {held} of its fair share of "
                    f"{self.client_cap} in-flight requests "
                    f"(fair_share={self.fair_share:g} of "
                    f"max_inflight={self.max_inflight})")
            self._inflight += 1
            self._client_inflight[client] = held + 1

    # -- submission ---------------------------------------------------------
    async def submit(self, a: np.ndarray, op: str = "ata",
                     b: Optional[np.ndarray] = None, *,
                     algo: str = "auto",
                     alpha: float = 1.0,
                     timeout: Optional[float] = None,
                     client: str = "anonymous") -> np.ndarray:
        """Serve one ``alpha * A^T A`` (or ``alpha * A^T B``) request.

        Coalesces with concurrent compatible requests; the returned array
        is bit-identical to ``engine.matmul_ata(a, alpha=alpha,
        algo=algo)`` (resp. ``matmul_atb``) on the shared engine.  Raises
        :class:`QueueFullError` when admission control is full,
        :class:`ServerClosedError` after :meth:`close`, and shape/dtype
        errors for malformed operands.  Cancelling the awaiting task
        abandons the request cleanly (it never corrupts a batch).

        ``timeout`` is the request's deadline in **seconds** (the asyncio
        idiom); ``None`` (the default) or ``0`` means no deadline.  A
        request whose deadline passes before its result arrives is
        settled with :class:`DeadlineError` and dropped through the
        cancelled-waiter path: still-pending it simply never joins a
        batch, already batched its slot is skipped when results are
        zipped back — the expiry never poisons companion requests.  Expiries are ledgered
        under ``expired``, a separate bucket from ``failed``.

        ``client`` attributes the request to a client id for the
        fairness policy and the per-client ledger: one id may hold at
        most ``fair_share * max_inflight`` admission slots
        (:class:`~repro.errors.FairnessError` beyond — a
        :class:`QueueFullError` subclass, so :func:`repro.serve.retry`
        backs off the same way), and queue drains interleave client ids
        round-robin.  The wire front door passes its per-connection id
        automatically.

        A scipy sparse ``a`` takes the direct route: it runs alone
        through the engine's sparse dispatch — it shares no plan with
        dense companions, so there is nothing to batch it with — under
        the same lifecycle as every request.

        This method is that lifecycle.  **Admit**: bind the loop, refuse
        submits after :meth:`close`, parse ``alpha`` and ``timeout``,
        validate the operands, claim an admission and fair-share slot,
        create the future whose done-callback settles the ledger, and
        arm the deadline timer.  **Route**: a dense request joins its
        coalescing queue; a CSR request runs alone.  **Execute** and
        **settle** are :meth:`_run`'s, for both routes.
        """
        loop = self._bind_loop()
        if self._closing:
            raise ServerClosedError("server is closed to new submissions")
        alpha = _number("alpha", alpha)
        timeout = 0.0 if timeout is None else _number("timeout", timeout)
        if timeout < 0:
            raise ConfigurationError(
                f"timeout must be >= 0 seconds, got {timeout}")
        client = str(client)
        kind = operand_kind(a)
        self._validate(op, a, b, algo, kind)
        self._admit(client)
        future = loop.create_future()
        future.add_done_callback(
            lambda fut: self._on_request_done(fut, client))
        request = Request(a=a, b=b, op=op, algo=algo, alpha=alpha,
                          future=future, client=client)
        queue = None
        if kind == "dense":
            queue = self._enqueue(request)
        else:
            self._spawn(self._run(
                [request], lambda: [self._engine_matmul(request)]))
        if timeout > 0:
            deadline_timer = loop.call_later(
                timeout, self._expire, future, timeout, queue)
            # the timer must not outlive the request, however it settles
            future.add_done_callback(
                lambda _, handle=deadline_timer: handle.cancel())
        return await future

    @staticmethod
    def _request_shape(op: str, a: np.ndarray,
                       b: Optional[np.ndarray]) -> tuple:
        if op == "ata":
            return a.shape
        return (a.shape[0], a.shape[1], b.shape[1])

    def _enqueue(self, request: Request) -> BatchQueue:
        """The coalesced route: park ``request`` in its queue, then flush
        a full queue at once, or schedule a dispatch if a worker is free."""
        key = queue_key(request.op, request.algo, request.a.dtype,
                        self._request_shape(request.op, request.a,
                                            request.b),
                        request.alpha)
        with self._lock:  # stats() iterates the queue map from any thread
            queue = self._queues.get(key)
            if queue is None:
                queue = self._queues[key] = BatchQueue(key)
            queue.append(request)
        # the flush threshold counts *live* futures: the deque may also
        # hold cancelled/expired husks that take() will drop, and under
        # deadline churn counting those would dispatch premature partial
        # batches
        if queue.live_count() >= self.max_batch:
            self._flush(queue)
        elif self._running < self.workers and self._dispatch_handle is None:
            self._dispatch_handle = self._loop.call_soon(self._dispatch)
        return queue

    def _spawn(self, coro) -> None:
        """Run ``coro`` — one :meth:`_run` — as a task that :meth:`close`
        awaits.  The task holds an executor worker from here until
        :meth:`_run` releases it."""
        self._running += 1
        task = self._loop.create_task(coro)
        self._batch_tasks.add(task)
        task.add_done_callback(self._batch_tasks.discard)

    def _expire(self, future: "asyncio.Future", timeout: float,
                queue: Optional[BatchQueue]) -> None:
        """Deadline timer callback (runs on the event loop).

        Settling the future is the whole drop: :meth:`BatchQueue.take`
        skips done futures when forming a batch, and :meth:`_run`
        skips them when zipping results back — the same two-sided path
        that makes cancellation batch-safe.  The sweep of the queue's
        settled husks piggybacks here so expiry storms do not leave the
        deque full of dead entries between flushes (direct-route
        requests pass no queue — they never sit in one).
        """
        if not future.done():
            future.set_exception(DeadlineError(
                f"request deadline of {timeout:g}s expired before a "
                "result was ready"))
        if queue is not None:
            queue.prune()

    def _on_request_done(self, future: "asyncio.Future",
                         client: str) -> None:
        """Single accounting point for every admitted request's outcome."""
        with self._lock:
            self._inflight -= 1
            held = self._client_inflight.get(client, 0) - 1
            if held > 0:
                self._client_inflight[client] = held
            else:
                self._client_inflight.pop(client, None)
            if future.cancelled():
                outcome = "cancelled"
            elif future.exception() is None:
                outcome = "completed"
            elif isinstance(future.exception(), DeadlineError):
                outcome = "expired"
            else:
                outcome = "failed"
            self._client_entry(client)[outcome] += 1

    # -- execution ----------------------------------------------------------
    def _dispatch(self, freed: bool = False) -> None:
        """Give each free executor worker, and always the one a finishing
        task ``freed``, a batch from the queue whose oldest live request
        has waited longest (runs on the loop).  Direct-route requests and
        full-queue flushes do not wait for a free worker, so the busy
        count may stay at ``workers`` or above; the freed worker still
        serves a waiter, and no key starves.  A no-op once closing."""
        self._dispatch_handle = None
        slots = max(self.workers - self._running, int(freed))
        while not self._closing and slots > 0:
            for queue in list(self._queues.values()):
                if queue.oldest_live() is None:
                    self._flush(queue)  # husks only: drop them and retire
            waiting = [queue for queue in self._queues.values()
                       if queue.pending]
            if not waiting:
                return
            self._send(min(waiting, key=BatchQueue.oldest_live))
            slots -= 1

    def _send(self, queue: BatchQueue) -> bool:
        """Dispatch one batch of ``queue``'s live pending requests to the
        executor, free worker or not; ``False`` when none are live."""
        batch = queue.take(self.max_batch)
        if not batch:
            return False
        with self._lock:
            waits = queue.note_dispatch(batch)  # samples the clock per batch
            self._metrics.observe_dispatch(waits, len(batch))
        self._spawn(self._run(
            batch, functools.partial(self._engine_batch, batch), queue))
        return True

    def _flush(self, queue: BatchQueue) -> None:
        """Dispatch every live pending request of ``queue`` (runs on the
        loop: for a full queue in ``submit``, a husk-only queue in
        :meth:`_dispatch`, and in ``close``)."""
        while self._send(queue):
            pass
        # a flush that dispatched nothing (every waiter cancelled) leaves
        # the queue drained with no batch task to retire it later
        self._maybe_retire(queue)

    async def _run(self, batch: List[Request],
                   call: Callable[[], List[np.ndarray]],
                   queue: Optional[BatchQueue] = None) -> None:
        """Execute one coalesced batch, or one direct-route request, on
        the executor and settle its futures.

        Results are zipped back positionally onto the batch; a failure
        reaches every live request in it; a shutdown that cancels this
        task fails them with :class:`ServerClosedError`.  Requests that
        already settled (cancelled or expired) are skipped.  The worker
        that :meth:`_spawn` claimed for this task is released here, on
        either route.
        """
        loop = asyncio.get_running_loop()
        try:
            try:
                results = await loop.run_in_executor(
                    self._executor, self._execute, call, queue)
            except asyncio.CancelledError:
                for request in batch:
                    if not request.future.done():
                        request.future.set_exception(ServerClosedError(
                            "request aborted by server shutdown"))
                raise
            except BaseException as exc:  # delivered, not swallowed: every
                # live client of the batch observes the same failure
                for request in batch:
                    if not request.future.done():
                        request.future.set_exception(exc)
                return
            for request, result in zip(batch, results):
                if not request.future.done():
                    request.future.set_result(result)
        finally:
            if queue is not None:
                queue.outstanding -= 1
                self._maybe_retire(queue)
            self._running -= 1
            self._dispatch(freed=True)

    def _maybe_retire(self, queue: BatchQueue) -> None:
        """Drop a fully drained queue from the live map, folding its
        counters into the retired aggregate (runs on the event loop).

        Without this a long-lived server leaks one ``BatchQueue`` per
        coalescing key ever seen — unbounded under diverse traffic (every
        distinct alpha or shape bucket is a key).  Retired counters stay
        visible through :meth:`stats`, merged back under the queue's key.
        """
        if queue.pending or queue.outstanding:
            return
        with self._lock:
            if self._queues.get(queue.key) is not queue:
                return
            del self._queues[queue.key]
            _bounded_entry(self._retired, queue.key, QueueStats,
                           QueueStats.merge, _RETIRED_KEYS,
                           _OVERFLOW_KEY).merge(queue.counters)

    def _execute(self, call: Callable[[], List[np.ndarray]],
                 queue: Optional[BatchQueue]) -> List[np.ndarray]:
        """Runs on an executor thread; the engine is thread-safe.

        ``run_seconds`` is measured here — around the engine call itself —
        so a request queued behind others in the executor charges that
        delay to neither wait (pre-dispatch) nor run accounting.
        """
        start = time.monotonic()
        try:
            return call()
        finally:
            with self._lock:
                elapsed = time.monotonic() - start
                if queue is not None:
                    queue.counters.run_seconds += elapsed
                self._metrics.observe_run(elapsed)

    def _engine_batch(self, batch: List[Request]) -> List[np.ndarray]:
        """The engine call of a coalesced batch."""
        head = batch[0]
        # chaos sites: a failing batch dispatch and a slow engine call
        # (the latter drives deadline expiry in the chaos suite)
        faults.maybe("serve.batch")
        faults.maybe("serve.engine")
        if head.op == "ata":
            return self.engine.run_batch(
                [request.a for request in batch],
                algo=head.algo, alpha=head.alpha)
        return self.engine.run_batch_atb(
            [(request.a, request.b) for request in batch],
            algo=head.algo, alpha=head.alpha)

    def _engine_matmul(self, request: Request) -> np.ndarray:
        """The engine call of a direct-route (CSR) request."""
        if request.op == "ata":
            return self.engine.matmul_ata(request.a, alpha=request.alpha,
                                          algo=request.algo)
        return self.engine.matmul_atb(request.a, request.b,
                                      alpha=request.alpha, algo=request.algo)

    # -- shutdown -----------------------------------------------------------
    async def close(self, *, drain: bool = True) -> None:
        """Stop admission and settle every admitted request.

        With ``drain=True`` (default) all pending queues flush immediately
        (busy workers or not) and the call returns once every admitted
        request has its result; with ``drain=False`` pending requests fail
        with :class:`ServerClosedError` and only already-dispatched
        batches are awaited.  Idempotent; afterwards ``submit`` raises
        :class:`ServerClosedError`.

        The shutdown itself is **single-flight**: the first call's
        ``drain`` policy wins and every concurrent or later ``close``
        awaits that one drain task instead of entering the body again —
        so a ``close(drain=False)`` racing a ``close(drain=True)`` can
        no longer fail requests the first call is mid-way through
        draining.  A caller cancelled while awaiting does not cancel the
        shutdown (other callers may be awaiting it too).
        """
        self._closing = True
        if self._closed:
            return
        self._bind_loop()
        if self._close_task is None:
            self._close_task = self._loop.create_task(self._shutdown(drain))
        await asyncio.shield(self._close_task)

    async def _shutdown(self, drain: bool) -> None:
        for queue in list(self._queues.values()):
            if drain:
                self._flush(queue)
            else:
                while queue.pending:
                    request = queue.pending.popleft()
                    if not request.future.done():
                        request.future.set_exception(ServerClosedError(
                            "server closed before the request was batched"))
        while self._batch_tasks:
            await asyncio.gather(*list(self._batch_tasks),
                                 return_exceptions=True)
        # one tick lets the futures' done-callbacks (scheduled by
        # set_result above) settle the admission counters
        await asyncio.sleep(0)
        self._closed = True
        self._executor.shutdown(wait=True)
        if self._owns_engine:
            self.engine.close()

    async def __aenter__(self) -> "Server":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    @property
    def closing(self) -> bool:
        """``True`` once :meth:`close` has started: admission is stopped
        (``submit`` raises :class:`ServerClosedError`), but admitted work
        may still be draining."""
        return self._closing

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` has *finished*: every admitted
        request is settled and the executor is shut down.  Implies
        :attr:`closing`; during the drain window the two differ."""
        return self._closed

    # -- introspection ------------------------------------------------------
    def stats(self) -> ServerStats:
        """Snapshot the admission ledger and every queue's accounting.

        Safe from any thread.  Counters of queues already retired from the
        live map are merged back under their key (or under the overflow
        bucket once the per-key retired bound is exceeded), so the
        accounting is monotonic over the server's lifetime.
        """
        with self._lock:
            queues = {key: QueueStats(key).merge(entry)
                      for key, entry in self._retired.items()}
            for key, queue in self._queues.items():
                snap = queues.setdefault(key, QueueStats(key))
                snap.merge(queue.counters).depth += len(queue.pending)
            merged = QueueStats("")
            for snap in queues.values():
                merged.merge(snap)
            ledger = _new_ledger()
            for entry in self._clients.values():
                ledger.update(entry)
            clients = {
                cid: ClientStats(client=cid,
                                 inflight=self._client_inflight.get(cid, 0),
                                 **entry)
                for cid, entry in self._clients.items()}
            return ServerStats(
                **ledger,
                inflight=self._inflight,
                depth=merged.depth,
                batches=merged.batches,
                batched_requests=merged.batched_requests,
                max_batch_size=merged.max_batch_size,
                size_histogram=dict(merged.size_histogram),
                queues=queues,
                clients=clients,
            )

    def metrics_text(self) -> str:
        """Render the serving metrics in the Prometheus exposition
        format (safe from any thread; the wire front door serves this
        as its ``metrics`` op).

        Cumulative ledger counters come first; then the **decaying**
        sliding-window histograms of wait latency, run latency and
        coalesced batch size (only the trailing ``window`` seconds of
        samples; a spike ages out of the scrape instead of flattening
        into day-old totals, and ``_sum / _count`` is the recent mean);
        then the per-client ledger, labelled by client id; last the
        engine's :class:`~repro.engine.EngineStats`, one
        ``repro_engine_<field>`` gauge per int field and one labelled
        ``repro_engine_<field>_total`` family per mapping field
        (``backend_runs`` by backend, ``dispatch_reasons`` by reason).
        """
        stats = self.stats()
        lines: List[str] = []

        def counter(name: str, value, help_text: str,
                    kind: str = "counter") -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            lines.append(f"{name} {value}")

        counter("repro_serve_requests_submitted_total", stats.submitted,
                "Requests that entered admission control.")
        lines.append("# HELP repro_serve_requests_total "
                     "Settled requests by outcome.")
        lines.append("# TYPE repro_serve_requests_total counter")
        for outcome in ("completed", "failed", "rejected", "cancelled",
                        "expired"):
            lines.append('repro_serve_requests_total'
                         f'{{outcome="{outcome}"}} '
                         f'{getattr(stats, outcome)}')
        counter("repro_serve_inflight", stats.inflight,
                "Admitted requests not yet settled.", kind="gauge")
        counter("repro_serve_queue_depth", stats.depth,
                "Requests pending across all coalescing queues.",
                kind="gauge")
        counter("repro_serve_batches_total", stats.batches,
                "Batches dispatched to the engine.")
        counter("repro_serve_batched_requests_total",
                stats.batched_requests,
                "Requests carried by dispatched batches.")

        with self._lock:
            now = self._metrics.clock()
            window = self._metrics.window
            hists = (
                ("repro_serve_wait_seconds", self._metrics.wait_hist,
                 "Request wait (enqueue to dispatch) seconds"),
                ("repro_serve_run_seconds", self._metrics.run_hist,
                 "Engine batch execution seconds"),
                ("repro_serve_batch_size", self._metrics.batch_hist,
                 "Coalesced batch sizes"),
            )
            rendered = []
            for name, hist, help_text in hists:
                cumulative, total, count = hist.snapshot(now)
                rendered.append((name, hist.bounds, cumulative, total,
                                 count, help_text))

        for name, bounds, cumulative, total, count, help_text in rendered:
            lines.append(f"# HELP {name} {help_text} over the trailing "
                         f"{window:g}s window.")
            lines.append(f"# TYPE {name} histogram")
            for bound, running in zip(bounds, cumulative):
                lines.append(f'{name}_bucket{{le="{bound:g}"}} {running}')
            lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative[-1]}')
            lines.append(f"{name}_sum {total:g}")
            lines.append(f"{name}_count {count}")

        lines.append("# HELP repro_serve_client_requests_total "
                     "Per-client ledger by outcome.")
        lines.append("# TYPE repro_serve_client_requests_total counter")
        for cid in sorted(stats.clients):
            snap = stats.clients[cid]
            for outcome in _LEDGER_FIELDS:
                lines.append(
                    'repro_serve_client_requests_total'
                    f'{{client="{_label(cid)}",outcome="{outcome}"}} '
                    f'{getattr(snap, outcome)}')

        engine = self.engine.stats()
        for field in dataclasses.fields(engine):
            value = getattr(engine, field.name)
            label = field.metadata.get("label")
            if label is None:
                counter(f"repro_engine_{field.name}", value,
                        f"EngineStats.{field.name} of the serving engine.",
                        kind="gauge")
                continue
            name = f"repro_engine_{field.name}_total"
            lines.append(f"# HELP {name} Engine executions by {label} "
                         f"(EngineStats.{field.name}).")
            lines.append(f"# TYPE {name} counter")
            for key in sorted(value):
                lines.append(f'{name}{{{label}="{_label(key)}"}} {value[key]}')
        return "\n".join(lines) + "\n"
