"""Per-shape coalescing queues for the asyncio serving front-end.

A :class:`BatchQueue` holds the pending requests of one coalescing key —
``(op, algo, dtype, shape bucket, alpha)`` — until the server dispatches
them as one ``run_batch`` / ``run_batch_atb`` call: at once when
``max_batch`` requests are waiting, else when a worker is free and this
queue's oldest live request has waited longest.  Shapes are bucketed
to powers of two (:func:`shape_bucket`): the batch entry points resolve
plans per matrix, so requests in one bucket need not match exactly —
bucketing just keeps traffic that *will* share warm plans and workspaces
together, and traffic that won't apart.

Everything in this module runs on the server's event loop (appends from
``submit``, takes from the dispatcher), so no locking is needed here;
the server guards the counters it reads from other threads.
"""

from __future__ import annotations

import dataclasses
import time
from collections import deque
from typing import Any, Deque, List, Optional, Sequence, Tuple

import numpy as np

from .stats import QueueStats

__all__ = ["BatchQueue", "Request", "queue_key"]


def shape_bucket(shape: Sequence[int]) -> Tuple[int, ...]:
    """Round every dimension up to the next power of two (minimum 1)."""
    return tuple(1 << max(0, int(dim) - 1).bit_length() for dim in shape)


def queue_key(op: str, algo: str, dtype, shape: Tuple[int, ...],
              alpha: float) -> str:
    """Render one coalescing key.

    Everything that must be uniform inside a ``run_batch`` call is in the
    key: the operation and algorithm selector (one batch, one backend
    resolution mode), the dtype, and ``alpha``.  The shape enters as its
    power-of-two bucket, not exactly — see the module docstring.
    """
    bucket = "x".join(map(str, shape_bucket(shape)))
    return f"{op}|{algo}|{np.dtype(dtype).str}|{bucket}|a{float(alpha)!r}"


@dataclasses.dataclass
class Request:
    """One admitted request, carried from admission to settlement —
    in a queue until its batch forms on the coalesced route, alone on
    the direct route."""

    a: np.ndarray
    b: Optional[np.ndarray]
    op: str
    algo: str
    alpha: float
    future: Any  # asyncio.Future, created on the server's loop
    #: the submitting client id — what fairness arbitrates over (one id
    #: per connection on the wire, ``submit(client=...)`` in process)
    client: str = "anonymous"
    enqueued: float = dataclasses.field(default_factory=time.monotonic)


class BatchQueue:
    """Pending requests of one coalescing key, plus their accounting.

    The server owns the dispatch logic (it needs the loop, the executor
    and the engine); the queue owns the pending deque and the per-queue
    :attr:`counters`.
    """

    def __init__(self, key: str) -> None:
        self.key = key
        self.pending: Deque[Request] = deque()
        #: round-robin rotation of the client drain order across batches
        self._rr = 0
        #: dispatched batches not yet finished — the server retires a
        #: queue (drops it from the live map, folding its counters into
        #: the retired aggregate) only when pending and outstanding are
        #: both clear
        self.outstanding = 0
        #: the queue's accounting (``depth`` stays 0 here: it is
        #: ``len(pending)``, read at snapshot time)
        self.counters = QueueStats(key)

    def append(self, request: Request) -> None:
        self.pending.append(request)
        self.counters.submitted += 1

    def live_count(self) -> int:
        """Pending requests whose future is still unsettled.

        This — not ``len(pending)`` — is what the server's flush
        threshold compares against ``max_batch``: the deque also holds
        husks (cancelled or deadline-expired requests awaiting their
        drop at :meth:`take` time), and counting those would dispatch
        premature partial batches under deadline churn.
        """
        return sum(1 for request in self.pending
                   if not request.future.done())

    def oldest_live(self) -> Optional[float]:
        """Enqueue time of the oldest live pending request, or ``None``."""
        return next((request.enqueued for request in self.pending
                     if not request.future.done()), None)

    def prune(self) -> None:
        """Drop settled husks from the pending deque.

        Called when a deadline timer fires: expiry under load settles
        requests that stay physically queued until the next flush, and
        letting them pile up would make every ``live_count`` scan pay
        for the dead.  Dropping them here is safe for the same reason
        :meth:`take`'s drop is — a done future never joins a batch, and
        its admission accounting already ran via the done-callback.
        """
        if any(request.future.done() for request in self.pending):
            self.pending = deque(request for request in self.pending
                                 if not request.future.done())

    def take(self, max_batch: int) -> List[Request]:
        """Pop up to ``max_batch`` *live* requests for one batch,
        interleaving clients round-robin.

        Requests whose future is already done — cancelled by their client
        while waiting, or settled with
        :class:`~repro.errors.DeadlineError` by an expired deadline timer
        — are silently dropped here and never join a batch, which is what
        keeps a dead waiter from corrupting the coalesced results (the
        batch's positional ``zip`` with its outputs only ever covers live
        requests).  Their admission accounting is handled by the server's
        future done-callback.

        The batch is filled by cycling over the queue's clients (each
        client's own requests stay FIFO; the cycle's starting client
        rotates batch to batch), so when a chatty client has queued a
        pile ahead of a companion, the companion's request still rides
        the very next batch instead of waiting out the pile — the
        round-robin half of the fairness policy (admission shares are
        the other half).  With one client this degenerates to exact
        FIFO.  Requests left over stay pending in arrival order.
        """
        order = list(self.pending)
        self.pending.clear()
        live = [request for request in order if not request.future.done()]
        if not live:
            return []
        per_client: dict = {}
        clients: List[str] = []
        for request in live:
            if request.client not in per_client:
                per_client[request.client] = deque()
                clients.append(request.client)
            per_client[request.client].append(request)
        if len(clients) > 1:
            rotation = self._rr % len(clients)
            clients = clients[rotation:] + clients[:rotation]
            self._rr += 1
        batch: List[Request] = []
        while per_client and len(batch) < max_batch:
            for client in list(clients):
                queue = per_client.get(client)
                if queue is None:
                    continue
                batch.append(queue.popleft())
                if not queue:
                    del per_client[client]
                    clients.remove(client)
                if len(batch) >= max_batch:
                    break
        chosen = {id(request) for request in batch}
        self.pending.extend(request for request in live
                            if id(request) not in chosen)
        return batch

    def note_dispatch(self, batch: List[Request]) -> List[float]:
        """Record one dispatched batch into the queue's counters;
        returns each request's wait (enqueue -> dispatch) in seconds.

        Samples the clock itself, per call: a multi-batch flush that
        charged one pre-loop timestamp to every batch would understate
        ``wait_seconds`` for the later batches by however long the
        earlier dispatches took.
        """
        now = time.monotonic()
        waits = [now - request.enqueued for request in batch]
        size = len(batch)
        self.outstanding += 1
        counters = self.counters
        counters.batches += 1
        counters.batched_requests += size
        counters.max_batch_size = max(counters.max_batch_size, size)
        counters.size_histogram[size] += 1
        counters.wait_seconds += sum(waits)
        return waits
