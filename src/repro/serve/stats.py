"""Point-in-time statistics snapshots and decaying metrics for the
serving layer.

Mirrors the style of :class:`repro.engine.EngineStats`: dataclasses
produced by ``stats()`` calls, safe to read from any thread, with
derived rates as properties.  Three levels exist:

* :class:`QueueStats` — one per coalescing queue (one per
  ``(op, algo, dtype, shape-bucket, alpha)`` key): current depth, how many
  requests and batches it saw, the coalesced batch-size distribution, and
  the split between time requests spent *waiting* to be batched and time
  their batches spent *running* on the engine.  It is also the one
  counter form the server keeps: a live queue's counters, a retired
  queue's aggregate and a snapshot are all ``QueueStats``, folded
  together by :meth:`QueueStats.merge` (a snapshot is a fresh copy);
* :class:`ClientStats` — the per-client-id slice of the admission ledger
  (what the fairness policy arbitrates over);
* :class:`ServerStats` — the server-wide admission-control ledger, the
  sum of the per-client ledgers.  The accounting identity every drained
  server satisfies is::

      submitted == completed + failed + rejected + cancelled + expired

  (while requests are in flight the right-hand side lags by
  ``inflight``).  ``tests/test_serve_admission.py`` and
  ``tests/test_fault_injection.py`` assert this reconciliation under
  load, cancellation, deadline expiry and injected failures.

Alongside the cumulative snapshots live the **decaying metrics** that
back :meth:`repro.serve.Server.metrics_text`: a monitoring scrape needs
"what is latency like *now*", which cumulative totals cannot answer once
a server has days of history flattening every spike.  One estimator
serves each metric: :class:`WindowHistogram`, a sliding-window histogram
(a ring of fixed-span slots; expired slots are dropped at read time),
rendered Prometheus-style with cumulative ``le`` buckets over the live
window; its ``_sum / _count`` is the recent mean.  It reads an
injectable clock so tests can drive decay deterministically.
:class:`ServingMetrics` bundles the server's instances (wait/run latency
and batch size) behind the two hooks the server calls at dispatch and
execution time.
"""

from __future__ import annotations

import bisect
import dataclasses
import time
from collections import Counter
from typing import Callable, List, Mapping, Sequence, Tuple

__all__ = ["QueueStats", "ClientStats", "ServerStats", "WindowHistogram",
           "ServingMetrics"]


@dataclasses.dataclass
class QueueStats:
    """Accounting of one coalescing queue."""

    #: the queue's coalescing key, rendered as a string
    key: str
    #: requests currently pending (admitted, not yet dispatched)
    depth: int = 0
    #: requests ever enqueued here
    submitted: int = 0
    #: batches dispatched to the engine
    batches: int = 0
    #: requests those batches carried in total
    batched_requests: int = 0
    #: largest batch dispatched
    max_batch_size: int = 0
    #: batch-size distribution: ``{size: count}``
    size_histogram: Counter = dataclasses.field(default_factory=Counter)
    #: total seconds requests spent waiting between enqueue and dispatch
    wait_seconds: float = 0.0
    #: total seconds the queue's batches spent executing on the engine
    run_seconds: float = 0.0

    def merge(self, other: "QueueStats") -> "QueueStats":
        """Fold ``other``'s counters into this one; returns ``self``."""
        self.depth += other.depth
        self.submitted += other.submitted
        self.batches += other.batches
        self.batched_requests += other.batched_requests
        self.max_batch_size = max(self.max_batch_size, other.max_batch_size)
        self.size_histogram.update(other.size_histogram)
        self.wait_seconds += other.wait_seconds
        self.run_seconds += other.run_seconds
        return self

    @property
    def mean_batch_size(self) -> float:
        return self.batched_requests / self.batches if self.batches else 0.0

    @property
    def mean_wait_seconds(self) -> float:
        return (self.wait_seconds / self.batched_requests
                if self.batched_requests else 0.0)

    @property
    def mean_run_seconds(self) -> float:
        return self.run_seconds / self.batches if self.batches else 0.0


@dataclasses.dataclass(frozen=True)
class ClientStats:
    """One client id's slice of the admission ledger.

    The same identity as the server ledger holds per client once its
    requests settle: ``submitted == completed + failed + rejected +
    cancelled + expired`` (lagging by ``inflight`` meanwhile).  This is
    the evidence the fairness policy is judged by — a starved client
    shows up as ``submitted`` with nothing in ``completed``.
    """

    #: the client id (per-connection on the wire; ``submit(client=...)``
    #: in process)
    client: str
    submitted: int
    completed: int
    failed: int
    rejected: int
    cancelled: int
    expired: int
    #: admitted-but-unsettled requests this client holds right now
    inflight: int

    @property
    def accounted(self) -> int:
        return (self.completed + self.failed + self.rejected
                + self.cancelled + self.expired)


@dataclasses.dataclass(frozen=True)
class ServerStats:
    """Server-wide admission, completion and coalescing accounting; the
    six ledger fields are the sums of :attr:`clients`."""

    #: requests that passed validation and entered admission control
    submitted: int
    #: requests whose result was delivered
    completed: int
    #: requests whose batch raised — the exception was delivered instead
    failed: int
    #: requests refused by admission control (:class:`QueueFullError`)
    rejected: int
    #: requests cancelled by their client before a result was delivered
    cancelled: int
    #: requests whose deadline expired before a result was delivered
    #: (:class:`~repro.errors.DeadlineError`)
    expired: int
    #: admitted requests not yet completed/failed/cancelled/expired
    inflight: int
    #: requests currently pending across all queues
    depth: int
    #: batches dispatched across all queues
    batches: int
    #: requests those batches carried in total
    batched_requests: int
    #: largest batch dispatched by any queue
    max_batch_size: int
    #: merged batch-size distribution: ``{size: count}``
    size_histogram: Mapping[int, int]
    #: per-queue snapshots, keyed by the queue's rendered key
    queues: Mapping[str, QueueStats]
    #: per-client ledger slices, keyed by client id (bounded: the oldest
    #: entries merge into an overflow bucket, mirroring retired queues)
    clients: Mapping[str, ClientStats] = dataclasses.field(
        default_factory=dict)

    @property
    def mean_batch_size(self) -> float:
        return self.batched_requests / self.batches if self.batches else 0.0

    @property
    def accounted(self) -> int:
        """``completed + failed + rejected + cancelled + expired`` —
        equals ``submitted`` once the server is drained (lags by
        ``inflight`` while work is outstanding)."""
        return (self.completed + self.failed + self.rejected
                + self.cancelled + self.expired)


# ---------------------------------------------------------------------------
# decaying metrics
# ---------------------------------------------------------------------------

class WindowHistogram:
    """Sliding-window histogram over fixed bucket boundaries.

    Samples land in a ring of ``slots`` time slots, each spanning
    ``window / slots`` seconds; a slot whose epoch has rotated out of the
    window is reset on write and ignored on read, so a snapshot only ever
    covers the trailing ``window`` seconds (with slot-span granularity).
    That is the "decaying" in the metrics contract: a latency spike ages
    out of the scrape within ``window`` seconds instead of polluting a
    cumulative histogram forever.

    ``bounds`` are the finite upper bucket edges (ascending); an implicit
    ``+Inf`` bucket catches the rest.  Rendering is Prometheus-style:
    cumulative ``le`` counts plus ``_sum`` and ``_count``.
    """

    def __init__(self, bounds: Sequence[float], *, window: float = 60.0,
                 slots: int = 6) -> None:
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("bounds must be non-empty, ascending, unique")
        if window <= 0 or slots < 1:
            raise ValueError("window must be > 0 seconds and slots >= 1")
        self.bounds = tuple(float(b) for b in bounds)
        self.window = float(window)
        self.slots = int(slots)
        self._span = self.window / self.slots
        # per slot: [epoch, counts (len(bounds) + 1 for +Inf), sum, count]
        self._ring: List[list] = [
            [-1, [0] * (len(self.bounds) + 1), 0.0, 0]
            for _ in range(self.slots)]

    def record(self, value: float, now: float) -> None:
        epoch = int(now // self._span)
        slot = self._ring[epoch % self.slots]
        if slot[0] != epoch:
            slot[0] = epoch
            slot[1] = [0] * (len(self.bounds) + 1)
            slot[2] = 0.0
            slot[3] = 0
        slot[1][bisect.bisect_left(self.bounds, float(value))] += 1
        slot[2] += float(value)
        slot[3] += 1

    def snapshot(self, now: float) -> Tuple[List[int], float, int]:
        """``(cumulative le counts incl. +Inf, sum, count)`` over the
        slots still inside the window as of ``now``."""
        epoch = int(now // self._span)
        counts = [0] * (len(self.bounds) + 1)
        total = 0.0
        n = 0
        for slot in self._ring:
            if slot[0] < 0 or slot[0] <= epoch - self.slots:
                continue  # never written, or rotated out of the window
            for i, c in enumerate(slot[1]):
                counts[i] += c
            total += slot[2]
            n += slot[3]
        running = 0
        cumulative = []
        for c in counts:
            running += c
            cumulative.append(running)
        return cumulative, total, n


#: wait/run latency bucket edges (seconds) — spans sub-millisecond queue
#: hops through multi-second overload tails
LATENCY_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                   0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: coalesced batch-size bucket edges (requests per engine call)
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


class ServingMetrics:
    """The server's decaying estimators behind ``metrics_text()``.

    Two hooks mirror where the cumulative counters are already fed: one
    per dispatched batch (per-request waits + the batch size), one per
    executed batch (engine run seconds).  The caller provides the mutual
    exclusion (the server records under its stats lock); the injectable
    ``clock`` is what lets tests age the window deterministically.
    """

    def __init__(self, *, window: float = 60.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.window = float(window)
        self.clock = clock
        self.wait_hist = WindowHistogram(LATENCY_BUCKETS, window=window)
        self.run_hist = WindowHistogram(LATENCY_BUCKETS, window=window)
        self.batch_hist = WindowHistogram(BATCH_SIZE_BUCKETS, window=window)

    def observe_dispatch(self, waits: Sequence[float], size: int) -> None:
        now = self.clock()
        for wait in waits:
            self.wait_hist.record(wait, now)
        self.batch_hist.record(size, now)

    def observe_run(self, seconds: float) -> None:
        now = self.clock()
        self.run_hist.record(seconds, now)
