"""Asyncio serving layer over the execution engine.

This package is the roadmap's "async serving front-end": concurrent
clients ``await`` :meth:`Server.submit` and the server coalesces their
requests — per ``(operation, algorithm, dtype, shape-bucket, alpha)``
queue — into the engine's batch entry points, so heavy traffic shares one
warm plan cache and workspace pool instead of each client
paying the recursion bookkeeping alone.  Admission control bounds the
in-flight work (:class:`~repro.errors.QueueFullError` backpressure, plus
a per-client fair share raising
:class:`~repro.errors.FairnessError`), and :meth:`Server.close` drains
gracefully.  Results are bit-identical (``np.array_equal``) to direct
:class:`~repro.engine.ExecutionEngine` calls — see
:mod:`repro.serve.server` for the argument.

On top of the in-process front-end sits the **network front door**
(:mod:`repro.serve.net`): :class:`NetServer` speaks a length-prefixed
framing of JSON headers and raw array payloads
(:mod:`repro.serve.protocol`) over TCP and
funnels every decoded request into one :class:`Server`, so wire traffic
inherits the same coalescing, admission, fairness, deadline and ledger
guarantees; :class:`Client` is the matching connector.

The serving tier takes in-memory operands, dense or CSR.  Out-of-core
work — an operand larger than RAM, as an array, a memmap or a chunk
iterator — goes through :func:`repro.run_ooc` instead.

Public surface:

* :class:`Server` — the front-end (``submit`` / ``close`` / ``stats``
  / ``metrics_text``);
* :class:`NetServer` / :class:`Client` — the TCP tier;
* :class:`ServerStats` / :class:`QueueStats` / :class:`ClientStats` —
  accounting snapshots;
* :class:`WindowHistogram` — the decaying estimator behind
  ``metrics_text``;
* :func:`retry` — client-side jittered-backoff retry for transient
  :class:`~repro.errors.QueueFullError` backpressure;
* :func:`queue_key` — the coalescing-key function (exposed for tests and
  capacity planning: traffic mapping to one key batches together).
"""

from .net import Client, NetServer
from .protocol import PROTOCOL_VERSION
from .queues import BatchQueue, Request, queue_key
from .retry import retry
from .server import Server
from .stats import (
    ClientStats,
    QueueStats,
    ServerStats,
    ServingMetrics,
    WindowHistogram,
)

__all__ = [
    "Server",
    "NetServer",
    "Client",
    "ServerStats",
    "QueueStats",
    "ClientStats",
    "ServingMetrics",
    "WindowHistogram",
    "BatchQueue",
    "Request",
    "queue_key",
    "retry",
    "PROTOCOL_VERSION",
]
