"""Serving-layer experiment: coalescing effectiveness under concurrent
clients.

``engine_serving`` drives an asyncio :class:`~repro.serve.Server` with
waves of concurrent same-shape clients and reports what the serving layer
exists to produce: few, large ``run_batch`` calls on the shared engine
(the coalesced batch-size distribution) and a warm plan cache (hit rate
after the first wave's compile).  Both are *structural* effects of the
event-loop batching, not wall-clock ones, so the numbers are meaningful
even on the single-core container the measured tables are recorded on —
wall-clock throughput is reported for context, never asserted.
"""

from __future__ import annotations

import asyncio
from typing import List, Sequence

from ..config import configured
from ..engine import ExecutionEngine
from .harness import register
from .reporting import ExperimentTable
from .workloads import random_matrix

__all__ = ["engine_serving"]


@register("engine_serving",
          "Coalesced batch-size distribution and warm-plan hit rate of the "
          "asyncio serving front-end under concurrent clients",
          "Engine architecture (DESIGN.md)")
def engine_serving(clients: Sequence[int] = (4, 16, 64),
                   n: int = 192,
                   max_batch: int = 8,
                   base_case_elements: int = 256) -> List[ExperimentTable]:
    """Measure request coalescing through :class:`repro.serve.Server`.

    Parameters
    ----------
    clients:
        Concurrent same-shape client counts to sweep (each count runs on
        a fresh server + engine, after a single warm-up request).
    n:
        Square problem size every client submits.
    max_batch:
        Server batch bound (``Config.serve_max_batch`` analogue).
    base_case_elements:
        Base-case threshold for the sweep.
    """
    table = ExperimentTable(
        "engine_serving",
        "per client count: engine run_batch calls, coalesced batch sizes, "
        "plan-cache hit rate after warm-up, wait/run split, wall seconds",
        ["clients", "batches", "mean_batch", "max_batch", "histogram",
         "plan_hit_rate", "mean_wait_ms", "mean_run_ms", "wall_seconds"])

    async def _wave(count: int):
        from ..serve import Server  # local: keep bench import-light
        import time
        engine = ExecutionEngine()
        async with Server(engine, max_batch=max_batch,
                          max_inflight=max(256, 2 * count)) as server:
            warm = random_matrix(n, n, seed=0)
            await server.submit(warm)  # compile + pool once
            mats = [random_matrix(n, n, seed=i + 1) for i in range(count)]
            start = time.perf_counter()
            await asyncio.gather(*(server.submit(a) for a in mats))
            wall = time.perf_counter() - start
            return server.stats(), engine.stats(), wall

    with configured(base_case_elements=base_case_elements):
        for count in clients:
            stats, estats, wall = asyncio.run(_wave(count))
            (queue_stats,) = stats.queues.values()
            histogram = ",".join(
                f"{size}x{cnt}" for size, cnt
                in sorted(stats.size_histogram.items()))
            table.add_row(
                count, stats.batches, round(stats.mean_batch_size, 2),
                stats.max_batch_size, histogram,
                round(estats.plan_hit_rate, 3),
                round(1e3 * queue_stats.mean_wait_seconds, 3),
                round(1e3 * queue_stats.mean_run_seconds, 3),
                round(wall, 4))
    table.add_note("all clients submit the same shape, so one coalescing "
                   "queue carries the whole wave; the warm-up request is "
                   "included in the batch/hit-rate accounting (it is the "
                   "single plan miss)")
    table.add_note("batching is an event-loop effect: these distributions "
                   "hold on a single-core host, where wall-clock speedup "
                   "from executor threads does not")
    return [table]


@register("serving_tcp",
          "Round-trip latency, coalescing and ledger hygiene of the TCP "
          "front door under concurrent wire clients",
          "Serving architecture (DESIGN.md)")
def serving_tcp(connections: Sequence[int] = (1, 4),
                requests_per_connection: int = 16,
                n: int = 192,
                max_batch: int = 8,
                base_case_elements: int = 256) -> List[ExperimentTable]:
    """Measure the wire tier end to end over loopback TCP.

    Each sweep point opens ``connections`` :class:`repro.serve.Client`
    connections to one :class:`repro.serve.NetServer` and fires
    ``requests_per_connection`` concurrent submits per connection.  The
    table reports the structural serving effects (batches, coalesced
    sizes) plus the wire-specific ones: per-request round-trip latency
    through framing + loopback + coalescing, and the ledger identity
    holding over the run.  Like ``engine_serving``, the coalescing
    numbers are event-loop effects and meaningful on a single-core
    host; wall-clock figures are context, never asserted.
    """
    table = ExperimentTable(
        "serving_tcp",
        "per connection count: wire requests, engine batches, coalesced "
        "mean batch, round-trip latency, ledger reconciliation",
        ["connections", "requests", "batches", "mean_batch",
         "rtt_mean_ms", "rtt_p99_ms", "ledger_ok", "wall_seconds"])

    async def _wave(count: int):
        import time
        from ..serve import Client, NetServer
        engine = ExecutionEngine()
        async with NetServer(
                server=None, engine=engine, max_batch=max_batch,
                max_inflight=max(256, 2 * count
                                 * requests_per_connection)) as net:
            warm = random_matrix(n, n, seed=0)
            clients = [await Client(port=net.port).connect()
                       for _ in range(count)]
            try:
                await clients[0].submit(warm)  # compile + pool once
                mats = [random_matrix(n, n, seed=i + 1)
                        for i in range(count * requests_per_connection)]
                rtts = []

                async def one(client, a):
                    start = time.perf_counter()
                    await client.submit(a)
                    rtts.append(time.perf_counter() - start)

                start = time.perf_counter()
                await asyncio.gather(
                    *(one(clients[i % count], a)
                      for i, a in enumerate(mats)))
                wall = time.perf_counter() - start
            finally:
                for client in clients:
                    await client.aclose()
            stats = net.server.stats()
            return stats, rtts, wall

    with configured(base_case_elements=base_case_elements):
        for count in connections:
            stats, rtts, wall = asyncio.run(_wave(count))
            rtts.sort()
            ledger_ok = (stats.submitted
                         == stats.completed + stats.failed
                         + stats.rejected + stats.cancelled
                         + stats.expired)
            table.add_row(
                count, len(rtts), stats.batches,
                round(stats.mean_batch_size, 2),
                round(1e3 * sum(rtts) / len(rtts), 3),
                round(1e3 * rtts[max(0, int(0.99 * len(rtts)) - 1)], 3),
                ledger_ok, round(wall, 4))
    table.add_note("round trips cross real loopback sockets: the latency "
                   "includes framing, the wait for a free executor worker "
                   "and coalesced execution, which is why rtt >> "
                   "per-request engine time at high concurrency")
    table.add_note("ledger_ok asserts the admission identity submitted == "
                   "completed+failed+rejected+cancelled+expired after the "
                   "wave drains")
    return [table]
