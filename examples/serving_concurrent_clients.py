"""Serve concurrent Gram-matrix clients through the asyncio front-end.

Simulates what the serving layer exists for: many clients concurrently
requesting A^T A products of similar shapes.  The :class:`repro.Server`
coalesces compatible requests into few ``run_batch`` calls on one shared
engine, so the whole swarm shares a single warm plan cache and workspace
pool — and every result stays bit-identical to a direct engine call.

Run with ``python examples/serving_concurrent_clients.py``.
"""

import asyncio

import numpy as np

import repro
from repro.engine import ExecutionEngine

CLIENTS = 24
SHAPES = [(300, 120), (256, 128)]


async def client(server: repro.Server, a: np.ndarray) -> np.ndarray:
    # a client is just a coroutine awaiting its own submit; admission
    # control (QueueFullError) and shutdown (ServerClosedError) surface
    # as exceptions it could catch and retry
    return await server.submit(a)


async def main() -> None:
    rng = np.random.default_rng(7)
    matrices = [rng.standard_normal(SHAPES[i % len(SHAPES)])
                for i in range(CLIENTS)]

    engine = ExecutionEngine()
    async with repro.Server(engine, max_batch=8) as server:
        results = await asyncio.gather(*(client(server, a) for a in matrices))
        stats = server.stats()

    engine_stats = engine.stats()
    reference = ExecutionEngine()
    identical = all(np.array_equal(c, reference.matmul_ata(a))
                    for a, c in zip(matrices, results))

    print(f"[serve] clients={CLIENTS} over {len(SHAPES)} shapes -> "
          f"{stats.batches} batches "
          f"(mean size {stats.mean_batch_size:.2f}, "
          f"max {stats.max_batch_size})")
    print("[serve] batch-size histogram: "
          + ", ".join(f"{size}x{count}" for size, count
                      in sorted(stats.size_histogram.items())))
    print(f"[serve] admission ledger: submitted={stats.submitted} "
          f"completed={stats.completed} rejected={stats.rejected} "
          f"cancelled={stats.cancelled}")
    print(f"[serve] engine plan hit rate: {engine_stats.plan_hit_rate:.3f} "
          f"({engine_stats.plan_misses} compiles for "
          f"{engine_stats.plan_hits + engine_stats.plan_misses} lookups)")
    print(f"[serve] results bit-identical to direct engine calls: {identical}")


if __name__ == "__main__":
    asyncio.run(main())
