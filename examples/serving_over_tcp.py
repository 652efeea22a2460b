"""Serve Gram-matrix clients over TCP through the network front door.

The wire tier (:class:`repro.serve.NetServer` / :class:`repro.serve.
Client`) puts a socket in front of the asyncio serving layer: clients on
other processes or hosts submit matrices through a length-prefixed
framed protocol, and every decoded request funnels into the same
:class:`repro.Server` — so wire traffic inherits the coalescing,
admission control, per-client fairness and ledger guarantees of the
in-process front-end, and results stay bit-identical to direct engine
calls after a round trip through the socket.

This example binds a loopback server, fans 16 requests across 4
connections with pinned client ids, and then scrapes the server's
Prometheus-style ``metrics`` endpoint over the same protocol.

Run with ``python examples/serving_over_tcp.py``.
"""

import asyncio

import numpy as np

from repro.engine import ExecutionEngine
from repro.serve import Client, NetServer

CONNECTIONS = 4
REQUESTS_PER_CONNECTION = 4
SHAPE = (300, 120)


async def wire_client(port: int, name: str,
                      matrices: list) -> list:
    # each connection is one framed TCP session with its own pinned
    # client id, so the server's per-client ledger and fair-share
    # admission see it as a distinct principal
    async with Client(port=port, client_id=name) as client:
        return await asyncio.gather(*(client.submit(a) for a in matrices))


async def main() -> None:
    rng = np.random.default_rng(11)
    matrices = [rng.standard_normal(SHAPE)
                for _ in range(CONNECTIONS * REQUESTS_PER_CONNECTION)]

    engine = ExecutionEngine()
    async with NetServer(engine=engine, max_batch=8) as net:
        waves = [matrices[i::CONNECTIONS] for i in range(CONNECTIONS)]
        results = await asyncio.gather(
            *(wire_client(net.port, f"tcp-client-{i}", wave)
              for i, wave in enumerate(waves)))
        # the metrics endpoint answers over the same framed protocol
        async with Client(port=net.port, client_id="scraper") as scraper:
            exposition = await scraper.metrics()
        stats = net.server.stats()

    reference = ExecutionEngine()
    identical = all(
        np.array_equal(c, reference.matmul_ata(a))
        for wave, outs in zip(waves, results)
        for a, c in zip(wave, outs))
    ledger_ok = (stats.submitted
                 == stats.completed + stats.failed + stats.rejected
                 + stats.cancelled + stats.expired)

    print(f"[tcp] {CONNECTIONS} connections x "
          f"{REQUESTS_PER_CONNECTION} requests on 127.0.0.1:{net.port} -> "
          f"{stats.batches} batches "
          f"(mean size {stats.mean_batch_size:.2f})")
    print("[tcp] per-client ledger: "
          + ", ".join(f"{cid}={cs.completed}/{cs.submitted}"
                      for cid, cs in sorted(stats.clients.items())))
    print(f"[tcp] ledger reconciles exactly: {ledger_ok}")
    scraped = [line for line in exposition.splitlines()
               if line.startswith("repro_serve_requests_submitted_total")]
    print(f"[tcp] metrics scrape: {scraped[0]}")
    print("[tcp] results bit-identical after the wire round trip: "
          f"{identical}")


if __name__ == "__main__":
    asyncio.run(main())
