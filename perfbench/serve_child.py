"""The server under test for the serve_lone workload.

Runs one :class:`repro.serve.NetServer` at its default settings (linger
2 ms, max_batch 8, one executor thread) on an ephemeral loopback port,
prints ``port <n>`` once listening, and serves until its standard input
closes.  It then drains, and writes the server's ledger and stats, its
peak resident set and (with ``--trace 1``) the per-layer record and
every raw span to ``--out``.  Tracing wrappers are installed here,
inside the server process, before the server is built.

    python3 perfbench/serve_child.py --workdir .perfbench_work/x \\
        --out server.json
"""

import argparse
import dataclasses
import json
import sys

import hermetic


def _args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, default=0)
    return parser.parse_args()


def main() -> int:
    args = _args()
    hermetic.apply(args.workdir)

    import asyncio
    import resource

    import tracing
    from repro.serve import NetServer

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install_engine(tracer)
        tracing.install_wire(tracer)
        tracing.install_serving(tracer)

    async def serve():
        net = await NetServer().start()
        try:
            print(f"port {net.port}", flush=True)
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, sys.stdin.buffer.read)
        finally:
            await net.close()
        return net.server

    server = asyncio.run(serve())
    stats = server.stats()
    queues = stats.queues.values()
    record = {
        "ledger": {field: getattr(stats, field)
                   for field in ("submitted", "completed", "failed",
                                 "rejected", "cancelled", "expired",
                                 "inflight")},
        "batches": stats.batches,
        "batched_requests": stats.batched_requests,
        "wait_s": sum(q.wait_seconds for q in queues),
        "run_s": sum(q.run_seconds for q in queues),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        record["layers"] = {
            "spans": tracer.summary(), "plan_steps": tracer.plan_steps,
            "counters": tracing.counter_totals(),
            "engine": dataclasses.asdict(server.engine.stats())}
        record["raw_spans"] = tracer.raw()
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
