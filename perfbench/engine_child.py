"""The process under test for the in-process workloads (gram_dense,
ooc_stream).

Started by ``run.py``, which times it from launch until it prints
``ready`` (its first verified result: imports, plan compiles and farm
spawns included).  It then measures closed-loop units of work for
``--seconds`` and writes one JSON record to ``--out``.

    python3 perfbench/engine_child.py --workload gram_dense \\
        --workdir .perfbench_work/x --seconds 5 --out result.json
"""

import argparse
import dataclasses
import json
import os
import sys
import time

import hermetic


def _args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("gram_dense", "ooc_stream"))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--quick", type=int, default=0)
    parser.add_argument("--out", required=True)
    return parser.parse_args()


def main() -> int:
    args = _args()
    hermetic.apply(args.workdir)

    import resource

    import numpy as np

    import repro
    import tracing
    from workloads import FARM_PROCS, WORKLOADS, Tally, ooc_budget

    workload = WORKLOADS[args.workload]
    quick = bool(args.quick)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install_engine(tracer)
    tally = Tally()

    if args.workload == "gram_dense":
        ops = workload.shape_set(quick)
        data = np.load(os.path.join(args.workdir, "inputs.npz"))
        cases = [(op, data[f"a{i}"], data[f"b{i}"] if op.op == "atb" else None,
                  data[f"ref{i}"]) for i, op in enumerate(ops)]

        def unit():
            """One pass over the shape set; returns its call time."""
            spent, results = 0.0, []
            for op, a, b, _ in cases:
                start = time.perf_counter()
                if op.op == "ata":
                    result = repro.matmul_ata(a)
                else:
                    result = repro.matmul_atb(a, b)
                spent += time.perf_counter() - start
                results.append(result)
            for (op, _, _, ref), result in zip(cases, results):
                tally.check(op, result, ref)
            return spent

        unit_flops = sum(op.flops for op in ops)
    else:
        op = workload.shape_set(quick)[0]
        a = np.load(os.path.join(args.workdir, "ooc.npy"), mmap_mode="r")
        ref = np.load(os.path.join(args.workdir, "ooc_ref.npy"))
        budget = ooc_budget(workload, quick, FARM_PROCS)
        farm_stats = []
        tracing.install_worker_dumps(args.workdir, tracer)

        def unit():
            """One run_ooc call over the on-disk operand."""
            start = time.perf_counter()
            result, stats = repro.run_ooc(a, budget=budget, procs=FARM_PROCS)
            spent = time.perf_counter() - start
            farm_stats.append(stats)
            tally.check(op, result, ref)
            return spent

        unit_flops = op.flops

    unit()
    print("ready", flush=True)

    samples = []
    deadline = time.perf_counter() + args.seconds
    while not samples or time.perf_counter() < deadline:
        samples.append(unit())

    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {"samples": samples, "tally": tally.as_dict(),
              "unit_flops": unit_flops}
    dumps = tracing.collect_worker_dumps(args.workdir)
    if args.workload == "ooc_stream":
        # the parent's peak plus, for each of the workers that run at
        # once, the largest growth any worker had over its inheritance
        growth_kib = max(dump["growth_kib"] for dump in dumps)
        record["rss_parts_mb"] = [rss_kib / 1024.0, growth_kib / 1024.0]
        rss_kib += FARM_PROCS * growth_kib
        last = farm_stats[-1]
        record["farm"] = {
            "panels": last.panels, "procs": last.procs,
            "resident_mb_high": max(s.bytes_resident_high
                                    for s in farm_stats) / 2**20,
            "respawns": sum(s.respawns for s in farm_stats)}
    record["peak_rss_mb"] = rss_kib / 1024.0
    if tracer is not None:
        spans = tracing.merge(tracer.summary(),
                              *(d["spans"] for d in dumps))
        tracing.check_fired(args.workload, spans)
        counters = tracing.counter_totals()
        for dump in dumps:
            counters = tracing.merge(counters, dump["counters"])
        steps = dict(tracer.plan_steps)
        for dump in dumps:
            steps.update(dump["plan_steps"])
        record["layers"] = {
            "spans": spans, "plan_steps": steps, "counters": counters,
            "engine": dataclasses.asdict(repro.default_engine().stats()),
            "useful_flops": unit_flops * (len(samples) + 1)}
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
