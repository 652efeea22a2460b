"""Orchestration behind ``run.py``: inputs, child processes, metrics.

The process running this module is the load generator and the oracle.
The system under test always runs in a child it starts: the engine
child for gram_dense and ooc_stream, the server child for serve_lone.
An untraced run starts ``SETUPS`` such children one after another.
Each is timed from launch to its first verified result (the median is
``setup_s``) and then measures ``1/SETUPS`` of the window; their samples
are pooled, so a run's figures span several processes and more of the
run's wall time than one child would.
"""

import asyncio
import ctypes
import itertools
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

import numpy as np

import tracing
from workloads import (FARM_PROCS, SPARSE_EVERY, WORKLOADS, Tally,
                       make_cases, make_ooc_input)

HERE = os.path.dirname(os.path.abspath(__file__))

#: child processes (cold starts) per untraced run
SETUPS = 3
#: seconds a child may take to report ready, and to exit once told to
SETUP_TIMEOUT = 120.0
EXIT_TIMEOUT = 60.0

#: declared in BENCHMARK.json, so every workload reports each of them.
#: gflops is a total (useful flops over measured seconds), not a median:
#: the shared host this was tuned on switches between a fast and a slow
#: speed for tens of seconds at a time, and over such a mixture a median
#: jumps from one mode to the other while a total moves only with the
#: share of time spent in each.  latency_p50_ms, latency_p99_ms and
#: serving's ``rps`` are printed beside them but not declared: the p50
#: of a run's passes swung by a third between runs of the same code, and
#: rps (or, on the in-process workloads, calls/s) is gflops rescaled.
END_TO_END = (("setup_s", "s"), ("gflops", "GFLOP/s"),
              ("peak_rss_mb", "MiB"))

#: latency_p99_ms is printed only from this many samples up, so that at
#: least ten lie beyond it
P99_MIN_SAMPLES = 1000

FLOOR_SHAPES = ("ata_1024x1024", "ata_4096x256", "ata_512x512",
                "atb_1024x512x512")
PLAN_SHAPES = FLOOR_SHAPES + ("ata_64x64", "ata_128x128", "ata_192x96",
                              "atb_128x128x64", "ata_2048x256")
BACKENDS = ("ata", "syrk", "strassen", "blas_direct", "sparse_gram",
            "densify")

PER_LAYER = (
    (("wire.frames", "count"), ("wire.bytes_per_req", "B/req"),
     ("wire.codec_us_per_req", "us/req"),
     ("wire.rtt_minus_server_ms", "ms/req"),
     ("serve.batches", "count"), ("serve.mean_batch", "req/batch"),
     ("serve.wait_ms_mean", "ms/req"), ("serve.run_ms_mean", "ms/batch"),
     ("serve.rejected", "count"), ("serve.sparse_direct", "count"),
     ("dispatch.calls", "count"), ("dispatch.self_us_per_call", "us/call"))
    + tuple((f"dispatch.backend_runs.{name}", "count") for name in BACKENDS)
    + (("plan.hits", "count"), ("plan.misses", "count"),
       ("plan.compile_s", "s"))
    + tuple((f"plan.steps.{shape}", "count") for shape in PLAN_SHAPES)
    + (("replay.ms_per_call", "ms/call"), ("replay.us_per_step", "us/step"),
       ("replay.dag_runs", "count"),
       ("kernel.calls", "count"), ("kernel.gflop", "GFLOP"),
       ("kernel.gbytes_computed", "GB"), ("kernel.flops_per_byte", "flop/B"),
       ("kernel.flops_per_useful_flop", "ratio"),
       ("pool.allocations", "count"), ("pool.reuses", "count"),
       ("pool.bytes_high", "B"),
       ("farm.panels", "count"), ("farm.procs", "count"),
       ("farm.resident_mb_high", "MiB"), ("farm.respawns", "count"),
       ("sparse.runs", "count"), ("sparse.nnz", "count"),
       ("sparse.densify_crossovers", "count"))
    + tuple((f"floor.numpy_ms.{shape}", "ms") for shape in FLOOR_SHAPES)
    + tuple((f"floor.syrk_ms.{shape}", "ms") for shape in FLOOR_SHAPES[:3])
    + (("floor.gemm_ms.atb_1024x512x512", "ms"),
       ("trace.overhead_frac", "ratio")))


class Child:
    """A process the benchmark starts; always reaped, even on error."""

    def __init__(self, script: str, *argv: str) -> None:
        self.script = script
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, script), *argv],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._buffer = b""

    def expect(self, word: str, timeout: float = SETUP_TIMEOUT) -> str:
        """Wait for the child's next stdout line, which must start with
        ``word``; returns the rest of it."""
        deadline = time.perf_counter() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError(f"{self.script} did not report {word!r} "
                                   f"within {timeout:g}s")
            if select.select([fd], [], [], remaining)[0]:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError(
                        f"{self.script} exited with status "
                        f"{self.proc.wait()} before reporting {word!r}")
                self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        text = line.decode().strip()
        if not text.startswith(word):
            raise RuntimeError(f"{self.script} said {text!r}, "
                               f"expected {word!r}")
        return text[len(word):].strip()

    def finish(self, timeout: float = EXIT_TIMEOUT) -> None:
        """Close the child's stdin, wait for it, and require status 0."""
        self.proc.stdin.close()
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        finally:
            self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"{self.script} exited with status {code}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.kill()


def _percentile_ms(samples, q: float) -> float:
    return float(np.percentile(samples, q)) * 1e3


def _latency_report(latencies, unit: str) -> dict:
    """The printed p50 line, and p99 where there are enough samples for
    it."""
    n = len(latencies)
    extra = {"latency_p50_ms": (_percentile_ms(latencies, 50), "ms",
                                f"n={n} {unit}")}
    if n >= P99_MIN_SAMPLES:
        extra["latency_p99_ms"] = (_percentile_ms(latencies, 99), "ms",
                                   f"n={n} {unit}")
    return extra


# ---------------------------------------------------------------------------
# gram_dense / ooc_stream: the engine child
# ---------------------------------------------------------------------------

def _engine_session(args, workdir: str, seconds: float, trace: int,
                    tag: str):
    out = os.path.join(workdir, f"result-{tag}.json")
    with Child("engine_child.py", "--workload", args.workload,
               "--workdir", workdir, "--quick", str(int(args.quick)),
               "--seconds", repr(seconds), "--trace", str(trace),
               "--out", out) as child:
        child.expect("ready")
        setup_s = time.perf_counter() - child.started
        child.finish(seconds * 3 + EXIT_TIMEOUT)
    with open(out) as fh:
        return setup_s, json.load(fh)


def _engine_metrics(records) -> dict:
    """Useful flops over the time spent in every child's measured units
    (one pass, or one run_ooc call), and the median unit."""
    samples = [s for r in records for s in r["samples"]]
    return {"gflops": records[0]["unit_flops"] * len(samples)
            / sum(samples) / 1e9,
            "latency_p50_ms": statistics.median(samples) * 1e3,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in records)}


def _save(path: str, save, *arrays, **named) -> None:
    """Write inputs and flush them to disk, so that page-cache writeback
    does not run during the measurement."""
    with open(path, "wb") as fh:
        save(fh, *arrays, **named)
        fh.flush()
        os.fsync(fh.fileno())


def _prepare_engine_inputs(args, workdir: str) -> None:
    workload = WORKLOADS[args.workload]
    if args.workload == "ooc_stream":
        a, ref = make_ooc_input(workload, args.seed, args.quick)
        _save(os.path.join(workdir, "ooc.npy"), np.save, a)
        _save(os.path.join(workdir, "ooc_ref.npy"), np.save, ref)
        return
    arrays = {}
    for i, (op, a, b, ref, _) in enumerate(make_cases(workload, args.seed,
                                                      args.quick)):
        arrays[f"a{i}"], arrays[f"ref{i}"] = a, ref
        if b is not None:
            arrays[f"b{i}"] = b
    _save(os.path.join(workdir, "inputs.npz"), np.savez, **arrays)


def run_engine(args, workdir: str) -> dict:
    _prepare_engine_inputs(args, workdir)
    if args.trace:
        half = args.seconds / 2
        _, plain = _engine_session(args, workdir, half, 0, "plain")
        _, traced = _engine_session(args, workdir, half, 1, "traced")
        tally = Tally.from_dict(plain["tally"]).merge(
            Tally.from_dict(traced["tally"]))
        return _traced_report(args, _engine_metrics([plain]),
                              _engine_metrics([traced]), traced["layers"],
                              tally, True, farm=traced.get("farm"))
    count = _setups(args)
    runs = [_engine_session(args, workdir, args.seconds / count, 0, str(i))
            for i in range(count)]
    setups = [setup_s for setup_s, _ in runs]
    records = [record for _, record in runs]
    metrics = _engine_metrics(records)
    metrics["setup_s"] = statistics.median(setups)
    tally = Tally()
    for record in records:
        tally.merge(Tally.from_dict(record["tally"]))
    report = _plain_report(metrics, tally, True,
                           [s for r in records for s in r["samples"]], setups,
                           "passes" if args.workload == "gram_dense"
                           else "run_ooc calls")
    if args.workload == "ooc_stream":
        parent, growth = max(
            records, key=lambda r: r["peak_rss_mb"])["rss_parts_mb"]
        report["notes"]["peak_rss_mb"] = (
            f"parent {parent:.1f} + {FARM_PROCS} x largest worker growth "
            f"{growth:.1f}")
    return report


def _setups(args) -> int:
    return 1 if args.quick else SETUPS


# ---------------------------------------------------------------------------
# serve_lone: the server child and a TCP load generator
# ---------------------------------------------------------------------------

def _request_picker(cases):
    """The i-th request of the stream: every ``SPARSE_EVERY``-th is a
    CSR case, the rest cycle through the dense cases."""
    dense = [case for case in cases if case[0].density >= 1.0]
    sparse = [case for case in cases if case[0].density < 1.0]

    def pick(i: int):
        if i % SPARSE_EVERY == SPARSE_EVERY - 1:
            return sparse[(i // SPARSE_EVERY) % len(sparse)]
        return dense[(i - i // SPARSE_EVERY) % len(dense)]

    return pick


class _Load:
    """Outcome of the requests one server session saw."""

    def __init__(self) -> None:
        self.tally = Tally()
        self.latencies = []
        #: (completion time, useful flops) of every verified result
        self.done = []
        self.submits = 0

    @property
    def flops(self) -> int:
        return sum(flops for _, flops in self.done)


async def _submit(client, case, load: _Load) -> None:
    from repro.errors import QueueFullError

    op, a, b, ref, flops = case
    load.submits += 1
    start = time.perf_counter()
    try:
        result = await client.submit(a, op.op, b)
    except QueueFullError:
        load.tally.error(refused=True)
        return
    except Exception:  # counted as failed; the run must go on
        load.tally.error(refused=False)
        return
    end = time.perf_counter()
    load.latencies.append(end - start)
    if load.tally.check(op, result, ref):
        load.done.append((end, flops))


async def _serve_session(args, workdir: str, cases, seconds: float,
                         trace: int, tag: str):
    """Start a server child, set up (first verified pass over the shape
    set), then send one request at a time over one connection, each
    after the previous reply, for ``seconds``; returns ``(setup_s, setup
    load, measured load, window start, server record)``."""
    from repro.serve import Client

    out = os.path.join(workdir, f"server-{tag}.json")
    pick = _request_picker(cases)
    first = {case[0]: case for case in reversed(cases)}
    setup, measured = _Load(), _Load()
    with Child("serve_child.py", "--workdir", workdir, "--out", out,
               "--trace", str(trace)) as child:
        client = await Client(port=int(child.expect("port"))).connect()
        try:
            for op in WORKLOADS[args.workload].shape_set(args.quick):
                await _submit(client, first[op], setup)
            setup_s = time.perf_counter() - child.started
            start = time.perf_counter()
            for i in itertools.count():
                if time.perf_counter() >= start + seconds:
                    break
                await _submit(client, pick(i), measured)
        finally:
            await client.aclose()
        child.finish()
    with open(out) as fh:
        record = json.load(fh)
    ledger = record["ledger"]
    settled = sum(ledger[k] for k in ("completed", "failed", "rejected",
                                      "cancelled", "expired"))
    record["ledger_ok"] = (ledger["submitted"] == settled
                           and ledger["inflight"] == 0
                           and ledger["submitted"]
                           == setup.submits + measured.submits)
    return setup_s, setup, measured, start, record


def _serve_metrics(sessions, records) -> dict:
    """Verified work over the sessions' measured windows (``(load,
    window start)`` pairs; a window ends at its last completion), and
    the median latency of every completed request."""
    seconds = sum(max(end for end, _ in load.done) - start
                  for load, start in sessions)
    return {"gflops": sum(load.flops for load, _ in sessions)
            / seconds / 1e9,
            "rps": sum(len(load.done) for load, _ in sessions) / seconds,
            "latency_p50_ms": _percentile_ms(
                [x for load, _ in sessions for x in load.latencies], 50),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in records)}


def _wire_layer(server: dict, client_spans: dict, loads) -> dict:
    spans = server["layers"]["spans"]
    requests = sum(load.submits for load in loads)
    latencies = [x for load in loads for x in load.latencies]
    codec = spans["wire.codec"]["total_s"] + client_spans.get(
        "wire.codec", {}).get("total_s", 0.0)
    submit = spans["wire.serve_submit"]
    wire_bytes = spans["wire.codec"]["units"] + spans["wire.frame"]["units"]
    batches = max(server["batches"], 1)
    batched = max(server["batched_requests"], 1)
    ledger = server["ledger"]
    return {
        "wire.frames": spans["wire.frame"]["count"],
        "wire.bytes_per_req": wire_bytes / requests,
        "wire.codec_us_per_req": codec / requests * 1e6,
        "wire.rtt_minus_server_ms":
            (statistics.fmean(latencies)
             - submit["total_s"] / submit["count"]) * 1e3,
        "serve.batches": server["batches"],
        "serve.mean_batch": server["batched_requests"] / batches,
        "serve.wait_ms_mean": server["wait_s"] / batched * 1e3,
        "serve.run_ms_mean": server["run_s"] / batches * 1e3,
        "serve.rejected": ledger["rejected"],
        "serve.sparse_direct": (ledger["submitted"] - ledger["rejected"]
                                - server["batched_requests"]),
    }


def run_serve(args, workdir: str) -> dict:
    workload = WORKLOADS[args.workload]
    cases = make_cases(workload, args.seed, args.quick, variants=4)
    if args.trace:
        half = args.seconds / 2
        _, plain_setup, plain, plain_start, plain_rec = asyncio.run(
            _serve_session(args, workdir, cases, half, 0, "plain"))
        client_tracer = tracing.Tracer()
        tracing.install_wire(client_tracer)
        try:
            _, setup, traced, start, record = asyncio.run(_serve_session(
                args, workdir, cases, half, 1, "traced"))
        finally:
            client_tracer.uninstall()
        record["layers"]["useful_flops"] = setup.flops + traced.flops
        tally, ledger_ok = _outcomes([plain_setup, plain, setup, traced],
                                     [plain_rec, record])
        return _traced_report(
            args, _serve_metrics([(plain, plain_start)], [plain_rec]),
            _serve_metrics([(traced, start)], [record]),
            record["layers"], tally, ledger_ok,
            wire=_wire_layer(record, client_tracer.summary(),
                             (setup, traced)))
    count = _setups(args)
    runs = [asyncio.run(_serve_session(args, workdir, cases,
                                       args.seconds / count, 0, str(i)))
            for i in range(count)]
    records = [run[4] for run in runs]
    metrics = _serve_metrics([(run[2], run[3]) for run in runs], records)
    metrics["setup_s"] = statistics.median(run[0] for run in runs)
    report = _plain_report(
        metrics, *_outcomes([load for run in runs for load in run[1:3]],
                            records),
        [x for run in runs for x in run[2].latencies],
        [run[0] for run in runs], "requests")
    report["extra"]["rps"] = (metrics["rps"], "req/s",
                              "verified requests per measured second")
    return report


def _outcomes(loads, records):
    """Every request's outcome, and whether every server ledger
    reconciled."""
    tally = Tally()
    for load in loads:
        tally.merge(load.tally)
    return tally, all(record["ledger_ok"] for record in records)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _plain_report(metrics: dict, tally: Tally, ledger_ok: bool, latencies,
                  setups, unit: str) -> dict:
    notes = {"setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups)}
    return {"metrics": {name: (metrics[name], u) for name, u in END_TO_END},
            "extra": _latency_report(latencies, unit), "tally": tally,
            "ledger_ok": ledger_ok, "notes": notes}


def _engine_layer(layers: dict) -> dict:
    spans, engine = layers["spans"], layers["engine"]

    def span(name, key="count"):
        return spans.get(name, {}).get(key, 0)

    kernels = [c for c in layers["counters"].values() if c["flops"] > 0]
    flops = sum(c["flops"] for c in kernels)
    kbytes = sum(c["bytes"] for c in kernels)
    out = {
        "dispatch.calls": span("dispatch"),
        "dispatch.self_us_per_call":
            span("dispatch", "self_s") / max(span("dispatch"), 1) * 1e6,
        "plan.hits": span("plan.lookup") - span("plan.compile"),
        "plan.misses": span("plan.compile"),
        "plan.compile_s": span("plan.compile", "total_s"),
        "replay.ms_per_call":
            span("replay", "total_s") / max(span("replay"), 1) * 1e3,
        "replay.us_per_step":
            span("replay", "total_s") / max(span("replay", "units"), 1) * 1e6,
        "replay.dag_runs": engine["dag_runs"],
        "kernel.calls": sum(c["calls"] for c in kernels),
        "kernel.gflop": flops / 1e9,
        "kernel.gbytes_computed": kbytes / 1e9,
        "kernel.flops_per_byte": flops / kbytes if kbytes else 0.0,
        "kernel.flops_per_useful_flop": flops / layers["useful_flops"],
        "pool.allocations": engine["pool_allocations"],
        "pool.reuses": engine["pool_reuses"],
        "pool.bytes_high": engine["pool_bytes_high"],
        "sparse.runs": engine["sparse_runs"],
        "sparse.nnz": engine["sparse_nnz"],
        "sparse.densify_crossovers": engine["densify_crossovers"],
    }
    for name in BACKENDS:
        out[f"dispatch.backend_runs.{name}"] = \
            engine["backend_runs"].get(name, 0)
    for shape in PLAN_SHAPES:
        out[f"plan.steps.{shape}"] = layers["plan_steps"].get(shape, 0)
    return out


def floors(seed: int) -> dict:
    """Host calibration on the gram_dense shapes: numpy ``A.T @ A`` (or
    ``A.T @ B``) and one bound BLAS call (``dsyrk``/``dgemm`` on
    Fortran-ordered views, so nothing is copied); medians of 5."""
    from scipy.linalg import blas

    def median_ms(fn) -> float:
        fn()
        times = []
        for _ in range(5):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return statistics.median(times) * 1e3

    out = {}
    for op, a, b, _, _ in make_cases(WORKLOADS["gram_dense"], seed, False):
        if op.op == "ata":
            out[f"floor.numpy_ms.{op.name}"] = median_ms(lambda: a.T @ a)
            out[f"floor.syrk_ms.{op.name}"] = median_ms(
                lambda: blas.dsyrk(1.0, a.T, lower=1))
        else:
            out[f"floor.numpy_ms.{op.name}"] = median_ms(lambda: a.T @ b)
            out[f"floor.gemm_ms.{op.name}"] = median_ms(
                lambda: blas.dgemm(1.0, a.T, b.T, trans_b=1))
    return out


def _traced_report(args, plain: dict, traced: dict, layers: dict,
                   tally: Tally, ledger_ok: bool, farm=None,
                   wire=None) -> dict:
    tracing.check_fired(args.workload, layers["spans"])
    values = dict.fromkeys((name for name, _ in PER_LAYER), 0)
    values.update(_engine_layer(layers))
    values.update(wire or {})
    values.update({f"farm.{key}": value
                   for key, value in (farm or {}).items()})
    values.update(floors(args.seed))
    values["trace.overhead_frac"] = (traced["latency_p50_ms"]
                                     / plain["latency_p50_ms"] - 1.0)
    fired = {name: layers["spans"][name]["count"]
             for name in tracing.EXPECTED[args.workload]}
    return {"metrics": {name: (values[name], unit)
                        for name, unit in PER_LAYER},
            "extra": {"spans_fired": (len(fired), "count", " ".join(
                f"{name}={count:g}" for name, count in fired.items()))},
            "tally": tally, "ledger_ok": ledger_ok,
            "notes": {"trace.overhead_frac":
                      f"traced p50 {traced['latency_p50_ms']:.4f} ms vs "
                      f"untraced {plain['latency_p50_ms']:.4f} ms"}}


def host_record() -> dict:
    import scipy

    caches = {}
    try:  # glibc's cpuid-backed sysconf; absent elsewhere
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        libc.sysconf.argtypes = [ctypes.c_int]
        for name, code in (("l1d", 188), ("l2", 191), ("l3", 194)):
            caches[name] = libc.sysconf(code)
    except (OSError, AttributeError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "cache_bytes": caches}


def run(args, workdir: str) -> int:
    if args.workload in ("gram_dense", "ooc_stream"):
        report = run_engine(args, workdir)
    else:
        report = run_serve(args, workdir)
    tally = report["tally"]
    correct = tally.bad == 0 and report["ledger_ok"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}"
          f"{' quick' if args.quick else ''}")
    print("host " + json.dumps(host_record(), sort_keys=True))
    lines = [(name, value, unit, report["notes"].get(name, ""))
             for name, (value, unit) in report["metrics"].items()]
    lines += [(name, *entry) for name, entry in report["extra"].items()]
    lines.append(("error_rate", tally.error_rate, "ratio",
                  f"{tally.bad} of {tally.attempted} attempted "
                  f"(failed {tally.failed}, refused {tally.refused}, "
                  f"wrong {tally.wrong}); ledger "
                  f"{'reconciles' if report['ledger_ok'] else 'BROKEN'}"))
    for name, value, unit, note in lines:
        print(f"  {name:<36} {value:>14.6g} {unit:<10} {note}".rstrip())
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.bad,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()}}))
    return 0
