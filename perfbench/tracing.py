"""Span recording around the calls into each layer's public functions.

A :class:`Tracer` replaces a function or method with a wrapper that
records ``(name, start, end, id, parent, units)`` in memory; the parent
is the span open in the same context when the call began, so a layer's
self time is its duration minus its children's.  Nothing is written
until the process summarises its spans at the end of the run.

Names bound by value must be wrapped where they are looked up:
``dispatch.py`` does ``from .plan import compile_plan, execute_plan``
and ``net.py`` imports the codec functions, so those are replaced in
the importing module's namespace, not in the defining one.

Spans of different processes are never mixed: each process summarises
its own (ids are per process) and :func:`merge` adds the summaries.
Farm workers are forked from the parent, inherit its wrappers, and
dump their own summary when their body returns (see
:func:`install_worker_dumps`, which untraced runs use too, for the
workers' memory growth).
"""

import asyncio
import collections
import contextvars
import functools
import itertools
import json
import os
import time

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)
_RAISED = object()

#: span names each workload must fire in a traced run; a wrapper that
#: never fires would otherwise report 0 without any error
EXPECTED = {
    "gram_dense": ("dispatch", "plan.lookup", "plan.compile", "replay"),
    "serve_lone": ("wire.codec", "wire.frame", "wire.serve_submit",
                   "serve.submit", "dispatch", "plan.lookup",
                   "plan.compile", "replay", "kernel.direct"),
    "ooc_stream": ("ooc.run", "farm.run", "farm.worker", "dispatch",
                   "plan.lookup", "plan.compile", "replay"),
}


class Tracer:
    """In-memory span recorder with reversible function wrappers."""

    def __init__(self) -> None:
        self.spans = []
        #: steps of every compiled plan, by shape name
        self.plan_steps = {}
        self._ids = itertools.count(1)
        self._undo = []

    def record(self, name, start, end, parent=None, units=0.0):
        self.spans.append((name, start, end, next(self._ids), parent, units))

    def wrap(self, owner, attr, name, units=None):
        """Replace ``owner.attr`` with a span-recording wrapper;
        ``units(args, kwargs, result)`` adds a per-span work count."""
        original = getattr(owner, attr)
        spans, ids = self.spans, self._ids

        def close(sid, parent, token, start, args, kwargs, result):
            end = time.perf_counter()
            _CURRENT.reset(token)
            amount = (units(args, kwargs, result)
                      if units and result is not _RAISED else 0.0)
            spans.append((name, start, end, sid, parent, amount))

        if asyncio.iscoroutinefunction(original):
            async def wrapper(*args, **kwargs):
                sid, parent = next(ids), _CURRENT.get()
                token = _CURRENT.set(sid)
                start, result = time.perf_counter(), _RAISED
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    close(sid, parent, token, start, args, kwargs, result)
        else:
            def wrapper(*args, **kwargs):
                sid, parent = next(ids), _CURRENT.get()
                token = _CURRENT.set(sid)
                start, result = time.perf_counter(), _RAISED
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    close(sid, parent, token, start, args, kwargs, result)

        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def note_plan(self, args, kwargs, plan) -> int:
        op = "ata" if len(plan.shape) == 2 else "atb"
        shape = "x".join(map(str, plan.shape))
        self.plan_steps[f"{op}_{shape}"] = plan.n_steps
        return plan.n_steps

    def summary(self) -> dict:
        """Per span name: count, total and self seconds, summed units."""
        covered = collections.defaultdict(float)
        for _, start, end, _, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = {}
        for name, start, end, sid, _, amount in self.spans:
            entry = out.setdefault(name, {"count": 0, "total_s": 0.0,
                                          "self_s": 0.0, "units": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered.get(sid, 0.0)
            entry["units"] += amount
        return out

    def raw(self) -> list:
        return [[name, start, end] for name, start, end, *_ in self.spans]


def merge(*summaries) -> dict:
    out = {}
    for summary in summaries:
        for name, entry in summary.items():
            into = out.setdefault(name, dict.fromkeys(entry, 0.0))
            for key, value in entry.items():
                into[key] += value
    return out


def check_fired(workload: str, summary: dict) -> None:
    missing = [name for name in EXPECTED[workload]
               if summary.get(name, {}).get("count", 0) == 0]
    if missing:
        raise RuntimeError(f"traced {workload} run: span(s) {missing} never "
                           "fired; a wrapper is bound where the code no "
                           "longer looks it up")


def counter_totals():
    from repro.blas import counters
    return counters.GLOBAL_COUNTERS.as_dict()


def counter_delta(before: dict, after: dict) -> dict:
    out = {}
    for category, now in after.items():
        then = before.get(category, {})
        out[category] = {key: value - then.get(key, 0)
                         for key, value in now.items()}
    return out


def install_engine(tracer: Tracer) -> None:
    """Dispatch, plan, replay, direct-kernel, out-of-core and farm spans
    in this process."""
    from repro.engine import backends, cache, dag, dispatch, farm, sparse

    engine = dispatch.ExecutionEngine
    for attr in ("matmul_ata", "matmul_atb", "run_batch", "run_batch_atb"):
        tracer.wrap(engine, attr, "dispatch")
    tracer.wrap(cache.PlanCache, "get_or_compile", "plan.lookup")
    tracer.wrap(dispatch, "compile_plan", "plan.compile",
                units=tracer.note_plan)
    tracer.wrap(dispatch, "execute_plan", "replay",
                units=lambda args, kwargs, result: args[0].n_steps)
    tracer.wrap(dag.DagExecutor, "execute", "replay",
                units=lambda args, kwargs, result: args[1].n_steps)
    tracer.wrap(dag.DagExecutor, "execute_batch", "replay",
                units=lambda args, kwargs, result:
                sum(entry[0].n_steps for entry in args[1]))
    for cls in (backends.BlasDirectBackend, sparse.SparseGramBackend,
                sparse.DensifyBackend):
        tracer.wrap(cls, "run", "kernel.direct")
    tracer.wrap(engine, "run_ooc", "ooc.run")
    tracer.wrap(farm.PanelFarm, "run", "farm.run")


def _status_kib(field: str) -> int:
    """One ``kB`` field of ``/proc/self/status`` (``VmRSS``, ``VmHWM``)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def install_worker_dumps(workdir: str, tracer=None) -> None:
    """Make every forked farm worker write one JSON dump to ``workdir``
    when its body returns: ``growth_kib``, how far its resident set grew
    above what it inherited, and, given a tracer, its own span, plan and
    kernel-counter summaries.  A forked child's peak counter starts at
    the parent's resident set, so the worker's ``ru_maxrss`` would count
    the parent's heap once more per worker."""
    from repro.engine import farm

    worker_main = farm._worker_main

    def dumping_worker_main(*args, **kwargs):
        entry = _status_kib("VmRSS")
        if tracer is not None:
            # start from an empty span list and no open parent, and
            # count only this worker's kernel work
            tracer.spans.clear()
            tracer.plan_steps.clear()
            _CURRENT.set(None)
            before = counter_totals()
        start = time.perf_counter()
        try:
            worker_main(*args, **kwargs)
        finally:
            dump = {"growth_kib": max(_status_kib("VmHWM") - entry, 0)}
            if tracer is not None:
                tracer.record("farm.worker", start, time.perf_counter())
                dump.update(spans=tracer.summary(),
                            plan_steps=tracer.plan_steps,
                            counters=counter_delta(before, counter_totals()))
            path = os.path.join(workdir, f"worker-{os.getpid()}.json")
            with open(path, "w") as fh:
                json.dump(dump, fh)

    farm._worker_main = dumping_worker_main


def collect_worker_dumps(workdir: str) -> list:
    dumps = []
    for name in sorted(os.listdir(workdir)):
        if name.startswith("worker-") and name.endswith(".json"):
            path = os.path.join(workdir, name)
            with open(path) as fh:
                dumps.append(json.load(fh))
            os.remove(path)
    return dumps


def install_wire(tracer: Tracer) -> None:
    """Codec and frame spans; units count bytes on the wire (headers
    with their prefix under ``wire.codec``, payloads under
    ``wire.frame``)."""
    from repro.serve import net, protocol

    prefix = protocol._PREFIX.size
    for attr in ("pack_array", "unpack_array", "pack_csr", "unpack_csr"):
        tracer.wrap(net, attr, "wire.codec")
    # write_frame/read_frame encode and decode headers through these
    tracer.wrap(protocol, "_encode_header", "wire.codec",
                units=lambda args, kwargs, result: len(result[1]) + prefix)
    tracer.wrap(protocol, "_decode_header", "wire.codec",
                units=lambda args, kwargs, result: len(args[1]) + prefix)

    def payload_size(args, kwargs, result):
        payload = args[2] if len(args) > 2 else kwargs.get("payload", b"")
        return getattr(payload, "nbytes", None) or len(payload)

    tracer.wrap(net, "write_frame", "wire.frame", units=payload_size)
    tracer.wrap(net, "read_frame", "wire.frame",
                units=lambda args, kwargs, result: len(result[1]))


def install_serving(tracer: Tracer) -> None:
    from repro.serve import net, server

    tracer.wrap(net.NetServer, "_serve_submit", "wire.serve_submit")
    tracer.wrap(server.Server, "submit", "serve.submit")
