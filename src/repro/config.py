"""Global configuration for the :mod:`repro` library.

The paper's algorithms are *cache oblivious*: they recurse until the
sub-problem "fits in cache" and then call a BLAS kernel (``?syrk`` or
``?gemm``).  The only tunable is therefore the base-case threshold, which
this module exposes together with a handful of library-wide defaults
(default floating point dtype, RNG seeding, whether kernels keep flop /
byte counters).

Configuration is held in a module-level :class:`Config` instance,
:data:`CONFIG`.  Code should *read* configuration through
:func:`get_config` and *modify* it either directly (for long-lived,
process-wide changes) or through the :func:`configured` context manager
(for scoped changes, e.g. inside tests).

Example
-------
>>> from repro.config import configured, get_config
>>> with configured(base_case_elements=256):
...     assert get_config().base_case_elements == 256
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from typing import Any, Iterator

import numpy as np

from .errors import ConfigurationError

#: Default number of matrix *elements* below which the recursion stops and a
#: BLAS kernel is invoked (the test compares the *product* m*n of the
#: sub-matrix dimensions).  The paper stops when the operand "fits in
#: cache" — m*n <= 4096, one 32 KiB L1 of doubles — which assumes a
#: compiled recursion.  Here every recursion step costs microseconds of
#: interpreter time, so "fits in cache" is read as "the point where the
#: BLAS leaf's efficiency saturates": a single-threaded sweep on the
#: gram_dense shapes (EXPERIMENTS.md) climbs from 2.4 GFLOP/s at 2**12 to
#: ~38 GFLOP/s at 2**20 and is flat beyond.  ``configured(
#: base_case_elements=4096)`` restores the paper's regime.
DEFAULT_BASE_CASE_ELEMENTS = 1 << 20

#: Default dtype for workloads and workspaces when the caller does not
#: specify one.
DEFAULT_DTYPE = np.float64

#: Default seed used by the workload generators in :mod:`repro.bench`.
DEFAULT_SEED = 0x5EED

#: Backend names the ``backend`` field / ``REPRO_BACKEND`` env var accept.
#: Mirrors the built-in registry of :mod:`repro.engine.backends` ("auto"
#: means "let dispatch choose").  Custom backends registered at runtime
#: are selected per call via ``algo=<name>`` instead of through the
#: process-wide configuration, which keeps this validation closed.
KNOWN_BACKENDS = ("auto", "syrk", "ata", "tiled", "recursive_gemm",
                  "strassen", "blas_direct", "sparse_gram", "densify",
                  "banded_ata", "lowrank_gram")

#: Default exploration budget of the measured auto-tuner: how many timed
#: samples each candidate backend gets per shape bucket before the tuner
#: starts exploiting the measured-fastest one.
DEFAULT_TUNER_EXPLORE = 3

#: Default maximum number of requests the serving layer coalesces into one
#: ``run_batch`` call.
DEFAULT_SERVE_MAX_BATCH = 8

#: Default bound on a server's in-flight requests (pending in a coalescing
#: queue or executing); submits beyond it are rejected with
#: :class:`repro.errors.QueueFullError`.
DEFAULT_SERVE_MAX_INFLIGHT = 256

#: Default linger: how long (milliseconds) a coalescing queue holds its
#: first request open for companions before flushing a partial batch.
#: ``0`` still coalesces requests submitted in the same event-loop
#: iteration (the flush runs after the currently scheduled callbacks).
DEFAULT_SERVE_LINGER_MS = 2.0

#: Default out-of-core memory budget in **bytes**.  ``0`` means unbounded:
#: the out-of-core executor runs the whole input as a single panel unless
#: a per-call budget or explicit panel size says otherwise.
DEFAULT_MEMORY_BUDGET = 0

#: Default worker-process count of the multi-process panel farm.  ``0``
#: keeps out-of-core runs in-process (the single-process streaming path);
#: callers opt into the farm per call via ``procs=N`` or process-wide
#: through this field / ``REPRO_FARM_PROCS``.
DEFAULT_FARM_PROCS = 0

#: Default retry budget per panel of the self-healing farm: how many times
#: a lost panel (dead or failing worker) is re-staged onto a respawned
#: worker before the run degrades to in-process completion.
DEFAULT_FARM_MAX_RETRIES = 2

#: Default TCP port of the serving network front door
#: (:class:`repro.serve.NetServer`).  ``0`` binds an ephemeral port (the
#: listener reports the one the OS picked), which is also the right
#: default for tests and benchmarks sharing one host.
DEFAULT_SERVE_PORT = 0

#: Default per-client fair share of the serving admission window, as a
#: fraction of ``serve_max_inflight`` in ``(0, 1]``.  ``1.0`` disables
#: fairness (admission is first-come, the pre-PR-9 behaviour); smaller
#: values bound any one client id to ``max(1, floor(share *
#: max_inflight))`` in-flight requests, rejected beyond that with
#: :class:`repro.errors.FairnessError`.
DEFAULT_SERVE_FAIR_SHARE = 1.0

#: Default serving deadline in milliseconds.  ``0`` means no deadline: a
#: request waits as long as the queue and engine take.  Per-call
#: ``submit(timeout=...)`` overrides win.
DEFAULT_SERVE_TIMEOUT_MS = 0.0

#: Modes the ``fuse`` field / ``REPRO_FUSE`` env var accept.
FUSE_MODES = ("off", "on", "auto")

#: Modes the ``codegen`` field / ``REPRO_CODEGEN`` env var accept.
CODEGEN_MODES = ("off", "on", "auto")

#: Modes the ``tuner_mode`` field / ``REPRO_TUNER`` env var accept.
TUNER_MODES = ("off", "measured", "frozen")


@dataclasses.dataclass
class Config:
    """Library-wide tunables.

    Attributes
    ----------
    base_case_elements:
        Sub-problems with ``m * n`` (for A^T A) or ``m * n + m * k`` (for
        A^T B) at most this many elements are solved by a direct BLAS call
        instead of recursing.  Mirrors the cache-size test of Algorithm 1 /
        Algorithm 2 in the paper.
    default_dtype:
        dtype used when callers do not specify one explicitly.
    count_flops:
        When True the BLAS substrate records floating point operation and
        byte-traffic counts into the active
        :class:`repro.blas.counters.CounterSet`.  Counting costs a few
        percent of runtime and is enabled by default because the
        performance model and several benchmarks rely on it.
    strict_finite:
        When True, top-level entry points validate that inputs contain no
        NaN/Inf values.  Disabled by default (the check is O(mn)).
    seed:
        Default seed for workload generation.
    max_recursion_depth:
        Safety valve against pathological configurations (e.g. a base case
        of 0 elements).  The recursion depth of a well-formed call is
        bounded by ``ceil(log2(max(m, n)))``; this limit is far above that.
    backend:
        Forces ``algo="auto"`` dispatch in :mod:`repro.engine` onto one
        named backend (one of :data:`KNOWN_BACKENDS`).  ``"auto"``
        (default) lets the engine choose — heuristically, or by measured
        timings when a tuner is attached.  A forced backend that does not
        support a given operation/dtype is skipped for that call (e.g.
        ``blas_direct`` on a host without BLAS symbols).
    tuner_path:
        Filesystem path of the measured auto-tuner's persisted timing
        table.  ``None`` resolves to ``~/.cache/repro/tuner.json`` (or
        ``$REPRO_TUNER_PATH``).
    tuner_explore:
        Exploration budget of the measured auto-tuner: timed samples each
        candidate backend receives per shape bucket before the tuner
        exploits the fastest.  Budgets ≥ 2 are recommended for real
        traffic — the first sample on a plan-compiled backend includes
        its one-off compile cost, which ``best-of-budget`` filters out
        from the second sample on (a budget of 1 is mainly for tests
        driving the tuner with an injected clock).
    serve_max_batch:
        Default maximum coalesced batch size of :class:`repro.serve.Server`
        queues (a server reads it once at construction; per-server
        overrides win).
    serve_max_inflight:
        Default admission-control bound of :class:`repro.serve.Server`:
        in-flight requests beyond it are rejected with
        :class:`repro.errors.QueueFullError`.
    serve_linger_ms:
        Default milliseconds a serving queue holds its first request open
        for coalescing companions before flushing a partial batch.
    serve_port:
        Default TCP port of the serving network front door
        (:class:`repro.serve.NetServer`); ``0`` (default) binds an
        ephemeral port.
    serve_fair_share:
        Default per-client fair share of the serving admission window,
        as a fraction of ``serve_max_inflight`` in ``(0, 1]``.  ``1.0``
        (default) keeps admission first-come; below it, one client id
        may hold at most ``max(1, floor(share * max_inflight))``
        in-flight requests (:class:`repro.errors.FairnessError` beyond),
        and queue drains interleave clients round-robin so a chatty
        client cannot starve its queue's companions.
    memory_budget:
        Out-of-core working-set budget in bytes for
        :class:`repro.engine.ooc.ShardedAtA` /
        :func:`repro.engine.matmul_ata_ooc`: the resident output ``C``
        plus the streamed row panel(s) of ``A`` must fit inside it (the
        panel bytes count twice while the prefetch thread double-buffers).
        ``0`` (default) means unbounded — the whole input is one panel.
        A budget too small for ``C`` plus a single row raises
        :class:`repro.errors.BudgetError`.
    farm_procs:
        Default worker-process count for out-of-core runs
        (:class:`repro.engine.farm.PanelFarm`).  ``0`` (default) keeps
        runs in-process; ``N >= 1`` fans panels out to ``N`` worker
        processes over shared-memory arenas.  Per-call ``procs=``
        overrides win; ``procs=None`` on a farm instance resolves to
        :func:`repro.engine.cpu.available_cpus`.
    farm_max_retries:
        Per-panel retry budget of the self-healing farm: a panel lost to
        a dead or failing worker is re-staged onto a respawned worker at
        most this many times before the run degrades to finishing the
        remaining panels in-process (``0`` = degrade on the first
        failure; degradation preserves the schedule, so the result stays
        bit-identical).
    serve_default_timeout_ms:
        Default deadline (milliseconds) of :meth:`repro.serve.Server.submit`
        requests.  A request that has no result when its deadline expires
        is settled with :class:`repro.errors.DeadlineError` and dropped
        from its coalescing queue without poisoning companions.  ``0``
        (default) = no deadline; per-call ``timeout=`` overrides win.
    faults:
        Fault-injection spec (see :mod:`repro.faults` for the grammar),
        e.g. ``"farm.worker:kill@p1,serve.batch:raise@0.1"``.  Empty
        (default) keeps every fault site a zero-overhead no-op — never
        set in production; this exists for chaos tests and failure
        drills.
    fuse:
        Plan-fusion mode for ``algo="auto"`` dispatch: ``"on"`` (default)
        compiles plans with the step-fusion pass (bit-identical to the
        unfused replay, fewer Python dispatches), ``"off"`` disables it,
        and ``"auto"`` defers the fused-vs-unfused choice to an attached
        measured tuner per (op, dtype, shape-bucket) — identical to
        ``"on"`` on engines without a tuner.  Explicit ``algo=`` calls
        and direct :func:`repro.engine.plan.compile_plan` calls are
        unaffected.
    codegen:
        Compiled lowering of fused units (:mod:`repro.engine.codegen`):
        ``"off"`` (default) always interprets; ``"on"``/``"auto"`` lower
        fused units to jitted kernels when a provider (numba) is
        importable, verifying each kernel bit-for-bit against the
        interpreter on its first call and falling back bit-identically
        when the toolchain is absent or a kernel miscompiles.
    tuner_mode:
        How the *default* engine attaches the measured auto-tuner:
        ``"off"`` (default) keeps heuristic dispatch, ``"measured"``
        attaches a recording tuner (explores, then exploits — repeated
        runs may time differently while exploring), ``"frozen"`` attaches
        a read-only tuner that only ever exploits the persisted table —
        deterministic backend choices across runs, falling back to the
        heuristic for buckets the table has never sampled.  Engines
        constructed explicitly pass their own ``tuner=``.
    """

    base_case_elements: int = DEFAULT_BASE_CASE_ELEMENTS
    default_dtype: Any = DEFAULT_DTYPE
    count_flops: bool = True
    strict_finite: bool = False
    seed: int = DEFAULT_SEED
    max_recursion_depth: int = 64
    backend: str = "auto"
    tuner_path: Any = None
    tuner_explore: int = DEFAULT_TUNER_EXPLORE
    serve_max_batch: int = DEFAULT_SERVE_MAX_BATCH
    serve_max_inflight: int = DEFAULT_SERVE_MAX_INFLIGHT
    serve_linger_ms: float = DEFAULT_SERVE_LINGER_MS
    serve_port: int = DEFAULT_SERVE_PORT
    serve_fair_share: float = DEFAULT_SERVE_FAIR_SHARE
    memory_budget: int = DEFAULT_MEMORY_BUDGET
    farm_procs: int = DEFAULT_FARM_PROCS
    farm_max_retries: int = DEFAULT_FARM_MAX_RETRIES
    serve_default_timeout_ms: float = DEFAULT_SERVE_TIMEOUT_MS
    faults: str = ""
    fuse: str = "on"
    codegen: str = "off"
    tuner_mode: str = "off"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` if any field is out of range."""
        if self.base_case_elements < 1:
            raise ConfigurationError(
                f"base_case_elements must be >= 1, got {self.base_case_elements}"
            )
        if self.max_recursion_depth < 1:
            raise ConfigurationError(
                f"max_recursion_depth must be >= 1, got {self.max_recursion_depth}"
            )
        dt = np.dtype(self.default_dtype)
        if dt.kind not in ("f", "c"):
            raise ConfigurationError(
                f"default_dtype must be a floating or complex dtype, got {dt}"
            )
        if self.backend not in KNOWN_BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; expected one of "
                f"{KNOWN_BACKENDS} (custom backends are selected per call "
                "via algo=<name>)"
            )
        if self.tuner_explore < 1:
            raise ConfigurationError(
                f"tuner_explore must be >= 1, got {self.tuner_explore}"
            )
        if self.serve_max_batch < 1:
            raise ConfigurationError(
                f"serve_max_batch must be >= 1, got {self.serve_max_batch}"
            )
        if self.serve_max_inflight < 1:
            raise ConfigurationError(
                f"serve_max_inflight must be >= 1, got {self.serve_max_inflight}"
            )
        if not (self.serve_linger_ms >= 0):
            raise ConfigurationError(
                f"serve_linger_ms must be >= 0, got {self.serve_linger_ms}"
            )
        if not (0 <= self.serve_port <= 65535):
            raise ConfigurationError(
                "serve_port must be in [0, 65535] (0 = ephemeral), got "
                f"{self.serve_port}"
            )
        if not (0.0 < self.serve_fair_share <= 1.0):
            raise ConfigurationError(
                "serve_fair_share must be in (0, 1] (1 = fairness off), "
                f"got {self.serve_fair_share}"
            )
        if self.memory_budget < 0:
            raise ConfigurationError(
                "memory_budget must be >= 0 bytes (0 = unbounded), got "
                f"{self.memory_budget}"
            )
        if self.farm_procs < 0:
            raise ConfigurationError(
                "farm_procs must be >= 0 (0 = in-process), got "
                f"{self.farm_procs}"
            )
        if self.farm_max_retries < 0:
            raise ConfigurationError(
                "farm_max_retries must be >= 0 (0 = degrade on first "
                f"failure), got {self.farm_max_retries}"
            )
        if not (self.serve_default_timeout_ms >= 0):
            raise ConfigurationError(
                "serve_default_timeout_ms must be >= 0 (0 = no deadline), "
                f"got {self.serve_default_timeout_ms}"
            )
        if self.faults:
            # compile for validation only (lazy import: repro.faults
            # imports this module); the compiled plan itself is cached by
            # the faults module keyed on (spec, seed)
            from .faults import compile_spec
            compile_spec(self.faults, self.seed)
        if self.fuse not in FUSE_MODES:
            raise ConfigurationError(
                f"unknown fuse mode {self.fuse!r}; expected one of {FUSE_MODES}"
            )
        if self.codegen not in CODEGEN_MODES:
            raise ConfigurationError(
                f"unknown codegen mode {self.codegen!r}; expected one of "
                f"{CODEGEN_MODES}"
            )
        if self.tuner_mode not in TUNER_MODES:
            raise ConfigurationError(
                f"unknown tuner_mode {self.tuner_mode!r}; expected one of "
                f"{TUNER_MODES}"
            )

    def replace(self, **changes: Any) -> "Config":
        """Return a copy of this configuration with ``changes`` applied."""
        return dataclasses.replace(self, **changes)


def _config_from_env() -> Config:
    """Build the initial configuration, honouring ``REPRO_*`` env vars.

    Recognised variables:

    ``REPRO_BASE_CASE``     integer, base-case element count.
    ``REPRO_COUNT_FLOPS``   "0"/"1", toggle instrumentation.
    ``REPRO_SEED``          integer, default workload seed.
    ``REPRO_BACKEND``       backend name forcing ``algo="auto"`` dispatch
                            (one of :data:`KNOWN_BACKENDS`); unknown names
                            raise :class:`ConfigurationError`.
    ``REPRO_TUNER_PATH``    path of the auto-tuner's persisted timing table.
    ``REPRO_SERVE_MAX_BATCH``     integer, serving coalesced-batch bound.
    ``REPRO_SERVE_MAX_INFLIGHT``  integer, serving admission-control bound.
    ``REPRO_SERVE_LINGER_MS``     float, serving queue linger (milliseconds).
    ``REPRO_SERVE_PORT``          integer, serving TCP port (0 = ephemeral).
    ``REPRO_SERVE_FAIR_SHARE``    float in (0, 1], per-client share of the
                                  serving admission window (1 = off).
    ``REPRO_MEMORY_BUDGET``       integer, out-of-core working-set budget in
                                  bytes (0 = unbounded).
    ``REPRO_FARM_PROCS``          integer, default panel-farm worker-process
                                  count (0 = in-process).
    ``REPRO_FARM_MAX_RETRIES``    integer, per-panel retry budget of the
                                  self-healing farm (0 = degrade on the
                                  first failure).
    ``REPRO_SERVE_TIMEOUT_MS``    float, default serving deadline in
                                  milliseconds (0 = no deadline).
    ``REPRO_FAULTS``              fault-injection spec (:mod:`repro.faults`
                                  grammar); empty = all sites disarmed.
    ``REPRO_FUSE``                plan-fusion mode (one of
                                  :data:`FUSE_MODES`).
    ``REPRO_CODEGEN``             compiled-lowering mode (one of
                                  :data:`CODEGEN_MODES`).
    ``REPRO_TUNER``               default-engine tuner mode (one of
                                  :data:`TUNER_MODES`).
    """
    kwargs: dict[str, Any] = {}
    if "REPRO_BASE_CASE" in os.environ:
        kwargs["base_case_elements"] = int(os.environ["REPRO_BASE_CASE"])
    if "REPRO_COUNT_FLOPS" in os.environ:
        kwargs["count_flops"] = os.environ["REPRO_COUNT_FLOPS"] not in ("0", "false", "")
    if "REPRO_SEED" in os.environ:
        kwargs["seed"] = int(os.environ["REPRO_SEED"])
    if "REPRO_BACKEND" in os.environ:
        kwargs["backend"] = os.environ["REPRO_BACKEND"]
    if "REPRO_TUNER_PATH" in os.environ:
        kwargs["tuner_path"] = os.environ["REPRO_TUNER_PATH"]
    if "REPRO_SERVE_MAX_BATCH" in os.environ:
        kwargs["serve_max_batch"] = int(os.environ["REPRO_SERVE_MAX_BATCH"])
    if "REPRO_SERVE_MAX_INFLIGHT" in os.environ:
        kwargs["serve_max_inflight"] = int(os.environ["REPRO_SERVE_MAX_INFLIGHT"])
    if "REPRO_SERVE_LINGER_MS" in os.environ:
        kwargs["serve_linger_ms"] = float(os.environ["REPRO_SERVE_LINGER_MS"])
    if "REPRO_SERVE_PORT" in os.environ:
        kwargs["serve_port"] = int(os.environ["REPRO_SERVE_PORT"])
    if "REPRO_SERVE_FAIR_SHARE" in os.environ:
        kwargs["serve_fair_share"] = float(
            os.environ["REPRO_SERVE_FAIR_SHARE"])
    if "REPRO_MEMORY_BUDGET" in os.environ:
        kwargs["memory_budget"] = int(os.environ["REPRO_MEMORY_BUDGET"])
    if "REPRO_FARM_PROCS" in os.environ:
        kwargs["farm_procs"] = int(os.environ["REPRO_FARM_PROCS"])
    if "REPRO_FARM_MAX_RETRIES" in os.environ:
        kwargs["farm_max_retries"] = int(os.environ["REPRO_FARM_MAX_RETRIES"])
    if "REPRO_SERVE_TIMEOUT_MS" in os.environ:
        kwargs["serve_default_timeout_ms"] = float(
            os.environ["REPRO_SERVE_TIMEOUT_MS"])
    if "REPRO_FAULTS" in os.environ:
        kwargs["faults"] = os.environ["REPRO_FAULTS"]
    if "REPRO_FUSE" in os.environ:
        kwargs["fuse"] = os.environ["REPRO_FUSE"]
    if "REPRO_CODEGEN" in os.environ:
        kwargs["codegen"] = os.environ["REPRO_CODEGEN"]
    if "REPRO_TUNER" in os.environ:
        kwargs["tuner_mode"] = os.environ["REPRO_TUNER"]
    return Config(**kwargs)


#: The process-wide configuration instance.
CONFIG: Config = _config_from_env()


def get_config() -> Config:
    """Return the active :class:`Config` instance."""
    return CONFIG


def set_config(config: Config) -> Config:
    """Replace the process-wide configuration; returns the previous one."""
    global CONFIG
    config.validate()
    previous, CONFIG = CONFIG, config
    return previous


@contextlib.contextmanager
def configured(**changes: Any) -> Iterator[Config]:
    """Context manager temporarily overriding configuration fields.

    >>> with configured(base_case_elements=64) as cfg:
    ...     ...  # recursion now bottoms out at 64 elements
    """
    previous = get_config()
    try:
        current = previous.replace(**changes)
        set_config(current)
        yield current
    finally:
        set_config(previous)
