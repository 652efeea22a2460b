"""Global configuration for the :mod:`repro` library.

The paper's algorithms are *cache oblivious*: they recurse until the
sub-problem "fits in cache" and then call a BLAS kernel (``?syrk`` or
``?gemm``).  The only tunable is therefore the base-case threshold, which
this module exposes together with a handful of library-wide defaults
(default floating point dtype, RNG seeding, whether kernels keep flop /
byte counters).

Configuration is held in a module-level, immutable :class:`Config`
instance, :data:`CONFIG`.  Code *reads* configuration through
:func:`get_config` and changes it by installing a validated copy: with
:func:`set_config` (long-lived, process-wide changes) or through the
:func:`configured` context manager (scoped changes, e.g. inside tests).
Fields cannot be assigned in place, so no value ever skips
:meth:`Config.validate`.

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
#: ``run_batch`` call.  A queue that reaches it dispatches at once; a
#: partial batch goes when an executor worker is free (there is no timer:
#: requests coalesce only while every worker is busy).
DEFAULT_SERVE_MAX_BATCH = 8

#: Default bound on a server's in-flight requests (pending in a coalescing
#: queue or executing); submits beyond it are rejected with
#: :class:`repro.errors.QueueFullError`.
DEFAULT_SERVE_MAX_INFLIGHT = 256

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

#: Modes the ``tuner_mode`` field / ``REPRO_TUNER`` env var accept.
TUNER_MODES = ("off", "measured", "frozen")


@dataclasses.dataclass(frozen=True)
class Config:
    """Library-wide tunables (immutable: derive a changed copy with
    :meth:`replace`).

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
        plus the streamed row panel of ``A`` must fit inside it (the
        process farm charges one panel and one output arena per worker).
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
    serve_port: int = DEFAULT_SERVE_PORT
    serve_fair_share: float = DEFAULT_SERVE_FAIR_SHARE
    memory_budget: int = DEFAULT_MEMORY_BUDGET
    farm_procs: int = DEFAULT_FARM_PROCS
    farm_max_retries: int = DEFAULT_FARM_MAX_RETRIES
    serve_default_timeout_ms: float = DEFAULT_SERVE_TIMEOUT_MS
    faults: str = ""
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
        if self.tuner_mode not in TUNER_MODES:
            raise ConfigurationError(
                f"unknown tuner_mode {self.tuner_mode!r}; expected one of "
                f"{TUNER_MODES}"
            )

    def replace(self, **changes: Any) -> "Config":
        """Return a copy of this configuration with ``changes`` applied."""
        return dataclasses.replace(self, **changes)


def _flag(text: str) -> bool:
    return text not in ("0", "false", "")


#: The ``REPRO_*`` environment variables the initial configuration
#: honours: ``(variable, Config field, parser)``.  Values a parser accepts
#: are still range-checked by :meth:`Config.validate`.
_ENV_FIELDS = (
    ("REPRO_BASE_CASE", "base_case_elements", int),
    ("REPRO_COUNT_FLOPS", "count_flops", _flag),     # "0"/"false" = off
    ("REPRO_SEED", "seed", int),
    ("REPRO_BACKEND", "backend", str),               # one of KNOWN_BACKENDS
    ("REPRO_TUNER_PATH", "tuner_path", str),
    ("REPRO_SERVE_MAX_BATCH", "serve_max_batch", int),
    ("REPRO_SERVE_MAX_INFLIGHT", "serve_max_inflight", int),
    ("REPRO_SERVE_PORT", "serve_port", int),         # 0 = ephemeral
    ("REPRO_SERVE_FAIR_SHARE", "serve_fair_share", float),  # 1 = off
    ("REPRO_MEMORY_BUDGET", "memory_budget", int),   # bytes, 0 = unbounded
    ("REPRO_FARM_PROCS", "farm_procs", int),         # 0 = in-process
    ("REPRO_FARM_MAX_RETRIES", "farm_max_retries", int),
    ("REPRO_SERVE_TIMEOUT_MS", "serve_default_timeout_ms", float),
    ("REPRO_FAULTS", "faults", str),                 # repro.faults grammar
    ("REPRO_TUNER", "tuner_mode", str),              # one of TUNER_MODES
)


def _config_from_env() -> Config:
    """Build the initial configuration, honouring the ``REPRO_*``
    variables listed in :data:`_ENV_FIELDS`.

    A value its parser rejects (``REPRO_BASE_CASE=abc``) or that fails
    validation raises :class:`ConfigurationError`.
    """
    kwargs: dict[str, Any] = {}
    for variable, field, parse in _ENV_FIELDS:
        if variable in os.environ:
            text = os.environ[variable]
            try:
                kwargs[field] = parse(text)
            except ValueError:
                raise ConfigurationError(
                    f"{variable}={text!r} is not a valid {parse.__name__}"
                ) from None
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
