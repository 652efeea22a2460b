"""Global configuration for the :mod:`repro` library.

The paper's algorithms are *cache oblivious*: they recurse until the
sub-problem "fits in cache" and then call a BLAS kernel (``?syrk`` or
``?gemm``).  The only tunable is therefore the base-case threshold, which
this module exposes together with the few process-wide values that no
call or constructor can carry (RNG seeding, the recursion safety valve,
the input finiteness check, the tuner table's path and the default
engine's tuner mode, the serving port and the fault-injection spec).
Every other option is an argument of the call or constructor that uses
it (``budget=``, ``procs=``, ``algo=``, ``Server(max_batch=...)``,
``submit(timeout=...)``, ``BackendTuner(explore_budget=...)``).

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

#: dtype of workloads and workspaces when the caller does not specify one.
DEFAULT_DTYPE = np.float64

#: Default seed used by the workload generators in :mod:`repro.bench`.
DEFAULT_SEED = 0x5EED

#: Default TCP port of the serving network front door
#: (:class:`repro.serve.NetServer`).  ``0`` binds an ephemeral port (the
#: listener reports the one the OS picked), which is also the right
#: default for tests and benchmarks sharing one host.
DEFAULT_SERVE_PORT = 0

#: Modes the ``tuner_mode`` field / ``REPRO_TUNER`` env var accept.
TUNER_MODES = ("off", "measured", "frozen")


@dataclasses.dataclass(frozen=True)
class Config:
    """Process-wide values that no call or constructor carries (immutable:
    derive a changed copy with :meth:`replace`).

    Attributes
    ----------
    base_case_elements:
        Sub-problems with ``m * n`` (for A^T A) or ``m * n + m * k`` (for
        A^T B) at most this many elements are solved by a direct BLAS call
        instead of recursing.  Mirrors the cache-size test of Algorithm 1 /
        Algorithm 2 in the paper.
    strict_finite:
        When True, top-level entry points validate that inputs contain no
        NaN/Inf values.  Disabled by default (the check is O(mn)).
    seed:
        Default seed for workload generation.
    max_recursion_depth:
        Safety valve against pathological configurations (e.g. a base case
        of 0 elements).  The recursion depth of a well-formed call is
        bounded by ``ceil(log2(max(m, n)))``; this limit is far above that.
    tuner_path:
        Filesystem path of the measured auto-tuner's persisted timing
        table (``$REPRO_TUNER_PATH``).  ``None`` resolves to
        ``~/.cache/repro/tuner.json``.
    serve_port:
        Default TCP port of the serving network front door
        (:class:`repro.serve.NetServer`); ``0`` (default) binds an
        ephemeral port.
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
    strict_finite: bool = False
    seed: int = DEFAULT_SEED
    max_recursion_depth: int = 64
    tuner_path: Any = None
    serve_port: int = DEFAULT_SERVE_PORT
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
        if not (0 <= self.serve_port <= 65535):
            raise ConfigurationError(
                "serve_port must be in [0, 65535] (0 = ephemeral), got "
                f"{self.serve_port}"
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


#: The ``REPRO_*`` environment variables the initial configuration
#: honours: ``(variable, Config field, parser)``.  Values a parser accepts
#: are still range-checked by :meth:`Config.validate`.
_ENV_FIELDS = (
    ("REPRO_BASE_CASE", "base_case_elements", int),
    ("REPRO_SEED", "seed", int),
    ("REPRO_TUNER_PATH", "tuner_path", str),
    ("REPRO_SERVE_PORT", "serve_port", int),         # 0 = ephemeral
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
