"""Pluggable execution backends for the AtA / A^T B operations.

Historically :class:`~repro.engine.dispatch.ExecutionEngine` selected its
algorithm from hardcoded ``Literal`` branches.  This module makes the
choice a first-class, extensible axis: a :class:`Backend` couples a name
to the three hooks the engine needs —

``supports(op, shape, dtype, model)``
    whether the backend can serve this request at all (the BLAS-direct
    backend, for example, drops out where no BLAS symbols could be bound
    or for unsupported dtypes);
``cost(op, shape, dtype, model)``
    a *modeled* cost used by the deterministic heuristic chooser (the
    pre-registry dispatch rules, expressed as data); ``inf`` means "never
    pick me heuristically" — the measured auto-tuner
    (:mod:`repro.engine.tuner`) is what lets such backends win, by timing
    them instead of modeling them;
``run(engine, op, a, c, alpha, b, model, parallel, held)``
    execute the operation, using the engine's plan cache / workspace pool
    / DAG scheduler as appropriate.

Two operations exist: ``"ata"`` (lower-triangular ``C += alpha * A^T A``,
shape ``(m, n)``) and ``"atb"`` (``C += alpha * A^T B``, shape
``(m, n, k)``).  The engine pre-scales ``C`` by ``beta`` before invoking a
backend, so every backend is a pure accumulate.

Built-in backends
-----------------
``syrk`` / ``ata`` / ``tiled`` / ``recursive_gemm`` / ``strassen``
    The plan-compiled paths (see :mod:`repro.engine.plan`); their outputs
    are bit-identical to the corresponding direct recursions because the
    plans replay the exact kernel sequence.
``blas_direct``
    Calls ``?syrk``/``?gemm`` in a bound BLAS library
    (:mod:`repro.blas.direct`); registered only in spirit — it is always
    *registered* but reports ``supports() == False`` where no provider
    could be bound, so dispatch degrades with no special-casing.

Every backend is deterministic: repeated calls on identical inputs are
bit-identical (``np.array_equal``).  Outputs *across* backends agree only
numerically (different kernel orders round differently), which is why the
auto-tuner reorders which backend wins but never mixes their outputs.

Custom backends register through :func:`register_backend`; dispatch
(``algo="<name>"``) and the tuner pick them up immediately.
"""

from __future__ import annotations

import abc
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..blas import direct as blas_direct
from ..blas.kernels import gemm_flops, syrk_flops
from ..cache.model import CacheModel
from ..errors import ShapeError

__all__ = ["Backend", "PlanBackend", "BlasDirectBackend", "OPS",
           "register_backend", "unregister_backend", "get_backend",
           "backend_names", "backends_for", "candidates", "choose_heuristic"]

OPS = ("ata", "atb")


class Backend(abc.ABC):
    """One way to execute an AtA-family operation.

    Subclasses set :attr:`name` (the registry key, also the ``algo=``
    string accepted by dispatch) and :attr:`ops` (the operations served,
    a subset of :data:`OPS`).
    """

    name: str = ""
    ops: frozenset = frozenset()
    #: operand kinds this backend accepts ("dense", "sparse", "lowrank"
    #: — see :func:`repro.engine.sparse.operand_kind`).  Every backend
    #: predating structured operands declares only "dense", so dense
    #: dispatch never sees a structured backend and stays bit-identical.
    operands: frozenset = frozenset({"dense"})

    def supports(self, op: str, shape: Tuple[int, ...], dtype,
                 model: CacheModel) -> bool:
        """Whether this backend can serve ``op`` on ``shape``/``dtype``."""
        return op in self.ops

    def supports_operand(self, op: str, operand, model: CacheModel) -> bool:
        """Whether this backend accepts this *specific* structured operand
        (e.g. ``banded_ata`` requires a ``dia_matrix``).  Only consulted
        for non-dense kinds, after :meth:`supports` passes."""
        return True

    def cost(self, op: str, shape: Tuple[int, ...], dtype,
             model: CacheModel) -> float:
        """Modeled cost for the heuristic chooser (``inf`` = never pick
        heuristically; the measured tuner may still explore it)."""
        return float("inf")

    def operand_cost(self, op: str, operand, shape: Tuple[int, ...], dtype,
                     model: CacheModel) -> float:
        """Modeled cost given the actual operand — structured backends
        override this to price nnz/bandwidth/rank, which plain shapes
        cannot express.  Defaults to the shape-only :meth:`cost`."""
        return self.cost(op, shape, dtype, model)

    @abc.abstractmethod
    def run(self, engine, op: str, a: np.ndarray, c: np.ndarray,
            alpha: float, b: Optional[np.ndarray], model: CacheModel,
            parallel, held: Optional[dict] = None) -> None:
        """Execute ``op``, accumulating into ``c``.

        ``held`` is an optional plan-key → workspace mapping supplied by
        :meth:`ExecutionEngine.run_batch` so a homogeneous batch checks a
        workspace out once; backends that use no pooled workspace ignore
        it.  The caller releases every workspace left in ``held``.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} {self.name!r} ops={sorted(self.ops)}>"


class PlanBackend(Backend):
    """A backend that executes a compiled :class:`ExecutionPlan`.

    ``kinds`` maps each supported operation to the plan kind compiled for
    it (see :data:`repro.engine.plan.PLAN_KINDS`).  The plan key is built
    by the engine and includes this backend's name, so two backends
    compiling the same kind never collide in the plan cache.
    """

    def __init__(self, name: str, kinds: Dict[str, str]) -> None:
        self.name = name
        self.kinds = dict(kinds)
        self.ops = frozenset(kinds)

    def _plan_shape(self, op: str, a: np.ndarray,
                    b: Optional[np.ndarray]) -> Tuple[int, ...]:
        if op == "ata":
            return a.shape
        return (a.shape[0], a.shape[1], b.shape[1])

    def run(self, engine, op, a, c, alpha, b, model, parallel,
            held: Optional[dict] = None) -> None:
        plan = engine._plan(self.name, self.kinds[op], self._plan_shape(op, a, b),
                            a.dtype, model)
        workspace, transient = None, False
        if plan.needs_workspace:
            if held is not None:
                workspace = held.get(plan.key)
                if workspace is None:
                    workspace = held[plan.key] = engine.pool.acquire(plan, a.dtype)
            else:
                workspace = engine.pool.acquire(plan, a.dtype)
                transient = True
        try:
            engine._execute(plan, a, c, alpha, workspace, b, parallel)
        finally:
            if transient:
                engine.pool.release(workspace)


class _SyrkBackend(PlanBackend):
    """A single BLAS-style ``syrk`` kernel call — the in-cache path."""

    def __init__(self) -> None:
        super().__init__("syrk", {"ata": "syrk"})

    def cost(self, op, shape, dtype, model):
        m, n = shape
        if model.fits_ata(m, n) or (m <= 1 and n <= 1):
            return float(syrk_flops(m, n))
        return float("inf")


class _AtaBackend(PlanBackend):
    """Algorithm 1 — the recursive AtA with embedded FastStrassen."""

    def __init__(self) -> None:
        super().__init__("ata", {"ata": "ata"})

    def cost(self, op, shape, dtype, model):
        m, n = shape
        if model.fits_ata(m, n) or (m <= 1 and n <= 1):
            # the recursion would bottom out into exactly one syrk; let the
            # syrk backend own that regime so heuristic dispatch matches
            # the historical rules bit for bit
            return float("inf")
        return float(syrk_flops(m, n))


class _TiledBackend(PlanBackend):
    """Cache-sized column-block tiling of the lower triangle."""

    def __init__(self) -> None:
        super().__init__("tiled", {"ata": "tiled"})


class _StrassenBackend(PlanBackend):
    """Standalone FastStrassen ``A^T B`` product."""

    def __init__(self) -> None:
        super().__init__("strassen", {"atb": "strassen"})

    def cost(self, op, shape, dtype, model):
        m, n, k = shape
        return float(gemm_flops(m, n, k))


class _RecursiveGemmBackend(PlanBackend):
    """Algorithm 2 — the classical 8-way recursive ``A^T B``; for the
    ``ata`` operation it computes the full product out of place and folds
    the lower triangle into ``C`` (the oracle/fallback path)."""

    def __init__(self) -> None:
        super().__init__("recursive_gemm",
                         {"ata": "recursive_gemm", "atb": "recursive_gemm"})

    def run(self, engine, op, a, c, alpha, b, model, parallel,
            held: Optional[dict] = None) -> None:
        if op != "ata":
            super().run(engine, op, a, c, alpha, b, model, parallel, held)
            return
        m, n = a.shape
        plan = engine._plan(self.name, "recursive_gemm", (m, n, n),
                            a.dtype, model)
        full = np.zeros((n, n), dtype=a.dtype)
        engine._execute(plan, a, full, alpha, None, a, parallel)
        idx = np.tril_indices(n)
        c[idx] += full[idx]


class BlasDirectBackend(Backend):
    """``?syrk``/``?gemm`` in a bound BLAS library — no plan, no workspace.

    Reports ``supports() == False`` when :mod:`repro.blas.direct` could
    bind no provider or the dtype is not real float32/float64, so it
    vanishes from the candidate set instead of erroring.
    """

    name = "blas_direct"
    ops = frozenset(OPS)

    def supports(self, op, shape, dtype, model):
        return (op in self.ops and blas_direct.is_available()
                and blas_direct.supported_dtype(dtype))

    def run(self, engine, op, a, c, alpha, b, model, parallel,
            held: Optional[dict] = None) -> None:
        if op == "ata":
            blas_direct.direct_syrk(a, c, alpha)
        else:
            blas_direct.direct_gemm_t(a, b, c, alpha)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_REGISTRY: "Dict[str, Backend]" = {}
_ORDER: List[str] = []
_LOCK = threading.Lock()
#: bumped by every registry change (see :func:`registry_generation`)
_GENERATION = 0


def register_backend(backend: Backend, *, replace: bool = False) -> Backend:
    """Add ``backend`` to the registry (``replace=True`` to overwrite)."""
    global _GENERATION
    if not backend.name:
        raise ValueError("backend must have a non-empty name")
    unknown_ops = set(backend.ops) - set(OPS)
    if unknown_ops:
        raise ValueError(f"backend {backend.name!r} declares unknown "
                         f"operations {sorted(unknown_ops)}; expected {OPS}")
    with _LOCK:
        if backend.name in _REGISTRY and not replace:
            raise ValueError(f"backend {backend.name!r} is already registered")
        if backend.name not in _ORDER:
            _ORDER.append(backend.name)
        _REGISTRY[backend.name] = backend
        _GENERATION += 1
    return backend


def unregister_backend(name: str) -> Optional[Backend]:
    """Remove a backend by name (returns it, or ``None`` if absent)."""
    global _GENERATION
    with _LOCK:
        backend = _REGISTRY.pop(name, None)
        if backend is not None:
            _ORDER.remove(name)
            _GENERATION += 1
        return backend


def registry_generation() -> int:
    """A counter bumped by every :func:`register_backend` and effective
    :func:`unregister_backend`: a process forked at another generation
    holds a different registry (the warm farm pool keys on it)."""
    return _GENERATION


def get_backend(name: str, op: Optional[str] = None) -> Backend:
    """Look up a backend by name, optionally requiring it to serve ``op``.

    Raises :class:`ShapeError` on unknown names / unsupported operations —
    the error type dispatch has always raised for bad ``algo=`` strings.
    """
    with _LOCK:
        backend = _REGISTRY.get(name)
    if backend is None:
        raise ShapeError(f"unknown backend {name!r}; registered: "
                         f"{backend_names()}")
    if op is not None and op not in backend.ops:
        raise ShapeError(f"backend {name!r} does not support the {op!r} "
                         f"operation (serves {sorted(backend.ops)})")
    return backend


def backend_names(op: Optional[str] = None) -> Tuple[str, ...]:
    """Registered backend names (optionally only those serving ``op``),
    in registration order."""
    with _LOCK:
        names = list(_ORDER)
        registry = dict(_REGISTRY)
    if op is None:
        return tuple(names)
    return tuple(n for n in names if op in registry[n].ops)


def backends_for(op: str) -> Tuple[Backend, ...]:
    """The registered backends serving ``op``, in registration order."""
    with _LOCK:
        return tuple(_REGISTRY[n] for n in _ORDER if op in _REGISTRY[n].ops)


def candidates(op: str, shape: Tuple[int, ...], dtype, model: CacheModel,
               kind: str = "dense",
               operand=None) -> Tuple[Backend, ...]:
    """The backends whose ``supports`` hook accepts this request.

    ``kind`` selects the operand-kind axis (``"dense"`` by default —
    structured backends declare other kinds and drop out, keeping the
    dense candidate set byte-identical to the pre-sparse registry); when
    an ``operand`` is supplied, ``supports_operand`` filters further.
    """
    pool = tuple(b for b in backends_for(op)
                 if kind in b.operands and b.supports(op, shape, dtype, model))
    if operand is not None:
        pool = tuple(b for b in pool
                     if b.supports_operand(op, operand, model))
    return pool


def choose_heuristic(op: str, shape: Tuple[int, ...], dtype,
                     model: CacheModel,
                     pool: Optional[Tuple[Backend, ...]] = None,
                     operand=None) -> Backend:
    """Deterministic modeled-cost selection (the pre-tuner dispatch rules).

    Picks the supporting backend with the lowest ``cost`` hook, breaking
    ties by registration order; backends reporting ``inf`` lose to any
    finite-cost one.  For ``ata`` this reproduces the historical rule
    exactly: ``syrk`` when the operand fits the cache model (or is 1×1),
    the Algorithm 1 recursion otherwise; for ``atb`` it picks FastStrassen.
    With a structured ``operand``, ``operand_cost`` prices the candidates
    instead, so nnz/bandwidth/rank inform the modeled choice.
    """
    pool = pool if pool is not None else candidates(op, shape, dtype, model)
    if not pool:
        raise ShapeError(f"no registered backend supports the {op!r} "
                         f"operation on shape {shape} with dtype "
                         f"{np.dtype(dtype)}")
    best, best_cost = None, float("inf")
    for backend in pool:
        if operand is not None:
            cost = backend.operand_cost(op, operand, shape, dtype, model)
        else:
            cost = backend.cost(op, shape, dtype, model)
        if best is None or cost < best_cost:
            best, best_cost = backend, cost
    return best


def _register_builtins() -> None:
    for backend in (_SyrkBackend(), _AtaBackend(), _TiledBackend(),
                    _RecursiveGemmBackend(), _StrassenBackend(),
                    BlasDirectBackend()):
        register_backend(backend)


_register_builtins()
