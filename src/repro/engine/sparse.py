"""Sparse and structured operands for the AtA / A^T B engine.

Every path in the engine historically assumed dense ndarrays, but real
Gram/covariance traffic is frequently sparse or structured — graph
Laplacians, incidence matrices, low-rank factors.  This module makes
those operands first class without perturbing the dense stack:

* :func:`operand_kind` classifies an operand (``"dense"`` /
  ``"sparse"`` / ``"lowrank"``); dense requests flow through dispatch
  exactly as before (bit-identical — the sparse backends declare
  ``operands = {"sparse"}`` etc. and vanish from dense candidate sets);
* four registry backends serve the structured kinds:

  ``sparse_gram``
      scipy's sparse ``A^T A`` (and ``A^T B``), with the sparse Gram
      canonicalised — duplicates summed, indices sorted, CSR — before
      its lower triangle folds into the dense ``C``;
  ``densify``
      the crossover path: materialise ``A`` densely once, then run the
      modeled-cost *dense* heuristic's pick directly (plan cache,
      workspace pool and all).  Which side of the sparse-vs-densify
      crossover wins is a property of the data's density *and the
      machine* — exactly the lesson the measured
      :class:`~repro.engine.tuner.BackendTuner` embodies — so dispatch
      extends the tuner key with a :func:`density_bucket` dimension and
      lets measured timings arbitrate per (op, dtype, density-bucket,
      shape-bucket);
  ``banded_ata``
      a structured fast path for ``scipy.sparse.dia_matrix`` operands:
      the Gram of a matrix with ``nd`` stored diagonals touches only
      ``nd``\\ ² diagonal pairs, each a vectorised elementwise product —
      ``O(nd² · n)`` with no sparse intermediate at all;
  ``lowrank_gram``
      ``A = U Vᵀ`` (a :class:`LowRank` operand) never materialises
      ``A``: ``AᵀA = V (UᵀU) Vᵀ`` costs ``O(mr² + n²r)`` and needs no
      scipy — the one structured backend that stays available without
      it.

Absence contract
----------------
scipy is **optional** here (the engine core never imports it eagerly):
without it :data:`HAVE_SCIPY` is ``False``, :func:`is_sparse` returns
``False`` for everything, the scipy-backed backends report
``supports() == False`` and drop out of every candidate set, and dense
dispatch is bit-identical to a build that never loaded this module.
The CI ``no-scipy`` lane asserts exactly that.

Accuracy contract
-----------------
Each structured backend is deterministic — repeated calls on identical
operands are bit-identical (``np.array_equal``).  *Across* paths the
contract is numerical, not bitwise: a sparse Gram, a banded Gram, the
low-rank factorisation and the densified dense kernels each order their
floating-point sums differently, so results agree to ``np.allclose``
with tolerances scaled for the accumulation depth (the test suite pins
``rtol = 1e-4`` for float32 and ``1e-10`` for float64 against the
densified reference), mirroring the caveat the ooc panel sum already
documents for differently-associated reductions.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..blas.kernels import gemm_flops, syrk_flops
from ..errors import DTypeError, ShapeError
from .backends import Backend, choose_heuristic, register_backend

try:  # optional: the engine core must import clean without scipy
    import scipy.sparse as _sps
except Exception:  # pragma: no cover - environment-dependent
    _sps = None

__all__ = ["HAVE_SCIPY", "is_sparse", "operand_kind", "density",
           "density_bucket", "operand_nnz", "validate_operand", "LowRank",
           "SparseGramBackend", "DensifyBackend", "BandedAtaBackend",
           "LowRankGramBackend", "SPARSE_BACKENDS"]

HAVE_SCIPY = _sps is not None

#: names of the structured-operand backends this module registers
SPARSE_BACKENDS = ("sparse_gram", "densify", "banded_ata", "lowrank_gram")


def is_sparse(a) -> bool:
    """Whether ``a`` is a scipy sparse matrix (``False`` without scipy —
    nothing can *be* sparse where scipy cannot construct it)."""
    return HAVE_SCIPY and _sps.issparse(a)


class LowRank:
    """A low-rank operand ``A = U Vᵀ`` held as its factors.

    ``u`` is ``(m, r)`` and ``v`` is ``(n, r)``; the represented matrix
    is ``(m, n)`` but is never materialised by the ``lowrank_gram``
    backend (``AᵀA = V (UᵀU) Vᵀ``).  Needs no scipy.
    """

    def __init__(self, u: np.ndarray, v: np.ndarray) -> None:
        for name, factor in (("U", u), ("V", v)):
            if not isinstance(factor, np.ndarray):
                raise DTypeError(f"LowRank {name} must be a numpy.ndarray, "
                                 f"got {type(factor).__name__}")
            if factor.ndim != 2:
                raise ShapeError(f"LowRank {name} must be 2-dimensional, "
                                 f"got shape {factor.shape}")
            if factor.dtype.kind not in ("f", "c"):
                raise DTypeError(f"LowRank {name} must have a floating "
                                 f"dtype, got {factor.dtype}")
        if u.shape[1] != v.shape[1]:
            raise ShapeError("LowRank factors must share a rank, got "
                             f"U {u.shape} and V {v.shape}")
        if u.dtype != v.dtype:
            raise DTypeError("LowRank factors must share a dtype, got "
                             f"{u.dtype} and {v.dtype}")
        self.u = u
        self.v = v
        self.shape: Tuple[int, int] = (u.shape[0], v.shape[0])
        self.dtype = u.dtype
        self.rank = int(u.shape[1])

    @property
    def nnz(self) -> int:
        """Stored elements (the factors' — what the stats meter)."""
        return int(self.u.size + self.v.size)

    def toarray(self) -> np.ndarray:
        """Materialise ``U Vᵀ`` (reference/testing; backends never do)."""
        return self.u @ self.v.T

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (f"LowRank(shape={self.shape}, rank={self.rank}, "
                f"dtype={self.dtype})")


def operand_kind(a) -> str:
    """Classify an operand: ``"sparse"`` (scipy), ``"lowrank"``
    (:class:`LowRank`) or ``"dense"`` (everything else — dense
    validation rejects non-arrays downstream exactly as before)."""
    if is_sparse(a):
        return "sparse"
    if isinstance(a, LowRank):
        return "lowrank"
    return "dense"


def operand_nnz(a) -> int:
    """Stored entries of a structured operand (dense: the full size)."""
    nnz = getattr(a, "nnz", None)
    if nnz is not None:
        return int(nnz)
    return int(np.asarray(a).size)


def validate_operand(a, name: str = "A") -> None:
    """Structural validation of a sparse/low-rank operand — the
    counterpart of :func:`repro.blas.kernels.validate_matrix`, which
    (deliberately) still rejects anything that is not an ndarray."""
    if len(a.shape) != 2:
        raise ShapeError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if np.dtype(a.dtype).kind not in ("f", "c"):
        raise DTypeError(f"{name} must have a floating dtype, got {a.dtype}")


def density(a) -> float:
    """Stored-entry fraction ``nnz / (m * n)`` of a structured operand."""
    m, n = a.shape
    if m < 1 or n < 1:
        return 0.0
    return operand_nnz(a) / float(m * n)


def density_bucket(a) -> Optional[str]:
    """Power-of-two density bucket for the tuner key, e.g. ``"d2^-4"``
    for densities in ``(2^-5, 2^-4]``.

    The measured sparse-vs-densify crossover is a function of density,
    so tuner cells must not mix a 0.5%-dense operand's timings with a
    50%-dense one's; power-of-two buckets keep the table small the same
    way :func:`~repro.engine.tuner.shape_bucket` does for shapes.
    Dense operands return ``None`` — their tuner keys carry no density
    dimension and stay byte-identical to every table written before
    this module existed.
    """
    kind = operand_kind(a)
    if kind == "dense":
        return None
    if kind == "lowrank":
        # rank, not density, is the low-rank cost driver
        bucket = 1 << max(0, int(a.rank) - 1).bit_length()
        return f"r{bucket}"
    d = density(a)
    if d <= 0.0:
        return "d0"
    exponent = max(0, min(30, int(np.ceil(-np.log2(min(d, 1.0))))))
    return f"d2^-{exponent}"


def _fold_lower(c: np.ndarray, full: np.ndarray, alpha: float) -> None:
    """Accumulate ``alpha * full`` into ``c``'s lower triangle — the
    same fold the dense ``recursive_gemm`` oracle path uses."""
    idx = np.tril_indices(c.shape[0])
    c[idx] += alpha * full[idx]


class _StructuredBackend(Backend):
    """Shared ``supports`` logic for the scipy-backed structured paths."""

    operands = frozenset({"sparse"})

    def supports(self, op, shape, dtype, model):
        return (HAVE_SCIPY and op in self.ops
                and np.dtype(dtype).kind in ("f", "c"))


class SparseGramBackend(_StructuredBackend):
    """scipy-sparse ``A^T A`` / ``A^T B`` with canonical sparse output.

    The sparse Gram ``A.T @ A`` comes back in whatever format scipy's
    spgemm produces (CSC for CSR inputs); it is canonicalised — CSR,
    duplicates summed, indices sorted — before its lower triangle folds
    into the dense ``C``, so the intermediate every run produces is
    structurally identical and the fold is deterministic.
    """

    name = "sparse_gram"
    ops = frozenset(("ata", "atb"))

    def operand_cost(self, op, operand, shape, dtype, model):
        # spgemm work scales with Σ_rows nnz_row² ≈ nnz²/m for random
        # sparsity; atb is one sparse-dense product of 2·nnz·k flops
        nnz = operand_nnz(operand)
        if op == "ata":
            m = max(1, shape[0])
            return 2.0 * float(nnz) * float(nnz) / float(m)
        return 2.0 * float(nnz) * float(shape[2])

    def run(self, engine, op, a, c, alpha, b, model,
            held: Optional[dict] = None) -> None:
        if op == "ata":
            gram = (a.T @ a).tocsr()
            gram.sum_duplicates()
            gram.sort_indices()
            _fold_lower(c, gram.toarray(), alpha)
        else:
            c += alpha * np.asarray(a.T @ b)


class DensifyBackend(_StructuredBackend):
    """Materialise the operand densely and run the dense heuristic's pick.

    The delegate backend is chosen by the *modeled* dense heuristic and
    executed directly (no re-entrant dispatch), so a densified run uses
    the same plan cache and workspace pool as native dense traffic and
    stays deterministic.  Whether densifying beats staying sparse is the
    measured crossover the tuner arbitrates per density bucket.
    """

    name = "densify"
    ops = frozenset(("ata", "atb"))

    def operand_cost(self, op, operand, shape, dtype, model):
        dense = choose_heuristic(op, shape, dtype, model)
        convert = float(shape[0]) * float(shape[1])  # the toarray() write
        return dense.cost(op, shape, dtype, model) + convert

    def run(self, engine, op, a, c, alpha, b, model,
            held: Optional[dict] = None) -> None:
        dense = np.ascontiguousarray(a.toarray())
        backend = choose_heuristic(op, (dense.shape if op == "ata"
                                        else (dense.shape[0], dense.shape[1],
                                              b.shape[1])),
                                   dense.dtype, model)
        backend.run(engine, op, dense, c, alpha, b, model, held)


class BandedAtaBackend(_StructuredBackend):
    """Banded ``A^T A`` over ``scipy.sparse.dia_matrix`` operands.

    ``dia`` stores ``A[i, j] = data[k, j]`` where ``offsets[k] = j - i``,
    so the Gram decomposes into diagonal pairs: entries of ``A^T A`` on
    output diagonal ``d = o2 - o1 ≥ 0`` are the elementwise products
    ``data[k1, j] * data[k2, j + d]`` over the columns where both
    diagonals carry a valid row — ``O(nd² · n)`` vectorised numpy with
    no sparse intermediate, versus the generic spgemm's index juggling.
    """

    name = "banded_ata"
    ops = frozenset(("ata",))

    def supports_operand(self, op, operand, model):
        return HAVE_SCIPY and isinstance(operand, _sps.dia_matrix)

    def operand_cost(self, op, operand, shape, dtype, model):
        if not self.supports_operand(op, operand, model):
            return float("inf")
        nd = len(operand.offsets)
        return float(nd * nd) * float(shape[1])

    def run(self, engine, op, a, c, alpha, b, model,
            held: Optional[dict] = None) -> None:
        m, n = a.shape
        data = a.data
        offsets = [int(o) for o in a.offsets]
        # pairs are walked in a fixed (k1, k2) order, so the float sum
        # per output diagonal is associated identically on every run
        for k1, o1 in enumerate(offsets):
            for k2, o2 in enumerate(offsets):
                d = o2 - o1
                if d < 0:
                    continue  # upper triangle; C stores the lower
                # column validity: row i = j - o1 must exist for both
                # diagonals and both columns must be in range
                lo = max(0, o1, o2 - d)
                hi = min(n, n - d, m + o1)
                if hi <= lo:
                    continue
                j = np.arange(lo, hi)
                c[j + d, j] += alpha * data[k1, j] * data[k2, j + d]


class LowRankGramBackend(Backend):
    """``A = U Vᵀ`` Gram via ``V (UᵀU) Vᵀ`` — no scipy, no dense ``A``."""

    name = "lowrank_gram"
    ops = frozenset(("ata", "atb"))
    operands = frozenset({"lowrank"})

    def supports(self, op, shape, dtype, model):
        return op in self.ops and np.dtype(dtype).kind in ("f", "c")

    def operand_cost(self, op, operand, shape, dtype, model):
        m, n = operand.shape
        r = operand.rank
        if op == "ata":
            return float(syrk_flops(m, r)) + float(gemm_flops(n, r, r)) \
                + float(gemm_flops(r, n, n))
        k = shape[2]
        return float(gemm_flops(m, r, k)) + float(gemm_flops(r, n, k))

    def run(self, engine, op, a, c, alpha, b, model,
            held: Optional[dict] = None) -> None:
        if op == "ata":
            core = a.u.T @ a.u                       # (r, r)
            _fold_lower(c, (a.v @ core) @ a.v.T, alpha)
        else:
            c += alpha * (a.v @ (a.u.T @ b))


def _register_builtins() -> None:
    for backend in (SparseGramBackend(), DensifyBackend(),
                    BandedAtaBackend(), LowRankGramBackend()):
        register_backend(backend)


_register_builtins()
