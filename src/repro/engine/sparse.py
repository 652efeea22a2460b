"""Sparse and structured operands for the AtA / A^T B engine.

Every path in the engine historically assumed dense ndarrays, but real
Gram/covariance traffic is frequently sparse — graph Laplacians,
incidence matrices.  This module makes scipy sparse matrices (any
format: CSR, CSC, COO, DIA, ...) first class without perturbing the
dense stack:

* :func:`operand_kind` classifies an operand (``"dense"`` /
  ``"sparse"``); dense requests flow through dispatch exactly as before
  (bit-identical — the sparse backends declare ``operands =
  {"sparse"}`` and vanish from dense candidate sets);
* two registry backends serve sparse operands:

  ``sparse_gram``
      scipy's sparse ``A^T A`` (and ``A^T B``), with the sparse Gram
      canonicalised — duplicates summed, indices sorted, CSR — before
      its lower triangle folds into the dense ``C``;
  ``densify``
      the crossover path: materialise ``A`` densely once, then run the
      modeled-cost *dense* heuristic's pick directly (plan cache,
      workspace pool and all).  Which side of the sparse-vs-densify
      crossover wins depends on the operand's density: each backend's
      ``operand_cost`` hook models its work from ``nnz``, and dispatch's
      heuristic picks the cheaper (on 1024×256 float64 the modeled
      crossover sits near density 0.71).

Absence contract
----------------
scipy is **optional** here (the engine core never imports it eagerly):
without it :data:`HAVE_SCIPY` is ``False``, :func:`is_sparse` returns
``False`` for everything, both backends report ``supports() == False``
and drop out of every candidate set, and dense dispatch is
bit-identical to a build that never loaded this module.
The CI ``no-scipy`` lane asserts exactly that.

Accuracy contract
-----------------
Each sparse backend is deterministic — repeated calls on identical
operands are bit-identical (``np.array_equal``).  *Across* paths the
contract is numerical, not bitwise: a sparse Gram and the densified
dense kernels order their floating-point sums differently, so results
agree to ``np.allclose`` with tolerances scaled for the accumulation
depth (the test suite pins ``rtol = 1e-4`` for float32 and ``1e-10``
for float64 against the densified reference), mirroring the caveat the
ooc panel sum already documents for differently-associated reductions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..blas.kernels import fold_lower
from ..errors import DTypeError, ShapeError
from .backends import Backend, choose_heuristic, register_backend

try:  # optional: the engine core must import clean without scipy
    import scipy.sparse as _sps
except Exception:  # pragma: no cover - environment-dependent
    _sps = None

__all__ = ["HAVE_SCIPY", "is_sparse", "operand_kind", "density",
           "operand_nnz", "validate_operand",
           "SparseGramBackend", "DensifyBackend", "SPARSE_BACKENDS"]

HAVE_SCIPY = _sps is not None

#: names of the sparse-operand backends this module registers
SPARSE_BACKENDS = ("sparse_gram", "densify")


def is_sparse(a) -> bool:
    """Whether ``a`` is a scipy sparse matrix (``False`` without scipy —
    nothing can *be* sparse where scipy cannot construct it)."""
    return HAVE_SCIPY and _sps.issparse(a)


def operand_kind(a) -> str:
    """Classify an operand: ``"sparse"`` (scipy) or ``"dense"``
    (everything else — dense validation rejects non-arrays downstream
    exactly as before)."""
    return "sparse" if is_sparse(a) else "dense"


def operand_nnz(a) -> int:
    """Stored entries of a sparse operand (dense: the full size)."""
    nnz = getattr(a, "nnz", None)
    if nnz is not None:
        return int(nnz)
    return int(np.asarray(a).size)


def validate_operand(a, name: str = "A") -> None:
    """Structural validation of a sparse operand — the counterpart of
    :func:`repro.blas.kernels.validate_matrix`, which (deliberately)
    still rejects anything that is not an ndarray."""
    if len(a.shape) != 2:
        raise ShapeError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if np.dtype(a.dtype).kind not in ("f", "c"):
        raise DTypeError(f"{name} must have a floating dtype, got {a.dtype}")


def density(a) -> float:
    """Stored-entry fraction ``nnz / (m * n)`` of a sparse operand."""
    m, n = a.shape
    if m < 1 or n < 1:
        return 0.0
    return operand_nnz(a) / float(m * n)


class _StructuredBackend(Backend):
    """Shared ``supports`` logic for the scipy-backed sparse paths."""

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
            fold_lower(c, gram.toarray(), alpha)
        else:
            c += alpha * np.asarray(a.T @ b)


class DensifyBackend(_StructuredBackend):
    """Materialise the operand densely and run the dense heuristic's pick.

    The delegate backend is chosen by the *modeled* dense heuristic and
    executed directly (no re-entrant dispatch), so a densified run uses
    the same plan cache and workspace pool as native dense traffic and
    stays deterministic.  Whether densifying beats staying sparse is the
    modeled crossover of the two backends' ``operand_cost`` hooks.
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


def _register_builtins() -> None:
    for backend in (SparseGramBackend(), DensifyBackend()):
        register_backend(backend)


_register_builtins()
