"""Instrumented BLAS-like kernels used at the recursion base case.

The paper's implementation calls Intel MKL routines — ``?syrk`` for the
A^T A base case, ``?gemm`` for the A^T B base case and ``?axpy`` for matrix
additions.  This module provides the same operations on numpy arrays.  The
lower-triangular ``syrk`` calls the bound ``?syrk`` through
:func:`repro.blas.direct.syrk_leaf`; the other products dispatch to numpy's
underlying optimised BLAS (via ``@``), so the *relative* cost of the
algorithms built on top of them is faithful.  Every kernel also records
its floating-point operation count and byte traffic into the active
:class:`~repro.blas.counters.CounterSet` so the performance model can
convert work into modeled time on the paper's hardware.

All kernels follow BLAS semantics: they *update* the output operand in
place (``C += alpha * ...``) and return it, never allocating a new result
matrix.  Shapes are validated eagerly with informative error messages.

The "discordant size" addition of Section 3.1 — adding two sub-matrices
whose shapes differ by one row and/or column because of ceil/floor splits —
is provided by :func:`add_into`, which adds over the overlapping prefix,
exactly emulating the paper's trick of using ``?axpy`` to simulate padding
with a zero row/column.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import get_config
from ..errors import DTypeError, ShapeError
from . import counters, direct

__all__ = [
    "syrk",
    "gemm_t",
    "gemm",
    "axpy",
    "add_into",
    "scale",
    "syrk_flops",
    "gemm_flops",
    "validate_matrix",
    "tril_inplace",
    "symmetrize_from_lower",
]


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------

def validate_matrix(a: np.ndarray, name: str = "A", ndim: int = 2) -> np.ndarray:
    """Validate that ``a`` is a real/complex floating numpy matrix.

    Returns the array unchanged (kernels never copy), raising
    :class:`ShapeError` / :class:`DTypeError` otherwise.
    """
    if not isinstance(a, np.ndarray):
        raise DTypeError(f"{name} must be a numpy.ndarray, got {type(a).__name__}")
    if a.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-dimensional, got shape {a.shape}")
    if a.dtype.kind not in ("f", "c"):
        raise DTypeError(f"{name} must have a floating dtype, got {a.dtype}")
    if get_config().strict_finite and not np.all(np.isfinite(a)):
        raise ShapeError(f"{name} contains non-finite values")
    return a


def _check_same_dtype(*arrays: np.ndarray) -> np.dtype:
    dtypes = {a.dtype for a in arrays}
    if len(dtypes) > 1:
        raise DTypeError(f"operands must share a dtype, got {sorted(map(str, dtypes))}")
    return arrays[0].dtype


# ---------------------------------------------------------------------------
# flop-count formulas
# ---------------------------------------------------------------------------

def syrk_flops(m: int, n: int) -> int:
    """Flops of a symmetric rank-m update ``C (n x n) += A^T A`` computing
    only one triangle: n*(n+1)/2 dot products of length m, each costing
    2m - 1 flops, plus n*(n+1)/2 accumulations."""
    pairs = n * (n + 1) // 2
    return pairs * (2 * m)


def gemm_flops(m: int, n: int, k: int) -> int:
    """Flops of ``C (n x k) += A^T B`` with A (m x n), B (m x k)."""
    return 2 * m * n * k


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def syrk(a: np.ndarray, c: np.ndarray, alpha: float = 1.0, *, lower: bool = True,
         count: Optional[bool] = None) -> np.ndarray:
    """Symmetric rank-``m`` update: ``C += alpha * A^T A`` (one triangle).

    Parameters
    ----------
    a:
        Input matrix of shape ``(m, n)``.
    c:
        Output matrix of shape ``(n, n)``; updated in place.  Only the
        ``lower`` (or upper) triangle is written; the opposite strict
        triangle is left untouched, mirroring BLAS ``?syrk``.
    alpha:
        Scaling factor applied to the product.
    lower:
        Update the lower (default) or the upper triangle.
    count:
        Override the global ``count_flops`` configuration for this call.

    Returns
    -------
    numpy.ndarray
        ``c``, for chaining.
    """
    validate_matrix(a, "A")
    validate_matrix(c, "C")
    m, n = a.shape
    if c.shape != (n, n):
        raise ShapeError(f"C must have shape ({n}, {n}) for A of shape {a.shape}, got {c.shape}")
    _check_same_dtype(a, c)

    if lower:
        direct.syrk_leaf(a, c, alpha)
    else:
        idx = np.triu_indices(n)
        c[idx] += alpha * (a.T @ a)[idx]

    if count if count is not None else get_config().count_flops:
        itemsize = a.dtype.itemsize
        counters.record(
            "syrk",
            flops=syrk_flops(m, n),
            bytes=itemsize * (m * n + n * (n + 1) // 2),
        )
    return c


def gemm_t(a: np.ndarray, b: np.ndarray, c: np.ndarray, alpha: float = 1.0, *,
           count: Optional[bool] = None) -> np.ndarray:
    """Transposed-A GEMM: ``C += alpha * A^T B``.

    Shapes: ``A (m, n)``, ``B (m, k)``, ``C (n, k)``.  This is the base-case
    kernel of both ``RecursiveGEMM`` (Algorithm 2) and ``Strassen``.
    """
    validate_matrix(a, "A")
    validate_matrix(b, "B")
    validate_matrix(c, "C")
    m, n = a.shape
    mb, k = b.shape
    if mb != m:
        raise ShapeError(f"A and B must share their first dimension, got {a.shape} and {b.shape}")
    if c.shape != (n, k):
        raise ShapeError(f"C must have shape ({n}, {k}), got {c.shape}")
    _check_same_dtype(a, b, c)

    if alpha == 1.0:
        c += a.T @ b
    else:
        c += alpha * (a.T @ b)

    if count if count is not None else get_config().count_flops:
        itemsize = a.dtype.itemsize
        counters.record(
            "gemm",
            flops=gemm_flops(m, n, k),
            bytes=itemsize * (m * n + m * k + n * k),
        )
    return c


def gemm(a: np.ndarray, b: np.ndarray, c: np.ndarray, alpha: float = 1.0, *,
         count: Optional[bool] = None) -> np.ndarray:
    """Plain GEMM: ``C += alpha * A B`` with A (m, n), B (n, k), C (m, k).

    Used by the distributed baselines (SUMMA, CAPS, COSMA), which operate on
    already-transposed panels.
    """
    validate_matrix(a, "A")
    validate_matrix(b, "B")
    validate_matrix(c, "C")
    m, n = a.shape
    nb, k = b.shape
    if nb != n:
        raise ShapeError(f"inner dimensions must agree, got {a.shape} and {b.shape}")
    if c.shape != (m, k):
        raise ShapeError(f"C must have shape ({m}, {k}), got {c.shape}")
    _check_same_dtype(a, b, c)

    if alpha == 1.0:
        c += a @ b
    else:
        c += alpha * (a @ b)

    if count if count is not None else get_config().count_flops:
        itemsize = a.dtype.itemsize
        counters.record(
            "gemm",
            flops=gemm_flops(n, m, k),
            bytes=itemsize * (m * n + n * k + m * k),
        )
    return c


def axpy(y: np.ndarray, x: np.ndarray, alpha: float = 1.0, *,
         count: Optional[bool] = None) -> np.ndarray:
    """Vector/matrix update ``y += alpha * x`` (BLAS ``?axpy``).

    ``x`` and ``y`` must have identical shapes; for the discordant-shape
    sums produced by ceil/floor splits use :func:`add_into`.
    """
    validate_matrix(np.atleast_2d(y), "y", ndim=2)
    if x.shape != y.shape:
        raise ShapeError(f"axpy operands must share a shape, got {x.shape} and {y.shape}")
    if alpha == 1.0:
        y += x
    else:
        y += alpha * x
    if count if count is not None else get_config().count_flops:
        counters.record("axpy", flops=2 * int(x.size), bytes=3 * x.size * x.itemsize)
    return y


def add_into(y: np.ndarray, x: np.ndarray, alpha: float = 1.0, *,
             count: Optional[bool] = None) -> np.ndarray:
    """Add ``alpha * x`` into ``y`` over their overlapping top-left block.

    This is the paper's replacement for dynamic peeling / static padding
    (Section 3.1): when ceil/floor splits produce operands whose shapes
    differ by at most one row and/or column, the smaller operand is treated
    as if it were padded with a zero row/column — equivalently, the addition
    simply skips the extra trailing row/column of the larger operand.
    """
    rows = min(y.shape[0], x.shape[0])
    cols = min(y.shape[1], x.shape[1])
    if rows == 0 or cols == 0:
        return y
    target = y[:rows, :cols]
    if alpha == 1.0:
        target += x[:rows, :cols]
    else:
        target += alpha * x[:rows, :cols]
    if count if count is not None else get_config().count_flops:
        counters.record("axpy", flops=2 * rows * cols, bytes=3 * rows * cols * y.itemsize)
    return y


def scale(c: np.ndarray, beta: float, *, count: Optional[bool] = None) -> np.ndarray:
    """Scale a matrix in place: ``C *= beta`` (BLAS ``?scal``).

    The paper omits the ``beta`` scaling from Algorithm 1 "for clarity of
    exposure, since C can be simply scaled before applying the algorithms";
    this helper is that pre-scaling.
    """
    validate_matrix(c, "C")
    if beta != 1.0:
        c *= beta
        if count if count is not None else get_config().count_flops:
            counters.record("scal", flops=int(c.size), bytes=2 * c.size * c.itemsize)
    return c


# ---------------------------------------------------------------------------
# triangular helpers
# ---------------------------------------------------------------------------

def tril_inplace(c: np.ndarray) -> np.ndarray:
    """Zero the strict upper triangle of ``c`` in place and return it."""
    validate_matrix(c, "C")
    n, m = c.shape
    if n != m:
        raise ShapeError(f"tril_inplace expects a square matrix, got {c.shape}")
    iu = np.triu_indices(n, k=1)
    c[iu] = 0
    return c


def symmetrize_from_lower(c: np.ndarray) -> np.ndarray:
    """Fill the strict upper triangle of ``c`` from its lower triangle.

    The AtA family of algorithms only ever computes ``low(C)``; callers that
    need the full symmetric matrix (e.g. the normal-equation solver in
    :mod:`repro.apps.least_squares`) use this helper to mirror it.
    """
    validate_matrix(c, "C")
    n, m = c.shape
    if n != m:
        raise ShapeError(f"symmetrize_from_lower expects a square matrix, got {c.shape}")
    iu = np.triu_indices(n, k=1)
    c[iu] = c.T[iu]
    return c
