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
place (``C += alpha * ...``) and return it, allocating only a ``C`` passed
as ``None``.  Operands are validated eagerly with informative error
messages; :func:`validate_product` is the operand contract of every
``A^T A`` / ``A^T B`` entry point in the package.

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
    "validate_b",
    "validate_c",
    "validate_product",
    "tril_inplace",
    "symmetrize_from_lower",
]


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------

def _validate_layout(a: np.ndarray, name: str, ndim: int = 2) -> np.ndarray:
    if not isinstance(a, np.ndarray):
        raise DTypeError(f"{name} must be a numpy.ndarray, got {type(a).__name__}")
    if a.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-dimensional, got shape {a.shape}")
    if a.dtype.kind not in ("f", "c"):
        raise DTypeError(f"{name} must have a floating dtype, got {a.dtype}")
    return a


def validate_matrix(a: np.ndarray, name: str = "A", ndim: int = 2) -> np.ndarray:
    """Validate that ``a`` is a real/complex floating numpy matrix, and,
    under ``Config.strict_finite``, that it holds no NaN/Inf.

    Returns the array unchanged (kernels never copy), raising
    :class:`ShapeError` / :class:`DTypeError` otherwise.
    """
    _validate_layout(a, name, ndim)
    if get_config().strict_finite and not np.all(np.isfinite(a)):
        raise ShapeError(f"{name} contains non-finite values")
    return a


# ---------------------------------------------------------------------------
# the operand contract of C = alpha A^T A + beta C and C = alpha A^T B + C
# ---------------------------------------------------------------------------

def validate_b(a, b: np.ndarray) -> None:
    """The ``B`` rule of ``A^T B``: a floating matrix with ``A``'s row
    count and dtype."""
    validate_matrix(b, "B")
    if b.shape[0] != a.shape[0]:
        raise ShapeError(f"A and B must share their first dimension, got {a.shape} and {b.shape}")
    if b.dtype != a.dtype:
        raise DTypeError(f"operands must share a dtype, got {sorted({str(a.dtype), str(b.dtype)})}")


def validate_c(a, c: Optional[np.ndarray], b: Optional[np.ndarray] = None,
               beta: float = 1.0) -> np.ndarray:
    """The ``C`` rule: ``(n, n)`` for ``A^T A`` (``b`` omitted), ``(n, k)``
    for ``A^T B``, in ``A``'s dtype.  Returns ``c``, or zeros when it is
    omitted.  ``beta == 0`` overwrites ``C`` without reading it, so only
    a ``C`` that is read must be finite under ``Config.strict_finite``."""
    n = a.shape[1]
    shape = (n, n) if b is None else (n, b.shape[1])
    if c is None:
        return np.zeros(shape, dtype=a.dtype)
    (validate_matrix if beta != 0 else _validate_layout)(c, "C")
    if c.shape != shape:
        raise ShapeError(f"C must have shape {shape} for A of shape {a.shape}, got {c.shape}")
    if c.dtype != a.dtype:
        raise DTypeError(f"operands must share a dtype, got {sorted({str(a.dtype), str(c.dtype)})}")
    return c


def validate_product(a: np.ndarray, b: Optional[np.ndarray] = None,
                     c: Optional[np.ndarray] = None, beta: float = 1.0
                     ) -> np.ndarray:
    """Check the operands of ``A^T A`` (``b`` omitted) or ``A^T B`` and
    return the checked, or allocated, ``C``.

    This is the one statement of the operand rule; every A^T A / A^T B
    entry point calls it, or (for a sparse, LowRank or out-of-core ``A``,
    which reuse the rule unchanged) its parts :func:`validate_b` and
    :func:`validate_c`.  In order: ``A`` is a floating ndarray; ``B`` has
    ``A``'s row count (:class:`ShapeError`) and dtype
    (:class:`DTypeError`); an omitted ``C`` is allocated as zeros of
    ``A``'s dtype; a given ``C`` is a floating ndarray of the required
    shape (:class:`ShapeError`) and of ``A``'s dtype
    (:class:`DTypeError`).  Under ``Config.strict_finite`` every operand
    that is read must be finite (:class:`ShapeError`), which spares the
    ``C`` of a ``beta == 0`` call.  Nothing is written before it returns,
    so a refused call leaves ``C`` untouched.
    """
    validate_matrix(a, "A")
    if b is not None:
        validate_b(a, b)
    return validate_c(a, c, b, beta)


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

def syrk(a: np.ndarray, c: np.ndarray, alpha: float = 1.0, *,
         lower: bool = True) -> np.ndarray:
    """Symmetric rank-``m`` update: ``C += alpha * A^T A`` (one triangle).

    Parameters
    ----------
    a:
        Input matrix of shape ``(m, n)``.
    c:
        Output matrix of shape ``(n, n)``; updated in place (allocated as
        zeros when ``None``, as :func:`validate_product` does).  Only the
        ``lower`` (or upper) triangle is written; the opposite strict
        triangle is left untouched, mirroring BLAS ``?syrk``.
    alpha:
        Scaling factor applied to the product.
    lower:
        Update the lower (default) or the upper triangle.

    Returns
    -------
    numpy.ndarray
        ``c``, for chaining.
    """
    c = validate_product(a, c=c)
    m, n = a.shape

    if lower:
        direct.syrk_leaf(a, c, alpha)
    else:
        idx = np.triu_indices(n)
        c[idx] += alpha * (a.T @ a)[idx]

    itemsize = a.dtype.itemsize
    counters.record(
        "syrk",
        flops=syrk_flops(m, n),
        bytes=itemsize * (m * n + n * (n + 1) // 2),
    )
    return c


def gemm_t(a: np.ndarray, b: np.ndarray, c: np.ndarray,
           alpha: float = 1.0) -> np.ndarray:
    """Transposed-A GEMM: ``C += alpha * A^T B``.

    Shapes: ``A (m, n)``, ``B (m, k)``, ``C (n, k)``.  This is the base-case
    kernel of both ``RecursiveGEMM`` (Algorithm 2) and ``Strassen``.
    """
    c = validate_product(a, b, c)
    m, n = a.shape
    k = b.shape[1]

    if alpha == 1.0:
        c += a.T @ b
    else:
        c += alpha * (a.T @ b)

    itemsize = a.dtype.itemsize
    counters.record(
        "gemm",
        flops=gemm_flops(m, n, k),
        bytes=itemsize * (m * n + m * k + n * k),
    )
    return c


def gemm(a: np.ndarray, b: np.ndarray, c: np.ndarray, alpha: float = 1.0
         ) -> np.ndarray:
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
    if not a.dtype == b.dtype == c.dtype:
        raise DTypeError("operands must share a dtype, got "
                         f"{sorted({str(x.dtype) for x in (a, b, c)})}")

    if alpha == 1.0:
        c += a @ b
    else:
        c += alpha * (a @ b)

    itemsize = a.dtype.itemsize
    counters.record(
        "gemm",
        flops=gemm_flops(n, m, k),
        bytes=itemsize * (m * n + n * k + m * k),
    )
    return c


def axpy(y: np.ndarray, x: np.ndarray, alpha: float = 1.0) -> np.ndarray:
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
    counters.record("axpy", flops=2 * int(x.size), bytes=3 * x.size * x.itemsize)
    return y


def add_into(y: np.ndarray, x: np.ndarray, alpha: float = 1.0) -> np.ndarray:
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
    counters.record("axpy", flops=2 * rows * cols, bytes=3 * rows * cols * y.itemsize)
    return y


def scale(c: np.ndarray, beta: float) -> np.ndarray:
    """Scale a matrix in place: ``C *= beta`` (BLAS ``?scal``).

    The paper omits the ``beta`` scaling from Algorithm 1 "for clarity of
    exposure, since C can be simply scaled before applying the algorithms";
    this helper is that pre-scaling.  As in BLAS ``?syrk``, ``beta == 0``
    overwrites ``C`` with zeros, so NaN or Inf in it (an ``np.empty``
    buffer) never reaches the result; its finiteness is therefore checked
    by :func:`validate_c`, which knows ``beta``, not here.
    """
    _validate_layout(c, "C")
    if beta != 1.0:
        if beta == 0:
            c.fill(0)
        else:
            c *= beta
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
