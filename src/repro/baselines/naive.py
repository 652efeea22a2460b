"""Naive reference implementations of ``A^T A`` and ``A^T B``.

These are the semantic oracles of the test suite and the "classical
algorithm" endpoints of the complexity comparisons: straightforward
column-dot-product formulations that perform exactly the classical
operation counts (``m n (n+1) / 2`` multiplications for the triangular
product, ``m n k`` for the general one) with no blocking and no recursion.

They are intentionally written as explicit loops over output columns (with
a vectorised inner dot product, so they remain usable at test sizes) rather
than a single ``A.T @ A`` call: the point is to have an implementation
whose arithmetic is obviously the textbook one and independent from the
BLAS-backed kernels the fast algorithms use.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..blas import counters
from ..blas.kernels import validate_product

__all__ = ["naive_ata", "naive_gemm_t", "naive_aat"]


def naive_ata(a: np.ndarray, c: Optional[np.ndarray] = None, alpha: float = 1.0) -> np.ndarray:
    """Classical lower-triangular ``C += alpha * A^T A``, column by column."""
    c = validate_product(a, c=c)
    m, n = a.shape
    for j in range(n):
        # all rows at or below the diagonal of column j at once
        c[j:, j] += alpha * (a[:, j:].T @ a[:, j])
    counters.record("naive_syrk", flops=m * n * (n + 1),
                    bytes=a.nbytes + c.nbytes)
    return c


def naive_gemm_t(a: np.ndarray, b: np.ndarray, c: Optional[np.ndarray] = None,
                 alpha: float = 1.0) -> np.ndarray:
    """Classical ``C += alpha * A^T B``, output column by output column."""
    c = validate_product(a, b, c)
    m, n = a.shape
    k = b.shape[1]
    for j in range(k):
        c[:, j] += alpha * (a.T @ b[:, j])
    counters.record("naive_gemm", flops=2 * m * n * k,
                    bytes=a.nbytes + b.nbytes + c.nbytes)
    return c


def naive_aat(a: np.ndarray, c: Optional[np.ndarray] = None, alpha: float = 1.0) -> np.ndarray:
    """Classical lower-triangular ``C += alpha * A A^T``."""
    return naive_ata(np.ascontiguousarray(a.T), c, alpha)
