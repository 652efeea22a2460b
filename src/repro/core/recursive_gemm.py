"""RecursiveGEMM — Algorithm 2 of the paper.

A cache-oblivious *classical* (non-Strassen) recursive algorithm for
``C += alpha * A^T B``.  Each step splits the three matrices into quadrants
and performs the eight sub-products

::

    C[i,j] += A[l,i]^T B[l,j]      for i, j, l in {1, 2}

recursing until the operands fit in cache, where the BLAS ``gemm_t`` kernel
is called.  Unlike Strassen there are no discordant-shape additions: every
sub-product's shape matches its destination quadrant exactly.

In the paper RecursiveGEMM is not used for the actual numerics of the
sequential algorithm (Strassen is); its role is to define the recursion
tree that the parallel schedulers expand (Section 4.1.3 explains why:
predictable memory behaviour and a balanced 8-way split).  It is fully
functional here both because the task tree needs its exact recursion
structure and because it serves as an additional correctness oracle in the
test suite.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..blas import counters
from ..blas.kernels import gemm_t, validate_product
from ..cache.model import CacheModel, default_cache_model
from ..config import get_config
from ..errors import ShapeError
from .partition import quadrants

__all__ = ["recursive_gemm", "RECURSIVE_GEMM_SPLIT"]

#: The (i, j, l) ordering of the eight recursive calls of Algorithm 2.  The
#: scheduler relies on this ordering when labelling children of an A^T B
#: node, so it is defined once here and imported there.
RECURSIVE_GEMM_SPLIT = tuple(
    (i, j, l) for i in (1, 2) for j in (1, 2) for l in (1, 2)
)


def _recurse(a: np.ndarray, b: np.ndarray, c: np.ndarray, alpha: float,
             fits: Callable[[int, int, int], bool], depth: int) -> None:
    m, n = a.shape
    _, k = b.shape
    if m == 0 or n == 0 or k == 0:
        return
    if fits(m, n, k) or (m <= 1 and n <= 1 and k <= 1):
        gemm_t(a, b, c, alpha)
        return
    if depth > get_config().max_recursion_depth:
        raise ShapeError("RecursiveGEMM exceeded max_recursion_depth; "
                         "check the base-case configuration")

    counters.record("recursive_gemm_step", calls=1)

    a_q = dict(zip(("11", "12", "21", "22"), quadrants(a)))
    b_q = dict(zip(("11", "12", "21", "22"), quadrants(b)))
    c_q = dict(zip(("11", "12", "21", "22"), quadrants(c)))

    for i, j, l in RECURSIVE_GEMM_SPLIT:
        a_block = a_q[f"{l}{i}"]
        b_block = b_q[f"{l}{j}"]
        c_block = c_q[f"{i}{j}"]
        if a_block.size == 0 or b_block.size == 0 or c_block.size == 0:
            continue
        _recurse(a_block, b_block, c_block, alpha, fits, depth + 1)


def recursive_gemm(a: np.ndarray, b: np.ndarray, c: Optional[np.ndarray] = None,
                   alpha: float = 1.0, *, cache: Optional[CacheModel] = None) -> np.ndarray:
    """Compute ``C = alpha * A^T B + C`` with the classical recursive scheme.

    Parameters
    ----------
    a, b:
        Operands of shape ``(m, n)`` and ``(m, k)``.
    c:
        Output of shape ``(n, k)``; allocated as zeros when omitted.
    alpha:
        Scalar multiplier.
    cache:
        Ideal cache model providing the base case
        ``m*n + m*k <= M`` (Algorithm 2, line 2).
    """
    c = validate_product(a, b, c)

    model = cache if cache is not None else default_cache_model(a.dtype)
    _recurse(a, b, c, alpha, model.fits_gemm, depth=0)
    return c
