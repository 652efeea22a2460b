"""Blocked (tiled) SYRK and GEMM reference implementations.

These are the library's stand-ins for the *vendor* routines the paper
compares against (Intel MKL ``dsyrk`` / ``dgemm`` / ``ssyrk``): iterative,
cache-blocked loops over tiles whose inner kernel is the instrumented BLAS
layer of :mod:`repro.blas.kernels`.  They perform the classical
:math:`2 n^3` (GEMM) and :math:`n^2 (n+1)` (SYRK) floating point operations
— i.e. they do **not** use Strassen — so the flop-count advantage of AtA
and FastStrassen over them mirrors the advantage the paper measures over
MKL.

They are also used directly as the base-case kernels of the recursive
algorithms when a caller requests an explicit tile size instead of the
cache-oblivious default.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ShapeError
from .kernels import gemm_t, syrk, validate_product

__all__ = ["blocked_syrk", "blocked_gemm_t", "choose_block_size"]


def choose_block_size(cache_elements: int) -> int:
    """Tile edge for a square tile of ``cache_elements`` total elements.

    A blocked ``A^T B`` product touches three tiles at once (one of A, one
    of B, one of C), so the edge is chosen such that three square tiles fit
    in the given capacity.
    """
    if cache_elements < 3:
        return 1
    return max(1, int(np.sqrt(cache_elements / 3.0)))


def blocked_syrk(a: np.ndarray, c: Optional[np.ndarray] = None, alpha: float = 1.0, *,
                 block: int = 256) -> np.ndarray:
    """Tiled classical ``C += alpha * A^T A`` (lower triangle only).

    Parameters
    ----------
    a:
        Input matrix of shape ``(m, n)``.
    c:
        Output ``(n, n)`` matrix updated in place; allocated (zero) when
        omitted.
    block:
        Tile edge length.

    Returns
    -------
    numpy.ndarray
        The updated ``c``.
    """
    c = validate_product(a, c=c)
    m, n = a.shape
    if block < 1:
        raise ShapeError(f"block size must be positive, got {block}")

    for j0 in range(0, n, block):
        j1 = min(j0 + block, n)
        # diagonal tile: a true syrk on the column slab
        for k0 in range(0, m, block):
            k1 = min(k0 + block, m)
            syrk(a[k0:k1, j0:j1], c[j0:j1, j0:j1], alpha)
        # sub-diagonal tiles: general A^T B products
        for i0 in range(j1, n, block):
            i1 = min(i0 + block, n)
            for k0 in range(0, m, block):
                k1 = min(k0 + block, m)
                gemm_t(a[k0:k1, i0:i1], a[k0:k1, j0:j1], c[i0:i1, j0:j1], alpha)
    return c


def blocked_gemm_t(a: np.ndarray, b: np.ndarray, c: Optional[np.ndarray] = None,
                   alpha: float = 1.0, *, block: int = 256) -> np.ndarray:
    """Tiled classical ``C += alpha * A^T B``.

    Shapes: ``A (m, n)``, ``B (m, k)``, ``C (n, k)``.
    """
    c = validate_product(a, b, c)
    m, n = a.shape
    k = b.shape[1]
    if block < 1:
        raise ShapeError(f"block size must be positive, got {block}")

    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        for j0 in range(0, k, block):
            j1 = min(j0 + block, k)
            for k0 in range(0, m, block):
                k1 = min(k0 + block, m)
                gemm_t(a[k0:k1, i0:i1], b[k0:k1, j0:j1], c[i0:i1, j0:j1], alpha)
    return c
