"""AtA — Algorithm 1 of the paper (the sequential core contribution).

``ata(A)`` computes the lower triangular part of ``C = alpha * A^T A + C``
for a general rectangular ``A`` of shape ``(m, n)``:

* the recursion splits ``A`` into the four quadrants of Eq. (1) and ``C``
  into the corresponding blocks of Eq. (2);
* the two diagonal blocks of ``C`` are themselves A^T A products, so they
  are obtained through **four recursive AtA calls** (two per block), each
  computing only a lower triangle;
* the sub-diagonal block ``C21 = A12^T A11 + A22^T A21`` is a general
  matrix product and is computed through **two FastStrassen calls** on a
  shared pre-allocated workspace;
* the block ``C12 = C21^T`` is never formed;
* the base case calls the ``syrk`` kernel when ``m * n`` fits in the ideal
  cache.

The resulting operation count is :math:`\\tfrac{2}{3} n^{\\log_2 7}
+ \\tfrac{1}{3} n^2` multiplications (Eq. 3) — two thirds of a plain
Strassen multiplication and asymptotically far below the classical
:math:`n^2 (n + 1)` of BLAS ``syrk``.

The strict upper triangle of the returned matrix is left as zeros (or
whatever the caller's ``C`` contained); use
:func:`repro.blas.kernels.symmetrize_from_lower` to obtain the full
symmetric matrix when needed.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..blas import counters
from ..blas.kernels import scale, symmetrize_from_lower, syrk, validate_product
from ..cache.model import CacheModel, default_cache_model
from ..config import get_config
from ..errors import ShapeError
from .partition import quadrants, split_dim
from .strassen import _strassen
from .workspace import StrassenWorkspace

__all__ = ["ata", "ata_full", "aat"]


def _ata_recurse(a: np.ndarray, c: np.ndarray, alpha: float,
                 fits_ata: Callable[[int, int], bool],
                 fits_gemm: Callable[[int, int, int], bool],
                 workspace, depth: int) -> None:
    """Recursive kernel updating ``low(c) += alpha * a^T a``."""
    m, n = a.shape
    if m == 0 or n == 0:
        return
    if fits_ata(m, n) or (m <= 1 and n <= 1):
        syrk(a, c, alpha)
        return
    if depth > get_config().max_recursion_depth:
        raise ShapeError("AtA recursion exceeded max_recursion_depth; "
                         "check the base-case configuration")

    counters.record("ata_step", calls=1)

    a11, a12, a21, a22 = quadrants(a)
    n1, _ = split_dim(n)
    c11 = c[:n1, :n1]
    c22 = c[n1:, n1:]
    c21 = c[n1:, :n1]

    # Diagonal blocks: four recursive AtA calls (Algorithm 1, lines 7-10).
    _ata_recurse(a11, c11, alpha, fits_ata, fits_gemm, workspace, depth + 1)
    if a21.size:
        _ata_recurse(a21, c11, alpha, fits_ata, fits_gemm, workspace, depth + 1)
    if a12.size:
        _ata_recurse(a12, c22, alpha, fits_ata, fits_gemm, workspace, depth + 1)
    if a22.size:
        _ata_recurse(a22, c22, alpha, fits_ata, fits_gemm, workspace, depth + 1)

    # Off-diagonal block: two FastStrassen calls (Algorithm 1, lines 11-12).
    #   C21 += alpha * (A12^T A11 + A22^T A21)
    if c21.size:
        if a12.size and a11.size:
            _strassen(a12, a11, c21, alpha, workspace, fits_gemm, depth + 1)
        if a22.size and a21.size:
            _strassen(a22, a21, c21, alpha, workspace, fits_gemm, depth + 1)


def ata(a: np.ndarray, c: Optional[np.ndarray] = None, alpha: float = 1.0, *,
        beta: float = 1.0,
        cache: Optional[CacheModel] = None,
        workspace: Optional[StrassenWorkspace] = None) -> np.ndarray:
    """Lower-triangular ``C = alpha * A^T A + beta * C`` via Algorithm 1.

    Parameters
    ----------
    a:
        Input matrix of shape ``(m, n)``; any aspect ratio, any size.
    c:
        Output matrix of shape ``(n, n)``.  Only its lower triangle is
        written.  Allocated as zeros when omitted.
    alpha:
        Multiplier of the product term.
    beta:
        Multiplier applied to the existing content of ``c`` before the
        update (the paper notes ``C`` "can be simply scaled before applying
        the algorithms"; this argument performs that scaling).
    cache:
        Ideal cache model supplying the base-case predicates.  Defaults to
        the configured model (``base_case_elements``).
    workspace:
        Optional pre-allocated Strassen workspace to reuse across calls
        (e.g. by the shared-memory scheduler, which sizes one workspace per
        thread).  Allocated automatically when omitted.

    Returns
    -------
    numpy.ndarray
        ``c`` with its lower triangle holding ``alpha * A^T A + beta * C``.
    """
    c = validate_product(a, c=c)
    m, n = a.shape

    scale(c, beta)

    model = cache if cache is not None else default_cache_model(a.dtype)
    fits_ata = model.fits_ata
    fits_gemm = model.fits_gemm

    if fits_ata(m, n) or (m <= 1 and n <= 1):
        return syrk(a, c, alpha)

    if workspace is None:
        m1, _ = split_dim(m)
        n1, _ = split_dim(n)
        workspace = StrassenWorkspace(m1, n1, n1, dtype=c.dtype, is_base_case=fits_gemm)

    _ata_recurse(a, c, alpha, fits_ata, fits_gemm, workspace, depth=0)
    return c


def ata_full(a: np.ndarray, alpha: float = 1.0, **kwargs) -> np.ndarray:
    """Convenience wrapper returning the *full symmetric* matrix
    ``alpha * A^T A`` (upper triangle mirrored from the lower one)."""
    c = ata(a, alpha=alpha, **kwargs)
    return symmetrize_from_lower(c)


def aat(a: np.ndarray, c: Optional[np.ndarray] = None, alpha: float = 1.0,
        **kwargs) -> np.ndarray:
    """Lower-triangular ``C = alpha * A A^T + C``.

    The paper remarks that the same algorithm also serves the ``A A^T``
    product; with row-major storage it is simply AtA applied to ``A^T``.
    The transpose here is a zero-copy view, so no data movement occurs —
    only the access pattern changes (this is exactly why the paper focuses
    on the harder, column-access-heavy ``A^T A`` case).
    """
    return ata(a.T, c, alpha, **kwargs)
