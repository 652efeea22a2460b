"""Rectangular Strassen multiplication of ``A^T B`` (``FastStrassen``).

This module implements the generalised Strassen algorithm the paper uses
for the off-diagonal block of the A^T A product (Section 3.1, Algorithm 1,
lines 11-12 and 14-18):

* it computes ``C = alpha * A^T B + C`` for arbitrary (possibly odd,
  possibly rectangular) shapes ``A (m x n)``, ``B (m x k)``, ``C (n x k)``;
* odd sizes are handled **without dynamic peeling or static padding** — the
  ceil/floor quadrant split of Eq. (1) combined with prefix additions
  (:func:`repro.blas.kernels.add_into`) emulates padding by a zero
  row/column at zero cost;
* all scratch memory is drawn from a pre-allocated
  :class:`~repro.core.workspace.StrassenWorkspace` (the ``M``, ``P``, ``Q``
  buffers of ``FastStrassen``), so no allocations happen inside the
  recursion;
* the recursion bottoms out into the instrumented ``gemm_t`` kernel when
  the operands fit in cache (the cache-oblivious base case).

The derivation: writing ``X = A^T`` with quadrants ``X11 = A11^T``,
``X12 = A21^T``, ``X21 = A12^T``, ``X22 = A22^T``, the classical seven
Strassen products for ``C = X B`` become, expressed on the *untransposed*
quadrants of ``A`` (which is what the kernels consume):

====  =======================================  =====================
 i     product                                   contributes to
====  =======================================  =====================
 M1    (A11 + A22)^T (B11 + B22)                 +C11, +C22
 M2    (A12 + A22)^T  B11                        +C21, -C22
 M3     A11^T        (B12 - B22)                 +C12, +C22
 M4     A22^T        (B21 - B11)                 +C11, +C21
 M5    (A11 + A21)^T  B22                        -C11, +C12
 M6    (A12 - A11)^T (B11 + B12)                 +C22
 M7    (A21 - A22)^T (B21 + B22)                 +C11
====  =======================================  =====================

giving 7 multiplications and 18 block additions per step, as in the
original Strassen formulation cited by the paper.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..blas import counters
from ..blas.kernels import add_into, gemm_t, validate_product
from ..cache.model import CacheModel, default_cache_model
from ..config import get_config
from ..errors import ShapeError
from .partition import quadrants
from .workspace import StrassenWorkspace

__all__ = ["fast_strassen", "strassen_atb", "strassen_schedule", "STRASSEN_PRODUCTS"]


#: The Strassen schedule in symbolic form: for each of the seven products,
#: the A-side terms (quadrant index, sign), the B-side terms, and the list
#: of (C quadrant, sign) targets.  Quadrant indices are "11", "12", "21",
#: "22".  Exposed for documentation, testing and the complexity module.
STRASSEN_PRODUCTS: Tuple[dict, ...] = (
    {"name": "M1", "a": (("11", 1), ("22", 1)), "b": (("11", 1), ("22", 1)),
     "c": (("11", 1), ("22", 1))},
    {"name": "M2", "a": (("12", 1), ("22", 1)), "b": (("11", 1),),
     "c": (("21", 1), ("22", -1))},
    {"name": "M3", "a": (("11", 1),), "b": (("12", 1), ("22", -1)),
     "c": (("12", 1), ("22", 1))},
    {"name": "M4", "a": (("22", 1),), "b": (("21", 1), ("11", -1)),
     "c": (("11", 1), ("21", 1))},
    {"name": "M5", "a": (("11", 1), ("21", 1)), "b": (("22", 1),),
     "c": (("11", -1), ("12", 1))},
    {"name": "M6", "a": (("12", 1), ("11", -1)), "b": (("11", 1), ("12", 1)),
     "c": (("22", 1),)},
    {"name": "M7", "a": (("21", 1), ("22", -1)), "b": (("21", 1), ("22", 1)),
     "c": (("11", 1),)},
)


def strassen_schedule() -> Tuple[dict, ...]:
    """Return the symbolic seven-product schedule (a copy-safe tuple)."""
    return STRASSEN_PRODUCTS


# ---------------------------------------------------------------------------
# operand combination helpers
# ---------------------------------------------------------------------------

def _combine(terms: Sequence[Tuple[np.ndarray, int]], allocate, release_flag: list) -> np.ndarray:
    """Materialise a signed sum of quadrant views into workspace scratch.

    When the sum is a single positively-signed term, the view itself is
    returned and no scratch is used (``release_flag`` records whether the
    returned array must be released back to the arena).
    """
    if len(terms) == 1 and terms[0][1] == 1:
        release_flag.append(False)
        return terms[0][0]
    rows = max(t[0].shape[0] for t in terms)
    cols = max(t[0].shape[1] for t in terms)
    buf = allocate(rows, cols)
    for view, sign in terms:
        if view.size:
            add_into(buf, view, float(sign))
    release_flag.append(True)
    return buf


# ---------------------------------------------------------------------------
# the recursion
# ---------------------------------------------------------------------------

def _strassen(a: np.ndarray, b: np.ndarray, c: np.ndarray, alpha: float,
              workspace, fits: Callable[[int, int, int], bool], depth: int) -> None:
    """Recursive kernel: ``c += alpha * a^T b`` using workspace scratch."""
    m, n = a.shape
    _, k = b.shape

    if m == 0 or n == 0 or k == 0:
        return
    if fits(m, n, k) or (m <= 1 and n <= 1 and k <= 1):
        gemm_t(a, b, c, alpha)
        return
    if depth > get_config().max_recursion_depth:
        raise ShapeError("Strassen recursion exceeded max_recursion_depth; "
                         "check the base-case configuration")

    counters.record("strassen_step", calls=1)

    a11, a12, a21, a22 = quadrants(a)
    b11, b12, b21, b22 = quadrants(b)
    c11, c12, c21, c22 = quadrants(c)
    a_quads = {"11": a11, "12": a12, "21": a21, "22": a22}
    b_quads = {"11": b11, "12": b12, "21": b21, "22": b22}
    c_quads = {"11": c11, "12": c12, "21": c21, "22": c22}

    for spec in STRASSEN_PRODUCTS:
        a_terms = [(a_quads[q], s) for q, s in spec["a"]]
        b_terms = [(b_quads[q], s) for q, s in spec["b"]]

        a_release: list = []
        b_release: list = []
        a_op = _combine(a_terms, workspace.a_sum, a_release)
        try:
            b_op = _combine(b_terms, workspace.b_sum, b_release)
            try:
                # Rows beyond the shorter operand are structurally zero in
                # the padded formulation, so they can be dropped exactly.
                m_eff = min(a_op.shape[0], b_op.shape[0])
                prod = workspace.product(a_op.shape[1], b_op.shape[1])
                try:
                    if m_eff:
                        _strassen(a_op[:m_eff], b_op[:m_eff], prod, 1.0,
                                  workspace, fits, depth + 1)
                    for target, sign in spec["c"]:
                        tgt = c_quads[target]
                        if tgt.size and prod.size:
                            add_into(tgt, prod, float(sign) * alpha)
                finally:
                    workspace.release_product(prod)
            finally:
                if b_release[0]:
                    workspace.release_b(b_op)
        finally:
            if a_release[0]:
                workspace.release_a(a_op)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def fast_strassen(a: np.ndarray, b: np.ndarray, c: Optional[np.ndarray] = None,
                  alpha: float = 1.0, *,
                  workspace: Optional[object] = None,
                  cache: Optional[CacheModel] = None,
                  use_strassen: bool = True) -> np.ndarray:
    """Compute ``C = alpha * A^T B + C`` with the FastStrassen algorithm.

    Parameters
    ----------
    a, b:
        Operands of shapes ``(m, n)`` and ``(m, k)``.
    c:
        Output of shape ``(n, k)``, updated in place.  Allocated as zeros
        when omitted.
    alpha:
        Scalar multiplier of the product.
    workspace:
        A :class:`~repro.core.workspace.StrassenWorkspace` (or
        :class:`~repro.core.workspace.NaiveWorkspace` for the allocation
        ablation) to draw scratch from.  Allocated automatically when
        omitted — this is exactly what the paper's ``FastStrassen`` wrapper
        does before invoking the recursive ``Strassen`` procedure.
    cache:
        Ideal cache model providing the base-case predicate
        ``m*n + m*k <= M``.  Defaults to the configured model.
    use_strassen:
        When False, fall back to a single ``gemm_t`` call (useful for
        calibration tests).

    Returns
    -------
    numpy.ndarray
        The updated ``c``.
    """
    c = validate_product(a, b, c)
    m, n = a.shape
    k = b.shape[1]

    if not use_strassen:
        return gemm_t(a, b, c, alpha)

    model = cache if cache is not None else default_cache_model(a.dtype)
    fits = model.fits_gemm

    if fits(m, n, k) or (m <= 1 and n <= 1 and k <= 1):
        return gemm_t(a, b, c, alpha)

    if workspace is None:
        workspace = StrassenWorkspace(m, n, k, dtype=c.dtype, is_base_case=fits)
    elif isinstance(workspace, StrassenWorkspace) and not workspace.fits(m, n, k):
        raise ShapeError(
            f"supplied workspace (sized for {workspace.shape}) is too small for "
            f"a ({m}, {n}, {k}) product"
        )

    _strassen(a, b, c, alpha, workspace, fits, depth=0)
    return c


def strassen_atb(a: np.ndarray, b: np.ndarray, c: Optional[np.ndarray] = None,
                 alpha: float = 1.0, **kwargs) -> np.ndarray:
    """Alias of :func:`fast_strassen` (the name used in the public API)."""
    return fast_strassen(a, b, c, alpha, **kwargs)
