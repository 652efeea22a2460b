"""One operand contract for ``C = alpha A^T A + beta C`` and ``C = alpha A^T B + C``.

Every A^T A / A^T B entry point states its rule through
:func:`repro.blas.kernels.validate_product` (or its parts ``validate_b`` /
``validate_c`` for sparse and out-of-core operands), so one table
checks them all: the same error types for the same bad operand, nothing
written to ``C`` before a refusal, and an omitted ``C`` in ``A``'s dtype.
The sparse rows pass ``A`` as CSR and skip themselves without scipy.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.baselines.cosma import cosma_multiply
from repro.baselines.mkl_like import mkl_gemm_t, mkl_syrk
from repro.baselines.naive import naive_ata, naive_gemm_t
from repro.blas import direct, kernels
from repro.blas.blocked import blocked_gemm_t, blocked_syrk
from repro.core.recursive_gemm import recursive_gemm
from repro.core.strassen import fast_strassen
from repro.engine import ExecutionEngine
from repro.engine.sparse import HAVE_SCIPY
from repro.errors import DTypeError, ShapeError
from repro.parallel.ata_shared import ata_shared

M, N, K = 12, 6, 4

needs_direct = pytest.mark.skipif(not direct.is_available(),
                                  reason="no BLAS-direct provider bound")
needs_scipy = pytest.mark.skipif(not HAVE_SCIPY, reason="needs scipy")

if HAVE_SCIPY:
    import scipy.sparse as sps


def _csr(a):
    """``A`` as a CSR matrix (lists pass through, so the non-ndarray row
    reaches the engine's dense rule)."""
    if not isinstance(a, np.ndarray):
        return a
    return sps.csr_matrix(a)


def _ooc(a, c):
    return ExecutionEngine().matmul_ata_ooc(a, c, procs=0)


# (id, call(a, c) or call(a, b, c), marks)
ATA = [
    ("kernels.syrk", lambda a, c: kernels.syrk(a, c), ()),
    ("direct_syrk", lambda a, c: direct.direct_syrk(a, c), (needs_direct,)),
    ("blocked_syrk", lambda a, c: blocked_syrk(a, c, block=4), ()),
    ("naive_ata", lambda a, c: naive_ata(a, c), ()),
    ("mkl_syrk", lambda a, c: mkl_syrk(a, c), ()),
    ("repro.ata", lambda a, c: repro.ata(a, c), ()),
    ("ata_shared", lambda a, c: ata_shared(a, c, threads=2), ()),
    ("matmul_ata", lambda a, c: ExecutionEngine().matmul_ata(a, c), ()),
    ("matmul_ata[csr]",
     lambda a, c: ExecutionEngine().matmul_ata(_csr(a), c), (needs_scipy,)),
    ("matmul_ata_ooc", _ooc, ()),
]

ATB = [
    ("kernels.gemm_t", lambda a, b, c: kernels.gemm_t(a, b, c), ()),
    ("direct_gemm_t", lambda a, b, c: direct.direct_gemm_t(a, b, c),
     (needs_direct,)),
    ("blocked_gemm_t", lambda a, b, c: blocked_gemm_t(a, b, c, block=4), ()),
    ("naive_gemm_t", lambda a, b, c: naive_gemm_t(a, b, c), ()),
    ("mkl_gemm_t", lambda a, b, c: mkl_gemm_t(a, b, c), ()),
    ("fast_strassen", lambda a, b, c: fast_strassen(a, b, c), ()),
    ("recursive_gemm", lambda a, b, c: recursive_gemm(a, b, c), ()),
    ("matmul_atb", lambda a, b, c: ExecutionEngine().matmul_atb(a, b, c), ()),
    ("matmul_atb[csr]",
     lambda a, b, c: ExecutionEngine().matmul_atb(_csr(a), b, c),
     (needs_scipy,)),
]


def _params(table):
    return [pytest.param(call, id=name, marks=marks)
            for name, call, marks in table]


@pytest.fixture
def operands(rng):
    a = rng.standard_normal((M, N))
    b = rng.standard_normal((M, K))
    return a, b


def _refused(error, call, *args):
    """``call(*args)`` raises ``error`` and leaves its ``C`` (last arg)
    exactly as it was."""
    c = args[-1]
    before = c.copy()
    with pytest.raises(error):
        call(*args)
    np.testing.assert_array_equal(c, before)


@pytest.mark.parametrize("call", _params(ATA))
class TestAtA:
    def test_c_of_wrong_shape(self, call, operands, rng):
        a, _ = operands
        _refused(ShapeError, call, a, rng.standard_normal((N + 1, N)))

    def test_c_of_wrong_dtype(self, call, operands, rng):
        a, _ = operands
        c = rng.standard_normal((N, N)).astype(np.float32)
        _refused(DTypeError, call, a, c)

    def test_non_ndarray_a(self, call, operands, rng):
        if call is _ooc:
            pytest.skip("out-of-core A is any panel source, not an ndarray")
        a, _ = operands
        _refused(DTypeError, call, a.tolist(), rng.standard_normal((N, N)))

    def test_omitted_c_takes_a_dtype(self, call, operands):
        a = operands[0].astype(np.float32)
        c = call(a, None)
        assert c.dtype == np.float32 and c.shape == (N, N)
        np.testing.assert_allclose(np.tril(c), np.tril(a.T @ a), rtol=1e-4)


@pytest.mark.parametrize("call", _params(ATB))
class TestAtB:
    def test_c_of_wrong_shape(self, call, operands, rng):
        a, b = operands
        _refused(ShapeError, call, a, b, rng.standard_normal((N, K + 1)))

    def test_c_of_wrong_dtype(self, call, operands, rng):
        a, b = operands
        c = rng.standard_normal((N, K)).astype(np.float32)
        _refused(DTypeError, call, a, b, c)

    def test_b_of_wrong_dtype(self, call, operands, rng):
        a, b = operands
        _refused(DTypeError, call, a, b.astype(np.float32),
                 rng.standard_normal((N, K)))

    def test_b_with_wrong_row_count(self, call, operands, rng):
        a, _ = operands
        _refused(ShapeError, call, a, rng.standard_normal((M + 1, K)),
                 rng.standard_normal((N, K)))

    def test_non_ndarray_a(self, call, operands, rng):
        a, b = operands
        _refused(DTypeError, call, a.tolist(), b, rng.standard_normal((N, K)))

    def test_omitted_c_takes_a_dtype(self, call, operands):
        a, b = (x.astype(np.float32) for x in operands)
        c = call(a, b, None)
        assert c.dtype == np.float32 and c.shape == (N, K)
        np.testing.assert_allclose(c, a.T @ b, rtol=1e-4, atol=1e-5)


class TestCosma:
    """``cosma_multiply`` takes no ``C``; it follows the ``B`` rule and
    returns ``A``'s dtype."""

    def test_b_of_wrong_dtype(self, operands):
        a, b = operands
        with pytest.raises(DTypeError):
            cosma_multiply(a, b.astype(np.float32), processes=2)

    def test_b_with_wrong_row_count(self, operands):
        a, b = operands
        with pytest.raises(ShapeError):
            cosma_multiply(a, np.vstack([b, b[:1]]), processes=2)

    def test_non_ndarray_a(self, operands):
        a, b = operands
        with pytest.raises(DTypeError):
            cosma_multiply(a.tolist(), b, processes=2)

    def test_result_takes_a_dtype(self, operands):
        a, b = (x.astype(np.float32) for x in operands)
        c = cosma_multiply(a, b, processes=2)
        assert c.dtype == np.float32
        np.testing.assert_allclose(c, a.T @ b, rtol=1e-4, atol=1e-5)


BETA_ZERO = [
    pytest.param(lambda a, c: ExecutionEngine().matmul_ata(a, c, beta=0.0),
                 id="matmul_ata"),
    pytest.param(lambda a, c: repro.ata(a, c, beta=0.0), id="repro.ata"),
    pytest.param(lambda a, c: ata_shared(a, c, beta=0.0, threads=2),
                 id="ata_shared"),
    pytest.param(lambda a, c: ExecutionEngine().run_ooc(
        a, c, beta=0.0, panel_rows=4, procs=0)[0], id="run_ooc"),
]


@pytest.mark.parametrize("call", BETA_ZERO)
@pytest.mark.parametrize("fill", [np.nan, np.inf, 3.0])
def test_beta_zero_overwrites_c(call, fill, operands):
    """BLAS ``?syrk``: with ``beta == 0``, ``C`` need not be set on input —
    whatever it holds (NaN, Inf, finite) is overwritten, and the result is
    bit-identical to the one with ``C`` omitted."""
    a, _ = operands
    c = np.full((N, N), fill)
    got = call(a, c)
    assert got is c
    np.testing.assert_array_equal(got, call(a, None))
