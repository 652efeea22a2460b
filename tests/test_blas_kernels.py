"""Tests for the instrumented BLAS kernels (repro.blas.kernels) and the
BLAS binding their syrk leaf calls (repro.blas.direct)."""

import glob
import importlib.util
import os

import numpy as np
import pytest

from repro.blas import counters, direct
from repro.blas.kernels import (
    add_into,
    axpy,
    gemm,
    gemm_flops,
    gemm_t,
    scale,
    symmetrize_from_lower,
    syrk,
    syrk_flops,
    tril_inplace,
    validate_matrix,
)
from repro.errors import DTypeError, ShapeError


class TestValidateMatrix:
    def test_accepts_float64(self, rng):
        a = rng.standard_normal((3, 4))
        assert validate_matrix(a) is a

    def test_rejects_list(self):
        with pytest.raises(DTypeError):
            validate_matrix([[1.0, 2.0]])

    def test_rejects_integer_dtype(self):
        with pytest.raises(DTypeError):
            validate_matrix(np.ones((2, 2), dtype=np.int64))

    def test_rejects_wrong_ndim(self, rng):
        with pytest.raises(ShapeError):
            validate_matrix(rng.standard_normal(5))


class TestSyrk:
    def test_matches_reference_lower(self, rng):
        a = rng.standard_normal((20, 7))
        c = np.zeros((7, 7))
        syrk(a, c)
        assert np.allclose(np.tril(c), np.tril(a.T @ a))

    def test_upper_triangle_untouched(self, rng):
        a = rng.standard_normal((10, 5))
        c = np.full((5, 5), 99.0)
        syrk(a, c)
        iu = np.triu_indices(5, k=1)
        assert np.all(c[iu] == 99.0)

    def test_upper_variant(self, rng):
        a = rng.standard_normal((10, 5))
        c = np.zeros((5, 5))
        syrk(a, c, lower=False)
        assert np.allclose(np.triu(c), np.triu(a.T @ a))

    def test_accumulates_into_existing(self, rng):
        a = rng.standard_normal((8, 4))
        c0 = np.tril(rng.standard_normal((4, 4)))
        c = c0.copy()
        syrk(a, c, alpha=2.0)
        assert np.allclose(np.tril(c), np.tril(c0 + 2.0 * (a.T @ a)))

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            syrk(rng.standard_normal((8, 4)), np.zeros((5, 5)))

    def test_dtype_mismatch_raises(self, rng):
        a = rng.standard_normal((8, 4)).astype(np.float32)
        with pytest.raises(DTypeError):
            syrk(a, np.zeros((4, 4), dtype=np.float64))

    def test_records_flops(self, rng):
        a = rng.standard_normal((16, 8))
        with counters.counting() as cs:
            syrk(a, np.zeros((8, 8)))
        assert cs["syrk"].calls == 1
        assert cs["syrk"].flops == syrk_flops(16, 8)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("m", [64, 512, 1024])
    def test_update_equals_existing_plus_fresh_product(self, rng, m, dtype):
        """``syrk(a, c) == c + syrk(a, 0)`` bit for bit, also for panels
        taller than the BLAS's internal row blocking (the process farm's
        partial-fold contract rests on it), and the strict upper triangle
        of ``c`` is never written."""
        n = 40
        a = rng.standard_normal((m, n)).astype(dtype)
        c0 = rng.standard_normal((n, n)).astype(dtype)
        c = syrk(a, c0.copy(), alpha=0.5)
        fresh = syrk(a, np.zeros((n, n), dtype=dtype), alpha=0.5)
        assert np.array_equal(c, c0 + fresh)
        iu = np.triu_indices(n, k=1)
        assert np.array_equal(c[iu], c0[iu])

    def test_strided_operands(self, rng):
        """Column windows (row stride > n) bind in place; a non-unit inner
        stride takes the numpy expression; both stay correct."""
        base = rng.standard_normal((30, 20))
        for a in (base[:, 3:11], base[::2, ::2], base.T):
            n = a.shape[1]
            c = np.zeros((n, n))
            syrk(a, c)
            assert np.allclose(np.tril(c), np.tril(a.T @ a))
            assert np.array_equal(np.triu(c, 1), np.zeros((n, n)))


def _vendored_openblas() -> list:
    """The ``scipy_openblas`` builds numpy and scipy ship next to their
    packages (found without importing scipy)."""
    paths = []
    for name in ("numpy", "scipy"):
        spec = importlib.util.find_spec(name)
        if spec is None or not spec.origin:
            continue
        site = os.path.dirname(os.path.dirname(spec.origin))
        paths += glob.glob(os.path.join(site, f"{name}.libs", "*scipy_openblas*"))
    return paths


class TestBlasBinding:
    @pytest.mark.skipif(not _vendored_openblas(),
                        reason="no vendored scipy_openblas library")
    def test_vendored_openblas_binds_in_place(self, monkeypatch):
        """A wheel-vendored OpenBLAS always yields the ctypes provider,
        with the ILP64 symbol exactly when the library is the ILP64 build."""
        try:
            import scipy  # noqa: F401  (puts scipy.libs on the candidate list)
        except ImportError:
            pass
        monkeypatch.setattr(direct, "_PROVIDER", None)
        monkeypatch.setattr(direct, "_LOADED", False)
        assert direct.provider() == "ctypes"
        library, symbol = direct.binding()
        ilp64 = "openblas64_" in os.path.basename(library)
        assert symbol.endswith("64_") == ilp64

    @pytest.mark.skipif(not _vendored_openblas(),
                        reason="no vendored scipy_openblas library")
    def test_vendored_binding_skips_system_search(self, monkeypatch):
        """``find_library`` runs the compiler and linker in subprocesses;
        it must not run once a vendored build has bound."""
        def no_search(name):
            raise AssertionError(f"system library search for {name!r}")

        monkeypatch.setattr(direct.ctypes.util, "find_library", no_search)
        monkeypatch.setattr(direct, "_PROVIDER", None)
        monkeypatch.setattr(direct, "_LOADED", False)
        assert direct.provider() == "ctypes"

    @pytest.mark.skipif(not direct.is_available(),
                        reason="no BLAS-direct provider on this host")
    def test_direct_syrk_is_kernel_syrk(self, rng):
        a = rng.standard_normal((700, 24))
        c0 = rng.standard_normal((24, 24))
        expected = syrk(a, c0.copy(), alpha=1.5)
        got = direct.direct_syrk(a, c0.copy(), 1.5)
        assert np.array_equal(got, expected)


class TestGemmT:
    def test_matches_reference(self, rng):
        a = rng.standard_normal((15, 6))
        b = rng.standard_normal((15, 9))
        c = np.zeros((6, 9))
        gemm_t(a, b, c)
        assert np.allclose(c, a.T @ b)

    def test_alpha_scaling(self, rng):
        a = rng.standard_normal((5, 3))
        b = rng.standard_normal((5, 2))
        c = np.zeros((3, 2))
        gemm_t(a, b, c, alpha=-1.5)
        assert np.allclose(c, -1.5 * (a.T @ b))

    def test_inner_dimension_mismatch(self, rng):
        with pytest.raises(ShapeError):
            gemm_t(rng.standard_normal((5, 3)), rng.standard_normal((6, 2)),
                   np.zeros((3, 2)))

    def test_output_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            gemm_t(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)),
                   np.zeros((2, 3)))

    def test_records_flops(self, rng):
        a = rng.standard_normal((10, 4))
        b = rng.standard_normal((10, 6))
        with counters.counting() as cs:
            gemm_t(a, b, np.zeros((4, 6)))
        assert cs["gemm"].flops == gemm_flops(10, 4, 6)


class TestGemm:
    def test_matches_reference(self, rng):
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((4, 5))
        c = np.zeros((6, 5))
        gemm(a, b, c)
        assert np.allclose(c, a @ b)

    def test_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            gemm(rng.standard_normal((6, 4)), rng.standard_normal((5, 5)),
                 np.zeros((6, 5)))


class TestAxpyAndAddInto:
    def test_axpy_basic(self, rng):
        x = rng.standard_normal((4, 4))
        y = rng.standard_normal((4, 4))
        expected = y + 2.0 * x
        axpy(y, x, 2.0)
        assert np.allclose(y, expected)

    def test_axpy_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            axpy(rng.standard_normal((3, 3)), rng.standard_normal((4, 4)))

    def test_add_into_equal_shapes(self, rng):
        x = rng.standard_normal((3, 5))
        y = np.zeros((3, 5))
        add_into(y, x)
        assert np.allclose(y, x)

    def test_add_into_smaller_source(self, rng):
        """Smaller source == implicit zero padding of the source."""
        x = rng.standard_normal((2, 3))
        y = np.zeros((3, 4))
        add_into(y, x, -1.0)
        assert np.allclose(y[:2, :3], -x)
        assert np.all(y[2:, :] == 0) and np.all(y[:, 3:] == 0)

    def test_add_into_smaller_target(self, rng):
        """Larger source: the extra row/column is simply dropped."""
        x = rng.standard_normal((4, 4))
        y = np.zeros((3, 3))
        add_into(y, x)
        assert np.allclose(y, x[:3, :3])

    def test_add_into_empty_is_noop(self, rng):
        y = rng.standard_normal((3, 3)).copy()
        before = y.copy()
        add_into(y, np.zeros((0, 3)))
        assert np.array_equal(y, before)


class TestScaleAndTriangles:
    def test_scale(self, rng):
        c = rng.standard_normal((4, 4))
        expected = 0.5 * c
        scale(c, 0.5)
        assert np.allclose(c, expected)

    def test_scale_by_one_is_noop_and_free(self, rng):
        c = rng.standard_normal((4, 4))
        with counters.counting() as cs:
            scale(c, 1.0)
        assert "scal" not in cs

    def test_tril_inplace(self, rng):
        c = rng.standard_normal((5, 5))
        tril_inplace(c)
        assert np.allclose(c, np.tril(c))

    def test_tril_requires_square(self, rng):
        with pytest.raises(ShapeError):
            tril_inplace(rng.standard_normal((3, 4)))

    def test_symmetrize_from_lower(self, rng):
        full = rng.standard_normal((6, 6))
        sym_ref = np.tril(full) + np.tril(full, -1).T
        c = np.tril(full).copy()
        symmetrize_from_lower(c)
        assert np.allclose(c, sym_ref)
        assert np.allclose(c, c.T)
