"""Tests for the sequential AtA algorithm (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blas import counters
from repro.cache.model import CacheModel
from repro.config import configured
from repro.core.ata import aat, ata, ata_full
from repro.core.workspace import StrassenWorkspace
from repro.errors import DTypeError, ShapeError


class TestCorrectness:
    @pytest.mark.parametrize("m,n", [
        (8, 8), (16, 16), (64, 64), (128, 128),      # square powers of two
        (7, 5), (33, 17), (31, 31), (129, 65),       # odd
        (1, 9), (9, 1), (50, 3), (3, 50),            # degenerate / rectangular
        (200, 40), (40, 200),                        # tall and wide
    ])
    def test_lower_triangle_matches_reference(self, rng, small_base_case, m, n):
        a = rng.standard_normal((m, n))
        c = ata(a)
        assert np.allclose(np.tril(c), np.tril(a.T @ a))

    def test_strict_upper_triangle_untouched(self, rng, small_base_case):
        a = rng.standard_normal((30, 20))
        c = np.zeros((20, 20))
        ata(a, c)
        assert np.all(np.triu(c, 1) == 0)

    def test_alpha_and_beta(self, rng, small_base_case):
        a = rng.standard_normal((25, 14))
        c0 = rng.standard_normal((14, 14))
        c = ata(a, c0.copy(), alpha=2.0, beta=-0.5)
        ref = np.tril(2.0 * (a.T @ a) - 0.5 * c0)
        assert np.allclose(np.tril(c), ref)

    def test_ata_full_symmetric(self, rng, small_base_case):
        a = rng.standard_normal((30, 18))
        full = ata_full(a)
        assert np.allclose(full, a.T @ a)
        assert np.allclose(full, full.T)

    def test_aat(self, rng, small_base_case):
        a = rng.standard_normal((12, 40))
        c = aat(a)
        assert np.allclose(np.tril(c), np.tril(a @ a.T))

    def test_result_positive_semidefinite(self, rng, small_base_case):
        """A^T A is PSD — eigenvalues of the symmetrised result are >= 0."""
        a = rng.standard_normal((40, 16))
        eigvals = np.linalg.eigvalsh(ata_full(a))
        assert np.all(eigvals >= -1e-9)

    def test_float32(self, rng, small_base_case):
        a = rng.standard_normal((60, 30)).astype(np.float32)
        c = ata(a)
        assert c.dtype == np.float32
        assert np.allclose(np.tril(c), np.tril(a.T @ a), atol=1e-2)

    def test_matches_sequential_baselines(self, rng, small_base_case):
        from repro.baselines import mkl_syrk, naive_ata
        a = rng.standard_normal((45, 27))
        fast = np.tril(ata(a))
        assert np.allclose(fast, np.tril(mkl_syrk(a)), atol=1e-9)
        assert np.allclose(fast, np.tril(naive_ata(a)), atol=1e-9)

    def test_base_case_uses_syrk_only(self, rng):
        a = rng.standard_normal((10, 10))
        with counters.counting() as cs:
            ata(a, cache=CacheModel(10_000))
        assert cs["syrk"].calls == 1
        assert "ata_step" not in cs

    def test_recursion_structure_counters(self, rng, small_base_case):
        a = rng.standard_normal((64, 64))
        with counters.counting() as cs:
            ata(a)
        assert cs["ata_step"].calls > 0
        assert cs["strassen_step"].calls > 0 or cs["gemm"].calls > 0

    def test_workspace_reuse_across_calls(self, rng, small_base_case):
        a = rng.standard_normal((48, 32))
        ws = StrassenWorkspace(24, 16, 16)
        first = ata(a, workspace=ws)
        second = ata(a, workspace=ws)
        assert np.allclose(np.tril(first), np.tril(second))

    def test_deterministic(self, rng, small_base_case):
        a = rng.standard_normal((37, 21))
        assert np.array_equal(ata(a.copy()), ata(a.copy()))


class TestFlopAdvantage:
    def test_fewer_multiplications_than_classical(self, rng):
        """The measured flop count of AtA must undercut classical syrk once
        the recursion kicks in — the heart of the paper's claim."""
        n = 128
        a = np.random.default_rng(5).standard_normal((n, n))
        with configured(base_case_elements=256):
            with counters.counting() as fast:
                ata(a)
        with counters.counting() as classical:
            from repro.baselines import mkl_syrk
            mkl_syrk(a)
        # compare multiplication work (syrk/gemm kernels); the extra axpy
        # additions are the lower-order overhead Strassen trades them for
        assert fast.flops_for("syrk", "gemm") < classical.total_flops

    def test_flops_below_strassen(self, rng):
        """AtA must also undercut running Strassen on the full product."""
        n = 128
        a = np.random.default_rng(6).standard_normal((n, n))
        with configured(base_case_elements=256):
            with counters.counting() as ata_count:
                ata(a)
            from repro.core.strassen import fast_strassen
            with counters.counting() as strassen_count:
                fast_strassen(a, a)
        assert ata_count.total_flops < strassen_count.total_flops


class TestValidation:
    def test_wrong_c_shape(self, rng):
        with pytest.raises(ShapeError):
            ata(rng.standard_normal((8, 4)), np.zeros((5, 5)))

    def test_dtype_mismatch(self, rng):
        with pytest.raises(DTypeError):
            ata(rng.standard_normal((8, 4)).astype(np.float32), np.zeros((4, 4)))

    def test_non_array(self):
        from repro.errors import DTypeError
        with pytest.raises(DTypeError):
            ata([[1.0, 2.0]])


class TestAtaProperties:
    @given(m=st.integers(1, 50), n=st.integers(1, 50), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_random_shapes(self, m, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, n))
        with configured(base_case_elements=32):
            c = ata(a)
        assert np.allclose(np.tril(c), np.tril(a.T @ a), atol=1e-8)

    @given(seed=st.integers(0, 2 ** 16))
    @settings(max_examples=15, deadline=None)
    def test_scaling_invariance(self, seed):
        """ata(s*A) == s^2 * ata(A) — bilinearity of the product."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((20, 12))
        s = 3.0
        with configured(base_case_elements=64):
            left = ata(s * a)
            right = s * s * ata(a)
        assert np.allclose(np.tril(left), np.tril(right), atol=1e-7)

    @given(seed=st.integers(0, 2 ** 16))
    @settings(max_examples=15, deadline=None)
    def test_column_permutation_consistency(self, seed):
        """Permuting A's columns permutes rows+columns of A^T A."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((18, 9))
        perm = rng.permutation(9)
        with configured(base_case_elements=32):
            full = ata_full(a)
            permuted = ata_full(a[:, perm])
        assert np.allclose(permuted, full[np.ix_(perm, perm)], atol=1e-8)
