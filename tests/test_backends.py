"""Tests for the pluggable backend registry and per-backend bit-identity.

Registry lookup replaces hardcoded algorithm branches: unknown names are
rejected and custom backends are dispatchable by name.  Every backend's
output is bit-identical to its direct call, and ``algo="auto"`` resolves
through the modeled-cost heuristic.
"""

import numpy as np
import pytest

from repro.blas import direct as blas_direct
from repro.blas.kernels import syrk as kernel_syrk
from repro.config import configured
from repro.core.ata import ata
from repro.core.recursive_gemm import recursive_gemm
from repro.core.strassen import fast_strassen
from repro.engine import (
    Backend,
    ExecutionEngine,
    backend_names,
    choose_heuristic,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.engine.backends import candidates
from repro.errors import ShapeError


@pytest.fixture()
def rng():
    return np.random.default_rng(0xBAC0)


def ata_candidate_names():
    model_dtype = np.float64
    from repro.cache.model import default_cache_model
    return [b.name for b in candidates("ata", (64, 64), model_dtype,
                                       default_cache_model(model_dtype))]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_builtins_registered(self):
        names = backend_names()
        for expected in ("syrk", "ata", "tiled", "recursive_gemm",
                         "strassen", "blas_direct"):
            assert expected in names

    def test_ops_partition(self):
        assert "syrk" in backend_names("ata")
        assert "syrk" not in backend_names("atb")
        assert "strassen" in backend_names("atb")
        assert "strassen" not in backend_names("ata")
        assert {"ata", "atb"} <= set(get_backend("recursive_gemm").ops)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ShapeError):
            get_backend("nope")

    def test_op_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            get_backend("strassen", "ata")

    def test_custom_backend_registers_and_dispatches(self, rng):
        calls = []

        class Doubler(Backend):
            name = "test_doubler"
            ops = frozenset({"ata"})

            def run(self, engine, op, a, c, alpha, b, model, held=None):
                calls.append(op)
                idx = np.tril_indices(a.shape[1])
                c[idx] += 2.0 * alpha * (a.T @ a)[idx]

        register_backend(Doubler())
        try:
            with pytest.raises(ValueError):
                register_backend(Doubler())  # duplicate name
            engine = ExecutionEngine()
            a = rng.standard_normal((12, 8))
            c = engine.matmul_ata(a, algo="test_doubler")
            assert calls == ["ata"]
            assert np.allclose(np.tril(c), 2.0 * np.tril(a.T @ a))
            assert engine.stats().backend_runs == {"test_doubler": 1}
        finally:
            assert unregister_backend("test_doubler") is not None
        with pytest.raises(ShapeError):
            ExecutionEngine().matmul_ata(rng.standard_normal((8, 8)),
                                         algo="test_doubler")

    def test_heuristic_reproduces_historic_rules(self, rng):
        """Auto dispatch == the pre-registry rules: syrk when
        the operand fits the cache model, the Algorithm 1 plan otherwise;
        FastStrassen for A^T B."""
        from repro.cache.model import CacheModel
        small, big = CacheModel(capacity_words=4096), CacheModel(capacity_words=64)
        assert choose_heuristic("ata", (16, 16), np.float64, small).name == "syrk"
        assert choose_heuristic("ata", (64, 64), np.float64, big).name == "ata"
        assert choose_heuristic("ata", (1, 1), np.float64, big).name == "syrk"
        assert choose_heuristic("atb", (64, 32, 32), np.float64, big).name == "strassen"

    def test_plan_keys_lead_with_backend_id(self, rng):
        engine = ExecutionEngine()
        with configured(base_case_elements=64):
            engine.matmul_ata(rng.standard_normal((48, 32)))
        (plan,) = engine.plans.snapshot()
        assert plan.key[0] == "ata"  # backend id
        assert plan.key[1] == "ata"  # plan kind


# ---------------------------------------------------------------------------
# per-backend bit-identity to the direct calls
# ---------------------------------------------------------------------------

class TestBackendBitIdentity:
    def test_syrk_backend_matches_kernel(self, rng):
        a = rng.standard_normal((20, 12))
        ref = kernel_syrk(a, np.zeros((12, 12)), 1.5)
        got = ExecutionEngine().matmul_ata(a, alpha=1.5, algo="syrk")
        assert np.array_equal(ref, got)

    def test_ata_backend_matches_recursion(self, rng):
        a = rng.standard_normal((96, 40))
        with configured(base_case_elements=64):
            assert np.array_equal(ata(a.copy()),
                                  ExecutionEngine().matmul_ata(a, algo="ata"))

    def test_recursive_gemm_backend_matches_fold(self, rng):
        a = rng.standard_normal((40, 28))
        with configured(base_case_elements=64):
            full = recursive_gemm(a, a)
            ref = np.zeros((28, 28))
            idx = np.tril_indices(28)
            ref[idx] += full[idx]
            got = ExecutionEngine().matmul_ata(a, algo="recursive_gemm")
        assert np.array_equal(ref, got)

    def test_strassen_backend_matches_recursion(self, rng):
        a, b = rng.standard_normal((45, 23)), rng.standard_normal((45, 31))
        with configured(base_case_elements=64):
            assert np.array_equal(
                fast_strassen(a, b),
                ExecutionEngine().matmul_atb(a, b, algo="strassen"))

    def test_tiled_backend_deterministic_and_correct(self, rng):
        a = rng.standard_normal((40, 28))
        with configured(base_case_elements=64):
            one = ExecutionEngine().matmul_ata(a, algo="tiled")
            two = ExecutionEngine().matmul_ata(a, algo="tiled")
        assert np.array_equal(one, two)
        assert np.allclose(np.tril(one), np.tril(a.T @ a))

    @pytest.mark.skipif(not blas_direct.is_available(),
                        reason="no BLAS-direct provider on this host")
    def test_blas_direct_backend_matches_direct_call(self, rng):
        a = rng.standard_normal((30, 20))
        ref = blas_direct.direct_syrk(a, np.zeros((20, 20)), 2.0)
        got = ExecutionEngine().matmul_ata(a, alpha=2.0, algo="blas_direct")
        assert np.array_equal(ref, got)
        b = rng.standard_normal((30, 24))
        ref2 = blas_direct.direct_gemm_t(a, b, np.zeros((20, 24)), 1.5)
        got2 = ExecutionEngine().matmul_atb(a, b, alpha=1.5, algo="blas_direct")
        assert np.array_equal(ref2, got2)

    @pytest.mark.skipif(not blas_direct.is_available(),
                        reason="no BLAS-direct provider on this host")
    def test_blas_direct_float32(self, rng):
        a = rng.standard_normal((24, 16)).astype(np.float32)
        got = ExecutionEngine().matmul_ata(a, algo="blas_direct")
        assert got.dtype == np.float32
        assert np.allclose(np.tril(got), np.tril(a.T @ a), atol=1e-3)

    def test_blas_direct_skips_gracefully_when_absent(self, rng, monkeypatch):
        """With no provider the backend leaves the candidate set; auto
        dispatch works and an explicit request errors cleanly."""
        monkeypatch.setattr(blas_direct, "_PROVIDER", None)
        monkeypatch.setattr(blas_direct, "_LOADED", True)
        names = ata_candidate_names()
        assert "blas_direct" not in names
        a = rng.standard_normal((16, 12))
        assert np.allclose(np.tril(ExecutionEngine().matmul_ata(a)),
                           np.tril(a.T @ a))
        with pytest.raises(ShapeError):
            ExecutionEngine().matmul_ata(a, algo="blas_direct")
        with pytest.raises(RuntimeError):
            blas_direct.direct_syrk(a, np.zeros((12, 12)))

    def test_blas_direct_rejects_complex_dtype(self, rng):
        a = (rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6)))
        with pytest.raises(ShapeError):
            ExecutionEngine().matmul_ata(a, algo="blas_direct")
