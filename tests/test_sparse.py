"""Tests for first-class sparse operands.

Covers the contracts:

* **absence-clean** — without scipy, :data:`repro.engine.HAVE_SCIPY` is
  ``False``, both sparse backends report ``supports() == False`` and
  drop out of all candidate sets, and
  dense dispatch candidate sets are identical to a build that never
  imported the sparse module.  The CI ``no-scipy`` lane runs this file
  (alongside the dense engine suites) with scipy uninstalled; the
  scipy-dependent tests here skip themselves there.
* **accuracy contract** — each structured backend is deterministic
  (repeat calls bit-identical); across paths agreement with the
  densified dense reference is numerical: ``np.allclose`` with
  ``rtol = 1e-4`` for float32 and ``1e-10`` for float64 (the documented
  contract in :mod:`repro.engine.sparse`), swept over density × dtype ×
  shape by hypothesis.
* **dispatch** — explicit ``algo=`` rejects kind mismatches loudly, and
  ``algo="auto"`` flips from ``densify`` to ``sparse_gram`` at the
  density the backends' modeled ``operand_cost`` hooks put the
  crossover.
* **ooc refusal** — neither out-of-core executor takes a sparse
  operand: ``as_source`` refuses it before ``C`` is touched.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    HAVE_SCIPY,
    SPARSE_BACKENDS,
    ExecutionEngine,
    get_backend,
    is_sparse,
    operand_kind,
)
from repro.engine.backends import candidates
from repro.engine.sparse import density, operand_nnz, validate_operand
from repro.errors import DTypeError, ShapeError
from repro.cache.model import default_cache_model

needs_scipy = pytest.mark.skipif(not HAVE_SCIPY, reason="needs scipy")
without_scipy = pytest.mark.skipif(HAVE_SCIPY, reason="asserts scipy absent")

if HAVE_SCIPY:
    import scipy.sparse as sps

#: the documented cross-path accuracy contract (module docstring of
#: repro.engine.sparse): structured paths agree with the densified dense
#: reference to these tolerances, never bitwise.
RTOL = {np.dtype(np.float32): 1e-4, np.dtype(np.float64): 1e-10}


def dense_reference(a_dense, op="ata", b=None, alpha=1.0):
    """Lower-triangular densified reference in float64 accumulation."""
    if op == "ata":
        full = alpha * (a_dense.T @ a_dense)
        return np.tril(full)
    return alpha * (a_dense.T @ b)


def random_sparse(rng, m, n, dens, dtype, fmt="csr"):
    nnz = max(0, int(round(dens * m * n)))
    rows = rng.integers(0, m, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    vals = rng.standard_normal(nnz).astype(dtype)
    a = sps.coo_matrix((vals, (rows, cols)), shape=(m, n))
    return a.asformat(fmt)


# ---------------------------------------------------------------------------
# absence-clean: these run (and matter most) on the no-scipy CI lane
# ---------------------------------------------------------------------------
class TestAbsenceClean:
    def test_sparse_backends_always_registered(self):
        # registration itself never needs scipy; only supports() gates
        for name in SPARSE_BACKENDS:
            assert get_backend(name).name == name

    def test_dense_candidate_sets_unpolluted(self):
        # the structured backends declare non-dense operand kinds, so a
        # dense request's candidate pool never contains them — with or
        # without scipy, dense dispatch is bit-identical to the
        # pre-sparse registry
        model = default_cache_model(np.float64)
        for op, shape in (("ata", (64, 64)), ("atb", (64, 48, 32))):
            pool = candidates(op, shape, np.float64, model)
            assert not set(SPARSE_BACKENDS) & {b.name for b in pool}

    def test_operand_kind_dense_for_everything_plain(self):
        assert operand_kind(np.zeros((2, 2))) == "dense"
        assert operand_kind("nonsense") == "dense"

    @without_scipy
    def test_scipy_backed_backends_report_unsupported(self):
        model = default_cache_model(np.float64)
        for name in SPARSE_BACKENDS:
            assert not get_backend(name).supports("ata", (64, 64),
                                                  np.float64, model)

    @without_scipy
    def test_is_sparse_false_for_everything(self):
        assert not is_sparse(np.zeros((3, 3)))
        assert not is_sparse(object())


# ---------------------------------------------------------------------------
# operand classification & validation
# ---------------------------------------------------------------------------
class TestOperands:
    @needs_scipy
    def test_kinds_and_nnz(self):
        a = sps.eye(5, format="csr") * 1.0
        assert operand_kind(a) == "sparse"
        assert is_sparse(a)
        assert operand_nnz(a) == 5
        assert density(a) == pytest.approx(0.2)

    @needs_scipy
    def test_validate_operand_rejects_bad_structure(self):
        ints = sps.eye(4, format="csr", dtype=np.int64)
        with pytest.raises(DTypeError):
            validate_operand(ints)
        with pytest.raises(DTypeError):
            ExecutionEngine().matmul_ata(ints)


# ---------------------------------------------------------------------------
# backend correctness vs the densified reference
# ---------------------------------------------------------------------------
@needs_scipy
class TestBackendCorrectness:
    @pytest.mark.parametrize("algo", ["sparse_gram", "densify"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_ata_matches_reference(self, algo, dtype):
        rng = np.random.default_rng(42)
        a = random_sparse(rng, 120, 50, 0.08, dtype)
        got = ExecutionEngine().matmul_ata(a, alpha=1.5, algo=algo)
        want = dense_reference(a.toarray(), alpha=1.5)
        assert got.dtype == np.dtype(dtype)
        assert np.allclose(got, want, rtol=RTOL[np.dtype(dtype)], atol=1e-6)

    @pytest.mark.parametrize("algo", ["sparse_gram", "densify"])
    def test_atb_matches_reference(self, algo):
        rng = np.random.default_rng(3)
        a = random_sparse(rng, 90, 40, 0.1, np.float64)
        b = rng.standard_normal((90, 16))
        got = ExecutionEngine().matmul_atb(a, b, alpha=0.5, algo=algo)
        assert np.allclose(got, dense_reference(a.toarray(), "atb", b, 0.5),
                           rtol=RTOL[np.dtype(np.float64)])

    def test_banded_matches_reference(self):
        # a DIA operand is one more scipy format: "auto" serves it with
        # the two generic sparse backends under the rtol contract
        rng = np.random.default_rng(13)
        m, n = 40, 55
        diags = rng.standard_normal((4, n))
        a = sps.dia_matrix((diags, [-3, 0, 1, 7]), shape=(m, n))
        model = default_cache_model(np.float64)
        pool = candidates("ata", a.shape, a.dtype, model, kind="sparse")
        assert tuple(b.name for b in pool) == ("sparse_gram", "densify")
        got = ExecutionEngine().matmul_ata(a)
        assert np.allclose(got, dense_reference(a.toarray()),
                           rtol=RTOL[np.dtype(np.float64)])

    def test_structured_runs_are_deterministic(self):
        rng = np.random.default_rng(9)
        a = random_sparse(rng, 70, 35, 0.12, np.float64)
        engine = ExecutionEngine()
        for algo in ("sparse_gram", "densify"):
            assert np.array_equal(engine.matmul_ata(a, algo=algo),
                                  engine.matmul_ata(a, algo=algo))

    def test_beta_prescales_c(self):
        rng = np.random.default_rng(17)
        a = random_sparse(rng, 40, 20, 0.2, np.float64)
        c = np.full((20, 20), 3.0)
        got = ExecutionEngine().matmul_ata(a, c, beta=0.5, algo="sparse_gram")
        want = np.full((20, 20), 1.5)
        idx = np.tril_indices(20)
        want[idx] += (a.toarray().T @ a.toarray())[idx]
        assert np.allclose(got, want, rtol=RTOL[np.dtype(np.float64)])

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(2, 80), n=st.integers(1, 50),
           dens=st.floats(0.0, 0.6),
           dtype=st.sampled_from([np.float64, np.float32]),
           fmt=st.sampled_from(["csr", "csc", "coo"]),
           algo=st.sampled_from(["auto", "sparse_gram", "densify"]))
    def test_hypothesis_sweep_density_dtype_shape(self, m, n, dens, dtype,
                                                  fmt, algo):
        rng = np.random.default_rng(m * 7919 + n * 31 + int(dens * 1000))
        a = random_sparse(rng, m, n, dens, dtype, fmt)
        got = ExecutionEngine().matmul_ata(a, algo=algo)
        want = dense_reference(a.toarray())
        assert np.allclose(got, want, rtol=RTOL[np.dtype(dtype)], atol=1e-5)


# ---------------------------------------------------------------------------
# dispatch precedence, stats, the modeled crossover
# ---------------------------------------------------------------------------
class TestDispatch:
    @needs_scipy
    def test_dense_backend_rejects_sparse_operand(self):
        a = sps.eye(16, format="csr") * 1.0
        with pytest.raises(ShapeError, match="does not accept 'sparse'"):
            ExecutionEngine().matmul_ata(a, algo="syrk")

    def test_sparse_backend_rejects_dense_operand(self):
        a = np.eye(16)
        with pytest.raises(ShapeError, match="does not accept 'dense'"):
            ExecutionEngine().matmul_ata(a, algo="sparse_gram")

    @needs_scipy
    def test_atb_shape_and_dtype_checks(self):
        rng = np.random.default_rng(1)
        a = random_sparse(rng, 30, 10, 0.2, np.float64)
        with pytest.raises(ShapeError):
            ExecutionEngine().matmul_atb(a, rng.standard_normal((31, 4)))
        with pytest.raises(DTypeError):
            ExecutionEngine().matmul_atb(
                a, rng.standard_normal((30, 4)).astype(np.float32))

    @needs_scipy
    def test_stats_counters(self):
        rng = np.random.default_rng(2)
        a = random_sparse(rng, 50, 25, 0.1, np.float64)
        engine = ExecutionEngine()
        engine.matmul_ata(a, algo="sparse_gram")
        engine.matmul_ata(a, algo="densify")
        stats = engine.stats()
        assert stats.sparse_runs == 2
        assert stats.densify_crossovers == 1
        assert stats.sparse_nnz == 2 * a.nnz
        # dense traffic moves none of the sparse meters
        engine.matmul_ata(rng.standard_normal((32, 16)))
        after = engine.stats()
        assert after.sparse_runs == 2
        assert after.densify_crossovers == 1

    @needs_scipy
    @pytest.mark.parametrize("dens, backend", [
        (0.9, "densify"), (0.75, "densify"), (0.5, "sparse_gram"),
        (0.25, "sparse_gram"), (0.1, "sparse_gram"), (0.01, "sparse_gram"),
    ])
    def test_modeled_crossover_1024x256(self, dens, backend):
        """On 1024x256 float64 CSR the modeled costs cross near density
        0.71 (2·nnz²/m against the dense syrk's ~m·n²), so auto
        dispatch densifies above it and stays sparse below."""
        a = sps.random(1024, 256, density=dens, format="csr",
                       dtype=np.float64, random_state=7)
        engine = ExecutionEngine()
        engine.matmul_ata(a)
        assert engine.stats().backend_runs == {backend: 1}


# ---------------------------------------------------------------------------
# out-of-core: sparse operands are refused up front
# ---------------------------------------------------------------------------
@needs_scipy
class TestOocSparse:
    @pytest.mark.parametrize("procs", [0, 2])
    def test_run_ooc_refuses_sparse(self, procs):
        a = sps.eye(64, format="csr") * 1.0
        c = np.random.default_rng(4).standard_normal((64, 64))
        before = c.copy()
        with pytest.raises(ShapeError, match="panel source"):
            ExecutionEngine().run_ooc(a, c, procs=procs, panel_rows=16)
        assert np.array_equal(c, before)
