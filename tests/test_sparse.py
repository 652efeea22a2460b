"""Tests for first-class sparse & structured operands (ISSUE 10).

Covers the tentpole contracts:

* **absence-clean** — without scipy, :data:`repro.engine.HAVE_SCIPY` is
  ``False``, every scipy-backed structured backend reports
  ``supports() == False`` and drops out of all candidate sets, and
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
* **dispatch precedence** — explicit ``algo=`` rejects kind mismatches
  loudly, the tuner's table grows density-scoped cells
  (``...|d2^-k``), and dense keys stay byte-identical to pre-sparse
  tables.
* **ooc integration** — ``as_source`` adopts scipy matrices, sparse
  panel streams stitch across misaligned chunk boundaries, and the
  multi-process farm rejects sparse operands cleanly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    HAVE_SCIPY,
    SPARSE_BACKENDS,
    BackendTuner,
    ExecutionEngine,
    LowRank,
    SparseChunkSource,
    SparseSource,
    as_source,
    density_bucket,
    get_backend,
    is_sparse,
    operand_kind,
)
from repro.engine.backends import candidates
from repro.engine.sparse import density, operand_nnz, validate_operand
from repro.engine.tuner import shape_bucket
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

    def test_lowrank_needs_no_scipy(self):
        # the one structured backend that stays live without scipy
        rng = np.random.default_rng(7)
        a = LowRank(rng.standard_normal((30, 3)),
                    rng.standard_normal((20, 3)))
        got = ExecutionEngine().matmul_ata(a)
        want = dense_reference(a.toarray())
        assert np.allclose(got, want, rtol=RTOL[np.dtype(np.float64)])

    def test_operand_kind_dense_for_everything_plain(self):
        assert operand_kind(np.zeros((2, 2))) == "dense"
        assert operand_kind("nonsense") == "dense"
        assert density_bucket(np.zeros((4, 4))) is None

    @without_scipy
    def test_scipy_backed_backends_report_unsupported(self):
        model = default_cache_model(np.float64)
        for name in ("sparse_gram", "densify", "banded_ata"):
            assert not get_backend(name).supports("ata", (64, 64),
                                                  np.float64, model)

    @without_scipy
    def test_is_sparse_false_for_everything(self):
        assert not is_sparse(np.zeros((3, 3)))
        assert not is_sparse(object())

    @without_scipy
    def test_sparse_sources_refuse_construction(self):
        with pytest.raises(DTypeError):
            SparseSource(np.zeros((3, 3)))
        with pytest.raises(DTypeError):
            SparseChunkSource(iter(()), (4, 4), np.float64)


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
        lr = LowRank(np.ones((4, 2)), np.ones((3, 2)))
        assert operand_kind(lr) == "lowrank"
        assert lr.shape == (4, 3) and lr.rank == 2
        assert operand_nnz(lr) == 4 * 2 + 3 * 2

    @needs_scipy
    def test_validate_operand_rejects_bad_structure(self):
        ints = sps.eye(4, format="csr", dtype=np.int64)
        with pytest.raises(DTypeError):
            validate_operand(ints)
        with pytest.raises(DTypeError):
            ExecutionEngine().matmul_ata(ints)

    def test_lowrank_validation(self):
        ok = np.ones((3, 2))
        with pytest.raises(DTypeError):
            LowRank([[1.0]], ok)
        with pytest.raises(ShapeError):
            LowRank(np.ones(3), ok)
        with pytest.raises(DTypeError):
            LowRank(np.ones((3, 2), dtype=np.int64), ok)
        with pytest.raises(ShapeError):
            LowRank(np.ones((3, 2)), np.ones((3, 5)))
        with pytest.raises(DTypeError):
            LowRank(np.ones((3, 2)), np.ones((3, 2), dtype=np.float32))

    @needs_scipy
    def test_density_buckets_power_of_two(self):
        rng = np.random.default_rng(0)
        a = random_sparse(rng, 64, 64, 0.05, np.float64)  # 2^-5 < .05 < 2^-4
        assert density_bucket(a) == "d2^-5"
        empty = sps.csr_matrix((8, 8), dtype=np.float64)
        assert density_bucket(empty) == "d0"
        full = sps.csr_matrix(np.ones((4, 4)))
        assert density_bucket(full) == "d2^-0"
        lr = LowRank(np.ones((10, 5)), np.ones((10, 5)))
        assert density_bucket(lr) == "r8"


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
        rng = np.random.default_rng(11)
        n = 60
        diags = rng.standard_normal((3, n))
        a = sps.dia_matrix((diags, [-1, 0, 2]), shape=(n, n))
        got = ExecutionEngine().matmul_ata(a, algo="banded_ata")
        want = dense_reference(a.toarray())
        assert np.allclose(got, want, rtol=RTOL[np.dtype(np.float64)])

    def test_banded_rectangular_and_repeat_bit_identity(self):
        rng = np.random.default_rng(13)
        m, n = 40, 55
        diags = rng.standard_normal((4, n))
        a = sps.dia_matrix((diags, [-3, 0, 1, 7]), shape=(m, n))
        engine = ExecutionEngine()
        one = engine.matmul_ata(a, algo="banded_ata")
        two = engine.matmul_ata(a, algo="banded_ata")
        assert np.array_equal(one, two)  # deterministic pair walk
        assert np.allclose(one, dense_reference(a.toarray()),
                           rtol=RTOL[np.dtype(np.float64)])

    def test_banded_requires_dia_operand(self):
        rng = np.random.default_rng(5)
        a = random_sparse(rng, 30, 30, 0.1, np.float64)  # csr, not dia
        with pytest.raises(ShapeError, match="banded_ata"):
            ExecutionEngine().matmul_ata(a, algo="banded_ata")

    def test_lowrank_ata_and_atb(self):
        rng = np.random.default_rng(21)
        lr = LowRank(rng.standard_normal((80, 4)),
                     rng.standard_normal((50, 4)))
        got = ExecutionEngine().matmul_ata(lr, alpha=2.0, algo="lowrank_gram")
        want = dense_reference(lr.toarray(), alpha=2.0)
        assert np.allclose(got, want, rtol=RTOL[np.dtype(np.float64)])
        b = rng.standard_normal((80, 8))
        got_b = ExecutionEngine().matmul_atb(lr, b, algo="lowrank_gram")
        assert np.allclose(got_b, dense_reference(lr.toarray(), "atb", b),
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
# dispatch precedence, stats, tuner density cells
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
    def test_tuner_grows_density_scoped_cells(self, tmp_path):
        rng = np.random.default_rng(6)
        a = random_sparse(rng, 64, 64, 0.05, np.float64)
        tuner = BackendTuner(str(tmp_path / "t.json"), persist=False)
        engine = ExecutionEngine(tuner=tuner)
        for _ in range(6):
            engine.matmul_ata(a)
        bucket = "x".join(map(str, shape_bucket((64, 64))))
        table = tuner.table_snapshot()
        keys = [k for k in table if k.endswith("|d2^-5")]
        assert keys, f"no density-scoped cells in {sorted(table)}"
        assert all(f"|{bucket}|" in k for k in keys)
        # the measured winner per density cell steers later auto traffic
        choice = tuner.best("ata", (64, 64), np.float64, density="d2^-5")
        if choice is not None:
            assert choice in SPARSE_BACKENDS

    @needs_scipy
    def test_dense_tuner_keys_carry_no_density(self, tmp_path):
        tuner = BackendTuner(str(tmp_path / "t.json"), persist=False)
        engine = ExecutionEngine(tuner=tuner)
        engine.matmul_ata(np.random.default_rng(0).standard_normal((64, 64)))
        table = tuner.table_snapshot()
        assert table  # dense traffic did record
        assert not any("|d2^-" in k or k.endswith("|d0") or "|r" in k
                       for k in table)


# ---------------------------------------------------------------------------
# out-of-core sparse sources
# ---------------------------------------------------------------------------
@needs_scipy
class TestOocSparse:
    def test_as_source_adopts_scipy_matrices(self):
        a = sps.eye(12, format="coo") * 1.0
        src = as_source(a)
        assert isinstance(src, SparseSource)
        assert src.shape == (12, 12) and src.nnz == 12

    def test_sparse_ooc_matches_reference(self):
        rng = np.random.default_rng(8)
        a = random_sparse(rng, 300, 40, 0.05, np.float64)
        engine = ExecutionEngine()
        got = engine.matmul_ata_ooc(a, panel_rows=64)
        want = dense_reference(a.toarray())
        assert np.allclose(got, want, rtol=RTOL[np.dtype(np.float64)])

    def test_sparse_chunk_stream_stitches_misaligned_chunks(self):
        rng = np.random.default_rng(10)
        dense = rng.standard_normal((100, 20))
        dense[dense < 1.0] = 0.0
        full = sps.csr_matrix(dense)
        # chunk sizes deliberately misaligned with the 32-row panels
        chunks = [full[0:13], full[13:50], full[50:81], full[81:100]]
        src = SparseChunkSource(iter(chunks), (100, 20), np.float64)
        engine = ExecutionEngine()
        got = engine.matmul_ata_ooc(src, panel_rows=32)
        want = engine.matmul_ata_ooc(full, panel_rows=32)
        assert np.allclose(got, want, rtol=RTOL[np.dtype(np.float64)])

    def test_short_stream_raises(self):
        full = sps.csr_matrix(np.ones((40, 8)))
        src = SparseChunkSource(iter([full[0:10]]), (40, 8), np.float64)
        with pytest.raises(ShapeError):
            ExecutionEngine().matmul_ata_ooc(src, panel_rows=16)

    def test_farm_rejects_sparse(self):
        a = sps.eye(64, format="csr") * 1.0
        with pytest.raises(ShapeError, match="farm"):
            ExecutionEngine().run_ooc(a, procs=1)
