"""Tests for the pluggable backend registry and the measured auto-tuner.

Covers the ISSUE 3 contracts: registry lookup replaces the hardcoded
algorithm branches (unknown names rejected, custom backends dispatchable
by name), every backend's output is bit-identical to its direct call, and
``algo="auto"`` with a cold tuner table explores each candidate within the
budget, converges on the measured-fastest backend, and keeps that choice
across an engine restart via the persisted JSON table.  The tuner is
driven by an injectable deterministic clock — no wall-clock flakiness —
and its persistence degrades to fresh exploration (never a crash) on
missing/corrupt/stale tables and under concurrent writers.
"""

import json
import os
import threading

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
    BackendTuner,
    ExecutionEngine,
    backend_names,
    choose_heuristic,
    get_backend,
    register_backend,
    shape_bucket,
    unregister_backend,
)
from repro.engine.backends import candidates
from repro.engine.tuner import default_tuner_path
from repro.errors import ConfigurationError, ShapeError


@pytest.fixture()
def rng():
    return np.random.default_rng(0xBAC0)


class FakeClock:
    """Deterministic injectable timer: advances only when told to."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


@pytest.fixture()
def fake_costs(monkeypatch):
    """Wrap every built-in backend's ``run`` so it advances a fake clock by
    a fixed per-backend cost — the tuner then measures deterministic
    'timings' while the real computation still happens."""
    clock = FakeClock()
    costs = {"syrk": 5.0, "ata": 1.0, "tiled": 3.0,
             "recursive_gemm": 8.0, "blas_direct": 2.0, "strassen": 4.0}

    def wrap(real, cost):
        def run(*args, **kwargs):
            real(*args, **kwargs)
            clock.t += cost
        return run

    for name, cost in costs.items():
        backend = get_backend(name)
        monkeypatch.setattr(backend, "run", wrap(backend.run, cost))
    return clock, costs


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
        """Without a tuner, auto == the pre-registry dispatch: syrk when
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


# ---------------------------------------------------------------------------
# tuner unit behaviour
# ---------------------------------------------------------------------------

class TestTunerUnit:
    def test_shape_bucket_powers_of_two(self):
        assert shape_bucket((1, 1)) == (1, 1)
        assert shape_bucket((64, 64)) == (64, 64)
        assert shape_bucket((65, 33)) == (128, 64)
        assert shape_bucket((100, 3, 17)) == (128, 4, 32)

    def test_explore_round_robin_then_exploit(self, tmp_path):
        clock = FakeClock()
        tuner = BackendTuner(str(tmp_path / "t.json"), explore_budget=2,
                             timer=clock)
        cands = ["a", "b", "c"]
        seen = []
        fake = {"a": 3.0, "b": 1.0, "c": 2.0}
        for _ in range(6):
            name, explored = tuner.choose("ata", (64, 64), np.float64, cands)
            assert explored
            seen.append(name)
            tuner.record("ata", (64, 64), np.float64, name, fake[name])
        assert sorted(seen) == ["a", "a", "b", "b", "c", "c"]
        name, explored = tuner.choose("ata", (64, 64), np.float64, cands)
        assert (name, explored) == ("b", False)
        assert tuner.hits == 1 and tuner.explores == 6

    def test_new_candidate_reopens_exploration(self, tmp_path):
        tuner = BackendTuner(str(tmp_path / "t.json"), explore_budget=1,
                             timer=FakeClock())
        tuner.record("ata", (64, 64), np.float64, "a", 1.0)
        name, explored = tuner.choose("ata", (64, 64), np.float64, ["a", "new"])
        assert (name, explored) == ("new", True)

    def test_budget_from_config(self, tmp_path):
        tuner = BackendTuner(str(tmp_path / "t.json"), explore_budget=1,
                             timer=FakeClock())
        assert tuner.explore_budget == 1
        tuner.record("ata", (8, 8), np.float64, "x", 1.0)
        name, explored = tuner.choose("ata", (8, 8), np.float64, ["x"])
        assert (name, explored) == ("x", False)
        assert BackendTuner(persist=False).explore_budget == 3
        with pytest.raises(ConfigurationError):
            BackendTuner(persist=False, explore_budget=0)

    def test_broken_clock_samples_ignored(self, tmp_path):
        tuner = BackendTuner(str(tmp_path / "t.json"), timer=FakeClock())
        tuner.record("ata", (8, 8), np.float64, "x", -1.0)
        tuner.record("ata", (8, 8), np.float64, "x", float("nan"))
        assert tuner.table_snapshot() == {}

    def test_distinct_cache_models_use_distinct_cells(self, tmp_path):
        """The cache model is part of the table key for the same reason it
        is part of the plan key: per-call ``cache=`` models execute
        structurally different plans, so their timings must not mix."""
        from repro.cache.model import CacheModel, default_cache_model
        tuner = BackendTuner(str(tmp_path / "t.json"), explore_budget=1,
                             timer=FakeClock())
        tiny = CacheModel(capacity_words=16)
        tuner.record("ata", (64, 64), np.float64, "a", 1.0, model=tiny)
        assert tuner.best("ata", (64, 64), np.float64, model=tiny) == "a"
        # the default-model cell is untouched -> still exploring there
        assert tuner.best("ata", (64, 64), np.float64) is None
        name, explored = tuner.choose(
            "ata", (64, 64), np.float64, ["a"],
            model=default_cache_model(np.float64))
        assert explored

    def test_scheduling_signature_separates_cells(self, rng, tmp_path,
                                                  fake_costs):
        """A DAG-parallel engine and a sequential engine sharing one tuner
        explore separate cells: their timings describe different
        executions."""
        clock, _ = fake_costs
        with configured(base_case_elements=64):
            tuner = BackendTuner(str(tmp_path / "t.json"), explore_budget=1,
                                 timer=clock)
            seq = ExecutionEngine(tuner=tuner)
            par = ExecutionEngine(workers=2, tuner=tuner)
            a = rng.standard_normal((64, 64))
            try:
                seq.matmul_ata(a)
                par.matmul_ata(a)
            finally:
                par.close()
            keys = sorted(tuner.table_snapshot())
        assert len(keys) == 2
        assert any(k.endswith("|seq") for k in keys)
        assert any(k.endswith("|w2l2") for k in keys)

    def test_exploit_calls_skip_measurement(self, rng, tmp_path, fake_costs):
        clock, _ = fake_costs
        with configured(base_case_elements=64):
            tuner = BackendTuner(str(tmp_path / "t.json"), explore_budget=1,
                                 timer=clock)
            engine = ExecutionEngine(tuner=tuner)
            a = rng.standard_normal((64, 64))
            cands = ata_candidate_names()
            for _ in range(len(cands) + 4):
                engine.matmul_ata(a)
            snapshot = tuner.table_snapshot()
            (entry,) = snapshot.values()
            # one sample per candidate from the explore phase; the 4
            # exploit calls recorded nothing
            assert {cell["count"] for cell in entry.values()} == {1}
            assert tuner.records == len(cands)

    def test_config_change_invalidates_table(self, tmp_path):
        tuner = BackendTuner(str(tmp_path / "t.json"), explore_budget=1,
                             timer=FakeClock())
        with configured(base_case_elements=64):
            tuner.record("ata", (64, 64), np.float64, "a", 1.0)
            assert tuner.best("ata", (64, 64), np.float64) == "a"
        with configured(base_case_elements=32):
            # timings measured under another base case describe different
            # executions -> fresh exploration
            assert tuner.best("ata", (64, 64), np.float64) is None


# ---------------------------------------------------------------------------
# the acceptance loop: cold table -> explore -> converge -> restart
# ---------------------------------------------------------------------------

class TestAutoTunedDispatch:
    def test_cold_table_converges_and_survives_restart(self, rng, tmp_path,
                                                       fake_costs):
        clock, costs = fake_costs
        path = str(tmp_path / "tuner.json")
        a = rng.standard_normal((64, 64))
        budget = 2
        with configured(base_case_elements=64):
            cands = ata_candidate_names()
            assert len(cands) >= 4
            cheapest = min(cands, key=lambda n: costs[n])
            tuner = BackendTuner(path, explore_budget=budget, timer=clock)
            engine = ExecutionEngine(tuner=tuner)
            explore_calls = budget * len(cands)
            total_calls = explore_calls + 6
            results = [engine.matmul_ata(a) for _ in range(total_calls)]
            stats = engine.stats()
            # every candidate explored exactly to budget, the rest exploited
            assert stats.tuner_explores == explore_calls
            assert stats.tuner_hits == 6
            for name in cands:
                assert stats.backend_runs[name] >= budget
            assert stats.backend_runs[cheapest] == budget + 6
            assert tuner.best("ata", a.shape, a.dtype) == cheapest
            # auto never perturbs a backend's output: the converged calls
            # are bit-identical to the winning backend's direct dispatch
            direct = ExecutionEngine().matmul_ata(a, algo=cheapest)
            assert np.array_equal(results[-1], direct)
            engine.close()  # flushes the table

            # restart: a fresh engine + tuner resumes exploiting immediately
            engine2 = ExecutionEngine(
                tuner=BackendTuner(path, explore_budget=budget, timer=clock))
            engine2.matmul_ata(a)
            stats2 = engine2.stats()
            assert stats2.tuner_explores == 0 and stats2.tuner_hits == 1
            assert dict(stats2.backend_runs) == {cheapest: 1}

    def test_explicit_algo_bypasses_tuner(self, rng, tmp_path, fake_costs):
        clock, _ = fake_costs
        engine = ExecutionEngine(
            tuner=BackendTuner(str(tmp_path / "t.json"), timer=clock))
        a = rng.standard_normal((32, 16))
        with configured(base_case_elements=64):
            engine.matmul_ata(a, algo="tiled")
        stats = engine.stats()
        assert stats.tuner_explores == 0 and stats.tuner_hits == 0
        assert stats.backend_runs == {"tiled": 1}

    def test_tuned_batch_converges_too(self, rng, tmp_path, fake_costs):
        clock, costs = fake_costs
        with configured(base_case_elements=64):
            cands = ata_candidate_names()
            cheapest = min(cands, key=lambda n: costs[n])
            engine = ExecutionEngine(tuner=BackendTuner(
                str(tmp_path / "t.json"), explore_budget=1, timer=clock))
            mats = [rng.standard_normal((64, 64)) for _ in range(len(cands) + 4)]
            batch = engine.run_batch(mats)
            loop = [ExecutionEngine().matmul_ata(m, algo=cheapest)
                    for m in mats[len(cands):]]
            for expected, got in zip(loop, batch[len(cands):]):
                assert np.array_equal(expected, got)

    def test_tuner_string_constructor(self, tmp_path, monkeypatch):
        with configured(tuner_path=str(tmp_path / "t.json")):
            engine = ExecutionEngine(tuner="measured")
        assert engine.tuner is not None
        assert engine.tuner.path == str(tmp_path / "t.json")
        assert ExecutionEngine(tuner="off").tuner is None
        assert ExecutionEngine().tuner is None
        with pytest.raises(ConfigurationError):
            ExecutionEngine(tuner="sometimes")


# ---------------------------------------------------------------------------
# persistence edge cases — all degrade to fresh exploration, never crash
# ---------------------------------------------------------------------------

class TestTunerPersistence:
    def test_missing_file_starts_fresh(self, tmp_path):
        tuner = BackendTuner(str(tmp_path / "absent.json"), timer=FakeClock())
        assert tuner.table_snapshot() == {}
        assert tuner.load_failures == 0  # absence is normal, not a failure

    def test_corrupt_json_starts_fresh(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("{not json at all")
        tuner = BackendTuner(str(path), timer=FakeClock())
        assert tuner.table_snapshot() == {}
        assert tuner.load_failures == 1
        # and the tuner still works + can overwrite the corrupt file
        tuner.record("ata", (8, 8), np.float64, "x", 1.0)
        assert tuner.save()
        assert json.loads(path.read_text())["cells"]

    def test_wrong_schema_starts_fresh(self, tmp_path):
        from repro.engine.tuner import TABLE_VERSION
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"version": 99, "tables": {}}))
        tuner = BackendTuner(str(path), timer=FakeClock())
        assert tuner.table_snapshot() == {} and tuner.load_failures == 1
        path.write_text(json.dumps({"version": TABLE_VERSION,
                                    "tables": "bogus"}))
        tuner = BackendTuner(str(path), timer=FakeClock())
        assert tuner.table_snapshot() == {} and tuner.load_failures == 1

    def test_other_fingerprint_starts_fresh_but_survives(self, tmp_path):
        """Cells measured under another base case are not served (their
        key carries that base case), and both configurations' cells live
        side by side in one v3 file."""
        from repro.engine.tuner import TABLE_VERSION
        path = str(tmp_path / "t.json")
        with configured(base_case_elements=64):
            tuner = BackendTuner(path, timer=FakeClock())
            tuner.record("ata", (64, 64), np.float64, "a", 1.0)
            assert tuner.save()
        with configured(base_case_elements=128):
            other = BackendTuner(path, timer=FakeClock())
            assert other.best("ata", (64, 64), np.float64) is None
            assert other.load_failures == 0  # not a failure, just cold
            other.record("ata", (64, 64), np.float64, "b", 2.0)
            assert other.save()
        payload = json.loads(open(path).read())
        assert payload["version"] == TABLE_VERSION == 3
        assert len(payload["cells"]) == 2
        # both configurations' measurements coexist in the file
        with configured(base_case_elements=64):
            back = BackendTuner(path, timer=FakeClock())
            assert back.best("ata", (64, 64), np.float64) == "a"
        with configured(base_case_elements=128):
            back = BackendTuner(path, timer=FakeClock())
            assert back.best("ata", (64, 64), np.float64) == "b"

    def test_table_with_fused_candidates_loads_and_is_ignored(
            self, tmp_path, rng):
        """A table persisted while plans could be fused holds
        ``"<backend>+fused"`` cells.  It loads without error, no decision
        ever names a fused candidate, and the fused cells survive in the
        file untouched."""
        from repro.engine.tuner import TABLE_VERSION, _bucket_key
        path = tmp_path / "tuner.json"
        shape = (64, 48)
        with configured(base_case_elements=64, tuner_path=str(path)):
            names = ata_candidate_names()
            key = _bucket_key("ata", np.float64, shape_bucket(shape), None)
            cell = {name: {"count": 4, "total": 4.0, "best": 1.0}
                    for name in names}
            # the fused twins were the fastest cells: served, they would win
            fused = {name + "+fused": {"count": 4, "total": 4e-6,
                                       "best": 1e-6}
                     for name in names}
            cell.update(fused)
            path.write_text(json.dumps(
                {"version": TABLE_VERSION, "cells": {key: cell}}))

            # persist=False: this tuner's samples must not reach the file
            # the engine below starts from
            tuner = BackendTuner(str(path), timer=FakeClock(), persist=False)
            assert tuner.load() is True
            assert tuner.load_failures == 0
            for _ in range(3 * len(names)):
                name, _ = tuner.choose("ata", shape, np.float64, names)
                assert not name.endswith("+fused")
                tuner.record("ata", shape, np.float64, name, 1.0)

            engine = ExecutionEngine(tuner="measured")
            a = rng.standard_normal(shape)
            expect = np.tril(a.T @ a)
            for _ in range(8):
                assert np.allclose(np.tril(engine.matmul_ata(a)), expect)
            stats = engine.stats()
            engine.close()
        assert stats.tuner_hits + stats.tuner_explores == 8
        assert not any(name.endswith("+fused") for name in stats.backend_runs)
        cells = json.loads(path.read_text())["cells"]
        assert {name: cells[key][name] for name in fused} == fused
        assert not any(name.endswith("+fused")
                       for other, per_backend in cells.items()
                       if other != key
                       for name in per_backend)

    def test_v2_file_is_a_load_failure_and_rewritten_as_v3(self, tmp_path):
        """A table of the retired per-fingerprint layout (version 2) is
        not read: the tuner explores afresh and the next save replaces
        the file with a version-3 one."""
        from repro.engine.tuner import TABLE_VERSION
        path = tmp_path / "t.json"
        cell = {"x": {"count": 5, "total": 5.0, "best": 1.0}}
        path.write_text(json.dumps(
            {"version": 2, "tables": {"64,64": {"ata|<f8|64x64": cell}}}))
        tuner = BackendTuner(str(path), timer=FakeClock())
        assert tuner.table_snapshot() == {} and tuner.load_failures == 1
        tuner.record("ata", (8, 8), np.float64, "y", 1.0)
        assert tuner.save()
        payload = json.loads(path.read_text())
        assert payload["version"] == TABLE_VERSION == 3
        assert "tables" not in payload
        (entry,) = payload["cells"].values()
        assert entry == {"y": {"count": 1, "total": 1.0, "best": 1.0}}

    def test_config_excursion_writes_nothing_and_keeps_both_cells(
            self, tmp_path):
        """A base-case excursion below ``save_every`` samples touches no
        file, and each configuration's ``best()`` answers from its own
        cell before, during and after the excursion."""
        path = tmp_path / "t.json"
        tuner = BackendTuner(str(path), timer=FakeClock(), save_every=8)
        with configured(base_case_elements=64):
            tuner.record("ata", (64, 64), np.float64, "a", 1.0)
            with configured(base_case_elements=32):
                assert tuner.best("ata", (64, 64), np.float64) is None
                tuner.record("ata", (64, 64), np.float64, "b", 1.0)
                assert tuner.best("ata", (64, 64), np.float64) == "b"
            assert tuner.best("ata", (64, 64), np.float64) == "a"
        with configured(base_case_elements=32):
            assert tuner.best("ata", (64, 64), np.float64) == "b"
        assert not path.exists()
        assert len(tuner.table_snapshot()) == 2

    def test_path_frozen_at_construction(self, tmp_path):
        """A configured(tuner_path=...) excursion must not redirect
        autosaves of a table loaded from one file into another."""
        first = str(tmp_path / "first.json")
        with configured(tuner_path=first):
            tuner = BackendTuner(timer=FakeClock(), save_every=1)
            assert tuner.path == first
        with configured(tuner_path=str(tmp_path / "second.json")):
            tuner.record("ata", (8, 8), np.float64, "x", 1.0)  # autosave
        assert tuner.path == first
        assert (tmp_path / "first.json").exists()
        assert not (tmp_path / "second.json").exists()

    def test_configured_excursion_does_not_clobber_table(self, tmp_path):
        """Autosaves inside a temporary ``configured()`` block must not
        destroy the long-lived table (they park under the excursion's
        fingerprint instead)."""
        path = str(tmp_path / "t.json")
        with configured(base_case_elements=64):
            tuner = BackendTuner(path, timer=FakeClock(), save_every=1)
            tuner.record("ata", (64, 64), np.float64, "a", 1.0)  # autosaved
            with configured(base_case_elements=32):
                # excursion: fresh sub-table, autosave under its fingerprint
                assert tuner.best("ata", (64, 64), np.float64) is None
                tuner.record("ata", (64, 64), np.float64, "b", 9.0)
            # back out of the excursion: the long-lived table is intact
            assert tuner.best("ata", (64, 64), np.float64) == "a"
            fresh = BackendTuner(path, timer=FakeClock())
            assert fresh.best("ata", (64, 64), np.float64) == "a"

    def test_unwritable_path_never_crashes(self):
        tuner = BackendTuner("/proc/definitely/not/writable/t.json",
                             timer=FakeClock(), save_every=1)
        tuner.record("ata", (8, 8), np.float64, "x", 1.0)  # autosave attempt
        assert not tuner.save()
        assert tuner.table_snapshot() != {}  # in-memory table survives

    def test_failed_park_keeps_samples_in_memory(self):
        """When the parking save fails (unwritable path), a configured()
        excursion must still not lose the pending samples: they stay
        parked in memory and return with the fingerprint."""
        tuner = BackendTuner("/proc/definitely/not/writable/t.json",
                             timer=FakeClock(), save_every=100)
        with configured(base_case_elements=64):
            tuner.record("ata", (64, 64), np.float64, "a", 1.0)
            with configured(base_case_elements=32):
                assert tuner.best("ata", (64, 64), np.float64) is None
            assert tuner.best("ata", (64, 64), np.float64) == "a"

    def test_memory_only_mode(self, tmp_path):
        tuner = BackendTuner(str(tmp_path / "t.json"), persist=False,
                             timer=FakeClock(), save_every=1)
        tuner.record("ata", (8, 8), np.float64, "x", 1.0)
        assert not tuner.save()
        assert not (tmp_path / "t.json").exists()

    def test_save_merges_instead_of_replacing(self, tmp_path):
        """Two tuners on one path union their samples: neither
        last-writer-wins the other's cells away."""
        path = str(tmp_path / "t.json")
        first = BackendTuner(path, timer=FakeClock())
        second = BackendTuner(path, timer=FakeClock())
        first.record("ata", (64, 64), np.float64, "a", 1.0)
        assert first.save()
        second.record("ata", (64, 64), np.float64, "b", 2.0)
        assert second.save()  # unaware of first's save: must still merge
        merged = BackendTuner(path, timer=FakeClock()).table_snapshot()
        (entry,) = merged.values()
        assert entry["a"]["count"] == 1 and entry["b"]["count"] == 1

    def test_repeated_saves_never_double_count(self, tmp_path):
        path = str(tmp_path / "t.json")
        tuner = BackendTuner(path, timer=FakeClock())
        for seconds in (3.0, 1.0, 2.0):
            tuner.record("ata", (64, 64), np.float64, "x", seconds)
            assert tuner.save()
        assert tuner.save()  # an empty-delta save must also be a no-op
        (entry,) = BackendTuner(path,
                                timer=FakeClock()).table_snapshot().values()
        assert entry["x"] == {"count": 3, "total": 6.0, "best": 1.0}

    def test_same_cell_merges_counts_totals_and_best(self, tmp_path):
        path = str(tmp_path / "t.json")
        first = BackendTuner(path, timer=FakeClock())
        second = BackendTuner(path, timer=FakeClock())
        first.record("ata", (64, 64), np.float64, "x", 4.0)
        first.record("ata", (64, 64), np.float64, "x", 6.0)
        assert first.save()
        second.record("ata", (64, 64), np.float64, "x", 1.0)
        assert second.save()
        (entry,) = BackendTuner(path,
                                timer=FakeClock()).table_snapshot().values()
        assert entry["x"] == {"count": 3, "total": 11.0, "best": 1.0}

    def test_two_process_hammering_loses_no_samples(self, tmp_path):
        """The cross-process clobbering regression: two *processes*
        autosaving into one table must union to exactly every sample."""
        import multiprocessing

        path = str(tmp_path / "shared.json")
        samples = 25
        context = (multiprocessing.get_context("fork")
                   if "fork" in multiprocessing.get_all_start_methods()
                   else multiprocessing.get_context())

        def hammer(name: str) -> None:
            tuner = BackendTuner(path, timer=FakeClock(), save_every=1)
            for i in range(samples):
                tuner.record("ata", (64, 64), np.float64, name,
                             1.0 + (i % 5))
            tuner.flush()

        workers = [context.Process(target=hammer, args=(f"p{i}",))
                   for i in range(2)]
        for process in workers:
            process.start()
        for process in workers:
            process.join(timeout=60)
            assert process.exitcode == 0
        (entry,) = BackendTuner(path,
                                timer=FakeClock()).table_snapshot().values()
        assert entry["p0"]["count"] == samples
        assert entry["p1"]["count"] == samples
        assert entry["p0"]["best"] == 1.0 and entry["p1"]["best"] == 1.0

    def test_save_swallows_non_oserror_and_unlinks_tmp(self, tmp_path):
        """The "never raises" contract covers more than OSError: a
        non-serializable cell (json TypeError) must return False, leave
        no temp litter and keep the file loadable."""
        path = tmp_path / "t.json"
        tuner = BackendTuner(str(path), timer=FakeClock())
        tuner.record("ata", (64, 64), np.float64, "x", 1.0)
        assert tuner.save()
        tuner.record("ata", (64, 64), np.float64, "x", 2.0)
        key = next(iter(tuner._table))
        tuner._table[key]["x"]["total"] = object()  # json.dump TypeError
        assert tuner.save() is False  # swallowed, not raised
        assert [p.name for p in tmp_path.iterdir()
                if ".tmp." in p.name] == []
        survivor = BackendTuner(str(path), timer=FakeClock())
        (entry,) = survivor.table_snapshot().values()
        assert entry["x"]["count"] == 1  # the good save is intact

    def test_clear_resets_merge_baseline(self, tmp_path):
        """Samples recorded after clear() merge as new measurements on
        top of whatever the file already holds."""
        path = str(tmp_path / "t.json")
        tuner = BackendTuner(path, timer=FakeClock())
        tuner.record("ata", (64, 64), np.float64, "x", 1.0)
        assert tuner.save()
        tuner.clear()
        tuner.record("ata", (64, 64), np.float64, "x", 2.0)
        assert tuner.save()
        (entry,) = BackendTuner(path,
                                timer=FakeClock()).table_snapshot().values()
        assert entry["x"]["count"] == 2 and entry["x"]["total"] == 3.0

    def test_save_leaves_no_lock_litter_problems(self, tmp_path):
        """The advisory lock sidecar may persist but must never confuse
        a later load or save."""
        path = str(tmp_path / "t.json")
        tuner = BackendTuner(path, timer=FakeClock())
        tuner.record("ata", (64, 64), np.float64, "x", 1.0)
        assert tuner.save() and tuner.save()
        again = BackendTuner(path, timer=FakeClock())
        assert again.load_failures == 0
        (entry,) = again.table_snapshot().values()
        assert entry["x"]["count"] == 1

    def test_concurrent_engines_share_one_table(self, rng, tmp_path,
                                                fake_costs):
        """Two engines + tuners on one path, hammered from threads: no
        crash, the file stays valid JSON, and both converge."""
        clock, costs = fake_costs
        path = str(tmp_path / "shared.json")
        a = rng.standard_normal((64, 64))
        errors = []
        with configured(base_case_elements=64):
            engines = [ExecutionEngine(tuner=BackendTuner(
                path, explore_budget=1, timer=clock, save_every=1))
                for _ in range(2)]

            def hammer(engine):
                try:
                    for _ in range(12):
                        engine.matmul_ata(a)
                    engine.close()
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=hammer, args=(e,))
                       for e in engines]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            from repro.engine.tuner import TABLE_VERSION
            payload = json.loads(open(path).read())
            assert payload["version"] == TABLE_VERSION and payload["cells"]
            # a third engine loads whatever survived and still serves traffic
            late = ExecutionEngine(tuner=BackendTuner(
                path, explore_budget=1, timer=clock))
            c = late.matmul_ata(a)
            assert np.allclose(np.tril(c), np.tril(a.T @ a))


# ---------------------------------------------------------------------------
# config / env integration
# ---------------------------------------------------------------------------

class TestConfigIntegration:
    def test_repro_tuner_path_env_parsing(self, monkeypatch, tmp_path):
        from repro.config import _config_from_env
        monkeypatch.setenv("REPRO_TUNER_PATH", str(tmp_path / "custom.json"))
        cfg = _config_from_env()
        assert cfg.tuner_path == str(tmp_path / "custom.json")

    def test_default_tuner_path_resolution(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_TUNER_PATH", raising=False)
        with configured(tuner_path=None):
            assert default_tuner_path().endswith(os.path.join(
                ".cache", "repro", "tuner.json"))
        # $REPRO_TUNER_PATH is parsed once, into Config.tuner_path, when
        # repro.config is imported; resolution reads only the config
        monkeypatch.setenv("REPRO_TUNER_PATH", str(tmp_path / "env.json"))
        with configured(tuner_path=None):
            assert default_tuner_path().endswith(os.path.join(
                ".cache", "repro", "tuner.json"))
        with configured(tuner_path=str(tmp_path / "cfg.json")):
            assert default_tuner_path() == str(tmp_path / "cfg.json")


class TestLockSidecarHygiene:
    """``save()`` removes its ``.lock`` sidecar (ISSUE 9 satellite): a
    long-lived table directory must not accumulate stray lock files."""

    def _tuner_with_sample(self, path):
        tuner = BackendTuner(str(path))
        tuner.record("ata", (256, 128), "float64", "blocked", 0.01)
        return tuner

    def test_save_unlinks_the_lock_sidecar(self, tmp_path):
        path = tmp_path / "tuner.json"
        assert self._tuner_with_sample(path).save()
        assert path.exists()
        assert not (tmp_path / "tuner.json.lock").exists()

    def test_concurrent_saves_merge_and_leave_no_sidecar(self, tmp_path):
        path = tmp_path / "tuner.json"
        tuners = [self._tuner_with_sample(path) for _ in range(8)]
        outcomes = []
        threads = [threading.Thread(target=lambda t=t: outcomes.append(t.save()))
                   for t in tuners]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(outcomes)
        assert not (tmp_path / "tuner.json.lock").exists()
        # unlink-with-revalidation kept the merges serialized: every
        # tuner's sample landed
        with open(path, encoding="utf-8") as handle:
            (cells,) = json.load(handle)["cells"].values()
        assert cells["blocked"]["count"] == 8

    def test_injected_unlink_failure_stays_silent(self, tmp_path):
        path = tmp_path / "tuner.json"
        tuner = self._tuner_with_sample(path)
        with configured(faults="tuner.lock:raise@always"):
            assert tuner.save()  # hygiene failure never fails the save
        # the sidecar survived (unlink was injected to fail) but the
        # next unfaulted save sweeps it
        tuner.record("ata", (256, 128), "float64", "blocked", 0.02)
        assert tuner.save()
        assert not (tmp_path / "tuner.json.lock").exists()


class TestFrozenTuner:
    def test_frozen_tuner_abstains_cold(self):
        tuner = BackendTuner(persist=False, frozen=True)
        name, explore = tuner.choose("ata", (64, 64), np.float64,
                                     ["ata", "syrk"])
        assert name is None and explore is False

    def test_frozen_tuner_exploits_sampled_best_and_ignores_records(self):
        warm = BackendTuner(persist=False)
        for _ in range(4):
            warm.record("ata", (64, 64), np.float64, "ata", 0.002)
            warm.record("ata", (64, 64), np.float64, "syrk", 0.001)
        frozen = BackendTuner(persist=False, frozen=True)
        frozen._table = warm._table
        name, explore = frozen.choose("ata", (64, 64), np.float64,
                                      ["ata", "syrk", "tiled"])
        assert name == "syrk" and explore is False
        frozen.record("ata", (64, 64), np.float64, "tiled", 1e-9)
        name, _ = frozen.choose("ata", (64, 64), np.float64,
                                ["ata", "syrk", "tiled"])
        assert name == "syrk", "frozen tables must not learn"

    def test_engine_frozen_mode_is_deterministic(self, rng, tmp_path):
        with configured(base_case_elements=64,
                        tuner_path=str(tmp_path / "tuner.json")):
            a = rng.standard_normal((64, 48))
            ref = ExecutionEngine().matmul_ata(a)
            eng = ExecutionEngine(tuner="frozen")
            first = eng.matmul_ata(a)
            runs_after_first = dict(eng.stats().backend_runs)
            second = eng.matmul_ata(a)
            # an empty frozen table abstains: both calls fall to the same
            # heuristic backend as the plain engine, bit-identically
            assert np.array_equal(first, ref)
            assert np.array_equal(second, ref)
            assert len(runs_after_first) == 1
