"""Tests for the multi-process panel farm (and its CPU-detection helper).

The acceptance contract under test:

* a farm run is bit-identical (``np.array_equal``) to the in-process
  :class:`repro.engine.ooc.ShardedAtA` replaying the same fixed panel
  schedule, for every worker count in {0, 1, 2, 4}, across dtypes,
  single-kernel algorithms and source kinds (array / memmap / chunk
  stream) — worker count must never change the bits;
* for the recursive ``ata`` backend above its base case the farm is
  bit-identical to its own fixed reduction tree (partials folded in
  ascending panel order) at every worker count, and agrees with the
  in-process chain to rounding — the documented re-association caveat;
* worker loss self-heals: a worker that dies or fails mid-run is
  respawned and its panel replayed (at most
  :data:`repro.engine.farm.MAX_RETRIES` times), degrading to
  bit-identical in-process completion when retries run out; :class:`repro.errors.FarmError`
  surfaces — promptly, never a hang, with the failing worker's
  traceback riding along — only when degradation itself fails
  (the deeper chaos matrix lives in ``tests/test_fault_injection.py``);
* infeasible budgets fail up front with :class:`BudgetError` naming the
  farm's working set; feasible ones bound the resident high-water mark;
* farm runs are visible in :class:`repro.engine.EngineStats`;
* the warm pool: a run whose pool key matches reuses the previous run's
  workers and arenas (``spawned == 0``) with unchanged bits, any key
  change spawns a cold pool, and neither ``psm_*`` names nor idle
  workers outlive ``ExecutionEngine.close()``;
* :func:`repro.engine.cpu.available_cpus` honours the process affinity
  mask and degrades to ``os.cpu_count()``.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.config import configured
from repro.engine import (
    ChunkSource,
    ExecutionEngine,
    PanelFarm,
    ShardedAtA,
    available_cpus,
    matmul_ata_ooc,
    split_rows,
)
from repro.engine import farm as farm_mod
from repro.engine.backends import Backend, register_backend, unregister_backend
from repro.errors import (BudgetError, DTypeError, FarmError,
                          ShapeError)

pytestmark = pytest.mark.timeout(120)  # a hung farm must fail, not stall CI

#: backends whose kernels update every C element exactly once, so the
#: farm's partial-fold is bit-identical to the in-kernel accumulate
SINGLE_KERNEL_ALGOS = ("syrk", "tiled", "recursive_gemm")


def in_process_reference(a: np.ndarray, panel_rows: int, alpha: float = 1.0,
                         algo: str = "auto") -> np.ndarray:
    """The in-process executor on the identical fixed schedule."""
    c, _ = ShardedAtA(ExecutionEngine()).run(
        np.ascontiguousarray(a), alpha=alpha, algo=algo,
        panel_rows=panel_rows)
    return c


def fold_reference(a: np.ndarray, panel_rows: int, alpha: float = 1.0,
                   algo: str = "auto") -> np.ndarray:
    """The farm's own reduction tree, replayed sequentially: one partial
    Gram per panel (zero accumulator), folded in ascending panel order."""
    n = a.shape[1]
    engine = ExecutionEngine()
    c = np.zeros((n, n), dtype=a.dtype)
    for lo, hi in split_rows(a.shape[0], panel_rows):
        partial = np.zeros((n, n), dtype=a.dtype)
        engine.matmul_ata(np.ascontiguousarray(a[lo:hi]), partial, alpha,
                          algo=algo)
        c += partial
    return c


def make_source(kind: str, a: np.ndarray, tmp_path):
    if kind == "array":
        return a
    if kind == "memmap":
        path = tmp_path / "a.dat"
        mm = np.memmap(path, dtype=a.dtype, mode="w+", shape=a.shape)
        mm[:] = a
        mm.flush()
        return np.memmap(path, dtype=a.dtype, mode="r", shape=a.shape)
    chunks = [a[i:i + 13] for i in range(0, a.shape[0], 13)]
    return ChunkSource(iter(chunks), a.shape, a.dtype)


def farm_run(a_source, *, procs: int, **kwargs):
    """One run at the requested worker count: ``procs=0`` exercises the
    in-process routing of ``run_ooc``, ``procs>=1`` the farm."""
    engine = ExecutionEngine()
    if procs == 0:
        c, _ = engine.run_ooc(a_source, procs=0, **kwargs)
        return c
    c, _ = PanelFarm(engine, procs=procs).run(a_source, **kwargs)
    return c


class _RaiseBackend(Backend):
    """A backend that raises wherever it runs.

    In a worker it exercises the error-report/respawn path; once retries
    are exhausted it fails the in-process degradation pass too, which is
    the one remaining road to :class:`FarmError`.  (A backend that
    ``os._exit``\\ s would be a trap here: the degradation pass runs the
    backend in the *parent*, i.e. the test process — worker death is
    simulated through the ``farm.worker:kill`` fault site instead, which
    only ever fires in the disposable worker.)
    """

    name = "farm-test-raise"
    ops = ("ata",)

    def supports(self, *args, **kwargs):
        return True

    def cost(self, *args, **kwargs):
        return 0.0

    def run(self, *args, **kwargs):
        raise RuntimeError("synthetic panel failure")


# ---------------------------------------------------------------------------
# bit-identity across worker counts, dtypes, algos and sources
# ---------------------------------------------------------------------------

class TestBitIdentity:
    @settings(max_examples=8, deadline=None)
    @given(m=st.integers(20, 90), n=st.integers(2, 32),
           panel_rows=st.integers(5, 40),
           procs=st.sampled_from([0, 1, 2, 4]),
           dtype=st.sampled_from([np.float64, np.float32]),
           algo=st.sampled_from(SINGLE_KERNEL_ALGOS),
           kind=st.sampled_from(["array", "memmap", "chunks"]),
           data=st.data())
    def test_farm_matches_in_process_shardedata(self, m, n, panel_rows,
                                                procs, dtype, algo, kind,
                                                data, tmp_path_factory):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        a = rng.standard_normal((m, n)).astype(dtype)
        expected = in_process_reference(a, panel_rows, algo=algo)
        source = make_source(kind, a, tmp_path_factory.mktemp("farm"))
        got = farm_run(source, procs=procs, panel_rows=panel_rows, algo=algo)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("procs", [1, 2, 4])
    def test_worker_count_never_changes_bits(self, rng, procs):
        """The headline claim: same schedule => same bits, any pool size."""
        a = rng.standard_normal((160, 24))
        expected = in_process_reference(a, panel_rows=31, algo="syrk")
        got = farm_run(a, procs=procs, panel_rows=31, algo="syrk")
        assert np.array_equal(got, expected)

    def test_tall_panels_match_in_process(self, rng):
        """Panels taller than the BLAS's internal row blocking: the syrk
        leaf's ``kernel(c) == c + kernel(0)`` must survive them."""
        a = rng.standard_normal((1536, 48))
        expected = in_process_reference(a, panel_rows=512, algo="syrk")
        got, _ = PanelFarm(ExecutionEngine(), procs=2).run(
            a, algo="syrk", panel_rows=512)
        assert np.array_equal(got, expected)

    def test_recursive_ata_matches_own_reduction_tree(self, rng,
                                                      small_base_case):
        """Above the base case the recursive ``ata`` backend multi-updates
        C elements, so the farm cannot replay the in-kernel chain — but it
        must be bit-identical to its own ascending partial fold at every
        worker count, and within rounding of the in-process chain."""
        a = rng.standard_normal((96, 24))
        tree = fold_reference(a, panel_rows=33, algo="ata")
        chain = in_process_reference(a, panel_rows=33, algo="ata")
        for procs in (1, 2, 4):
            got = farm_run(a, procs=procs, panel_rows=33, algo="ata")
            assert np.array_equal(got, tree)
        assert np.allclose(tree, chain)

    def test_single_panel_matches_matmul_ata(self, rng):
        """A panel fitting the whole input: one worker, one kernel call on
        a zero accumulator — exactly ``matmul_ata``."""
        a = rng.standard_normal((40, 16))
        expected = ExecutionEngine().matmul_ata(a, algo="syrk")
        got = farm_run(a, procs=2, panel_rows=40, algo="syrk")
        assert np.array_equal(got, expected)

    def test_alpha_beta_and_existing_c(self, rng):
        a = rng.standard_normal((50, 12))
        c0 = rng.standard_normal((12, 12))
        expected, _ = ShardedAtA(ExecutionEngine()).run(
            a, c0.copy(), 0.5, beta=2.0, algo="syrk", panel_rows=17)
        got, _ = PanelFarm(ExecutionEngine(), procs=2).run(
            a, c0.copy(), 0.5, beta=2.0, algo="syrk", panel_rows=17)
        assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# wiring: run_ooc routing, EngineStats
# ---------------------------------------------------------------------------

class TestWiring:
    def test_explicit_procs_zero_stays_in_process(self, rng):
        a = rng.standard_normal((80, 16))
        engine = ExecutionEngine()
        _, stats = engine.run_ooc(a, algo="syrk", panel_rows=29, procs=0)
        assert not hasattr(stats, "procs")  # OocRunStats
        snap = engine.stats()
        assert snap.ooc_runs == 1 and snap.farm_runs == 0

    def test_matmul_ata_ooc_accepts_procs(self, rng):
        a = rng.standard_normal((64, 12))
        expected = in_process_reference(a, panel_rows=21, algo="syrk")
        got = matmul_ata_ooc(a, algo="syrk", panel_rows=21, procs=2)
        assert np.array_equal(got, expected)

    def test_blas_bound_in_parent_before_fork(self, rng, monkeypatch):
        """The parent resolves the BLAS provider before it forks, so
        workers inherit the binding instead of each repeating the
        library search on every run."""
        from repro.blas import direct
        monkeypatch.setattr(direct, "_PROVIDER", None)
        monkeypatch.setattr(direct, "_LOADED", False)
        a = rng.standard_normal((64, 12))
        PanelFarm(ExecutionEngine(), procs=2).run(a, algo="syrk",
                                                  panel_rows=21)
        assert direct._LOADED

    @pytest.mark.parametrize("frozen", [False, True])
    def test_workers_use_the_parent_tuner(self, rng, tmp_path, frozen):
        """Workers tune into the parent tuner's table, under its explore
        budget and its engine's scheduling signature, never into the
        configured default path; a frozen parent's workers write
        nothing."""
        import json

        from repro.engine import BackendTuner
        decoy = tmp_path / "decoy.json"
        table = tmp_path / "table.json"
        a = rng.standard_normal((60, 12))
        with configured(tuner_path=str(decoy)):
            engine = ExecutionEngine(
                workers=2, tuner=BackendTuner(str(table), explore_budget=1,
                                              frozen=frozen))
            try:
                got, _ = engine.run_ooc(a, procs=1, panel_rows=20)
            finally:
                engine.close()
        assert np.allclose(np.tril(got), np.tril(a.T @ a))
        assert not decoy.exists()
        if frozen:
            assert not table.exists()
        else:
            cells = json.loads(table.read_text())["cells"]
            assert cells
            assert all(key.endswith("|w2l2") for key in cells), sorted(cells)

    def test_invalid_procs_rejected(self):
        with pytest.raises(ShapeError):
            PanelFarm(ExecutionEngine(), procs=0)
        with pytest.raises(ShapeError):
            PanelFarm(ExecutionEngine(), procs=-2)

    def test_c_operand_validation(self, rng):
        """``C`` is checked as ``matmul_ata`` checks it, before any worker
        is spawned."""
        a = rng.standard_normal((30, 10))
        farm = PanelFarm(ExecutionEngine(), procs=2)
        with pytest.raises(ShapeError, match="shape"):
            farm.run(a, c=np.zeros((5, 5)), panel_rows=10)
        with pytest.raises(DTypeError):
            farm.run(a, c=np.zeros((10, 10), dtype=np.float32),
                     panel_rows=10)


# ---------------------------------------------------------------------------
# budget discipline
# ---------------------------------------------------------------------------

class TestBudget:
    def test_infeasible_budget_names_farm_working_set(self):
        farm = PanelFarm(ExecutionEngine(), procs=2)
        a = np.ones((64, 32))
        with pytest.raises(BudgetError) as excinfo:
            farm.run(a, budget=1000)
        message = str(excinfo.value)
        assert "worker output arena" in message and "procs=2" in message

    def test_budget_sizes_panels_and_bounds_resident(self, rng):
        a = rng.standard_normal((256, 16))
        itemsize = a.dtype.itemsize
        procs = 2
        # room for C + procs output arenas + procs 24-row input arenas
        budget = ((1 + procs) * 16 * 16 + procs * 24 * 16) * itemsize
        got, stats = PanelFarm(ExecutionEngine(), procs=procs).run(
            a, algo="syrk", budget=budget)
        assert stats.panel_rows == 24
        assert stats.bytes_resident_high <= budget
        assert np.array_equal(
            got, in_process_reference(a, panel_rows=24, algo="syrk"))

    def test_explicit_panel_rows_validated_against_budget(self):
        farm = PanelFarm(ExecutionEngine(), procs=2)
        a = np.ones((64, 16))
        budget = (3 * 16 * 16 + 2 * 8 * 16) * a.dtype.itemsize
        with pytest.raises(BudgetError):
            farm.run(a, budget=budget, panel_rows=9)  # 8 rows fit, 9 don't

    def test_procs_clamped_to_panel_count(self, rng):
        a = rng.standard_normal((30, 8))
        _, stats = PanelFarm(ExecutionEngine(), procs=4).run(
            a, algo="syrk", panel_rows=20)  # only 2 panels
        assert stats.procs == 2


# ---------------------------------------------------------------------------
# failure handling: heal, degrade, and only then FarmError — never a hang
# ---------------------------------------------------------------------------

class TestWorkerFailure:
    def test_worker_death_heals_bit_identically(self, rng):
        """A killed worker is respawned, its panel replayed: same bits as
        the fault-free run, with the recovery visible in the stats."""
        a = rng.standard_normal((60, 12))
        expected = in_process_reference(a, panel_rows=17, algo="syrk")
        with configured(faults="farm.worker:kill@p1"):
            got, stats = PanelFarm(ExecutionEngine(), procs=2).run(
                a, algo="syrk", panel_rows=17)
        assert np.array_equal(got, expected)
        assert stats.respawns >= 1 and stats.retried_panels >= 1
        assert stats.degraded_panels == 0

    def test_worker_exception_exhausts_retries_into_farm_error(self, rng):
        """A backend failing everywhere defeats replay *and* degradation;
        the FarmError carries the worker traceback and names the panel."""
        register_backend(_RaiseBackend())
        try:
            a = rng.standard_normal((60, 12))
            with pytest.raises(FarmError,
                               match="synthetic panel failure"):
                PanelFarm(ExecutionEngine(), procs=2).run(
                    a, algo="farm-test-raise", panel_rows=17)
        finally:
            unregister_backend("farm-test-raise")

    def test_farm_error_names_the_lost_panel(self, rng):
        register_backend(_RaiseBackend())
        try:
            a = rng.standard_normal((60, 12))
            with pytest.raises(FarmError, match=r"panel 0 of 4"):
                PanelFarm(ExecutionEngine(), procs=1).run(
                    a, algo="farm-test-raise", panel_rows=17)
        finally:
            unregister_backend("farm-test-raise")

    def test_farm_error_is_repro_and_runtime_error(self):
        from repro.errors import ReproError
        assert issubclass(FarmError, ReproError)
        assert issubclass(FarmError, RuntimeError)

    def test_arenas_cleaned_up_after_failure(self, rng):
        """No shared-memory litter survives a failed run."""
        register_backend(_RaiseBackend())
        try:
            a = rng.standard_normal((60, 12))
            with pytest.raises(FarmError):
                PanelFarm(ExecutionEngine(), procs=1).run(
                    a, algo="farm-test-raise", panel_rows=17)
        finally:
            unregister_backend("farm-test-raise")
        shm_dir = "/dev/shm"
        if os.path.isdir(shm_dir):
            litter = [name for name in os.listdir(shm_dir)
                      if name.startswith("psm_")]
            assert litter == []

    def test_arenas_cleaned_up_after_healed_run(self, rng):
        """Respawning allocates fresh arenas; the doomed ones must not
        leak either."""
        a = rng.standard_normal((60, 12))
        with configured(faults="farm.worker:kill@p0"):
            PanelFarm(ExecutionEngine(), procs=2).run(
                a, algo="syrk", panel_rows=17)
        shm_dir = "/dev/shm"
        if os.path.isdir(shm_dir):
            litter = [name for name in os.listdir(shm_dir)
                      if name.startswith("psm_")]
            assert litter == []


# ---------------------------------------------------------------------------
# the warm pool: workers and arenas kept across runs
# ---------------------------------------------------------------------------

def farm_children():
    """This process's live farm worker processes."""
    return [p for p in multiprocessing.active_children()
            if p.name.startswith("repro-farm-")]


def shm_litter():
    if not os.path.isdir("/dev/shm"):
        return []
    return [name for name in os.listdir("/dev/shm")
            if name.startswith("psm_")]


class _NeverBackend(Backend):
    """A backend that serves nothing: registering it changes only the
    registry generation."""

    name = "farm-test-never"
    ops = ("ata",)

    def supports(self, *args, **kwargs):
        return False

    def cost(self, *args, **kwargs):
        return 0.0

    def run(self, *args, **kwargs):
        raise AssertionError("never selected")


def syrk_farm_run(a, *, procs=2, panel_rows=17):
    return PanelFarm(ExecutionEngine(), procs=procs).run(
        a, algo="syrk", panel_rows=panel_rows)


class TestWarmPool:
    def test_same_key_reuses_pool_with_cold_bits(self, rng):
        a = rng.standard_normal((90, 12))
        farm_mod.stop_idle_pool()
        cold, cold_stats = syrk_farm_run(a)
        warm, warm_stats = syrk_farm_run(a)
        assert cold_stats.spawned == 2 and warm_stats.spawned == 0
        assert warm_stats.respawns == 0
        assert np.array_equal(warm, cold)
        assert np.array_equal(cold, in_process_reference(a, 17, algo="syrk"))

    def test_warm_run_counted_in_engine_stats(self, rng):
        a = rng.standard_normal((90, 12))
        farm_mod.stop_idle_pool()
        engine = ExecutionEngine()
        for _ in range(3):
            engine.run_ooc(a, algo="syrk", panel_rows=17, procs=2)
        snap = engine.stats()
        assert snap.farm_runs == 3 and snap.farm_spawned == 2
        from repro.serve import Server
        exposition = Server(engine).metrics_text().splitlines()
        assert "repro_engine_farm_spawned 2" in exposition

    @pytest.mark.parametrize("change", ["n", "dtype", "procs", "config",
                                        "backend"])
    def test_key_change_spawns_cold_pool(self, rng, change):
        a = rng.standard_normal((90, 12))
        syrk_farm_run(a)
        procs = 2
        try:
            if change == "n":
                a = rng.standard_normal((90, 13))
            elif change == "dtype":
                a = a.astype(np.float32)
            elif change == "procs":
                procs = 3
            elif change == "backend":
                register_backend(_NeverBackend())
            seed = repro.get_config().seed
            if change == "config":
                seed += 1  # any field: the key holds the whole snapshot
            with configured(seed=seed):
                got, stats = syrk_farm_run(a, procs=procs)
        finally:
            unregister_backend("farm-test-never")
        assert stats.spawned == procs and stats.respawns == 0
        assert np.array_equal(got, in_process_reference(a, 17, algo="syrk"))

    def test_idle_worker_killed_between_runs_is_replaced_silently(self, rng):
        a = rng.standard_normal((90, 12))
        expected, _ = syrk_farm_run(a)
        (victim,) = [p for p in farm_children() if p.name == "repro-farm-0"]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        assert not victim.is_alive()
        got, stats = syrk_farm_run(a)
        assert np.array_equal(got, expected)
        assert stats.respawns == 0 and stats.spawned == 1

    def test_poisoned_run_leaves_pool_clean(self, rng):
        """``poison@p1`` fires once per spec, so the second run is a clean
        run on the very workers that computed the poisoned one."""
        a = rng.standard_normal((90, 12))
        expected = in_process_reference(a, 17, algo="syrk")
        with configured(faults="farm.worker:poison@p1"):
            poisoned, _ = syrk_farm_run(a)
            clean, stats = syrk_farm_run(a)
        assert np.isnan(poisoned).any()
        assert stats.spawned == 0
        assert np.array_equal(clean, expected)

    def test_concurrent_runs_keep_at_most_one_idle_pool(self, rng):
        inputs = [rng.standard_normal((90, 12)) for _ in range(2)]
        expected = [in_process_reference(a, 17, algo="syrk")
                    for a in inputs]
        results = [[], []]
        barrier = threading.Barrier(2)

        def body(i):
            barrier.wait()
            for _ in range(3):
                results[i].append(syrk_farm_run(inputs[i])[0])

        threads = [threading.Thread(target=body, args=(i,))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        for i in range(2):
            assert len(results[i]) == 3
            assert all(np.array_equal(got, expected[i])
                       for got in results[i])
        assert len(farm_children()) <= 2
        assert shm_litter() == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_leaves_parent_pool_alone(self, rng):
        a = rng.standard_normal((90, 12))
        expected, _ = syrk_farm_run(a)
        parent_workers = sorted(p.pid for p in farm_children())
        pid = os.fork()
        if pid == 0:  # the child: its own cold pool, same bits
            status = 1
            try:
                got, stats = syrk_farm_run(a)
                if stats.spawned == 2 and np.array_equal(got, expected):
                    status = 0
                farm_mod.stop_idle_pool()
            finally:
                os._exit(status)
        _, wait_status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(wait_status) == 0
        assert sorted(p.pid for p in farm_children()) == parent_workers
        got, stats = syrk_farm_run(a)
        assert stats.spawned == 0 and np.array_equal(got, expected)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_sigkilled_parent_leaves_no_arena_or_worker(self):
        """Idle workers see their parent's death as end-of-file and exit;
        the arena names were unlinked when the workers attached."""
        script = (
            "import multiprocessing, os, signal\n"
            "import numpy as np\n"
            "from repro.engine import ExecutionEngine, PanelFarm\n"
            "PanelFarm(ExecutionEngine(), procs=2).run(np.ones((90, 12)),\n"
            "                                          panel_rows=17)\n"
            "print(*[p.pid for p in multiprocessing.active_children()\n"
            "        if p.name.startswith('repro-farm-')], flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n")
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True, timeout=60,
                                env=dict(os.environ, PYTHONPATH=str(src)))
        assert result.returncode == -signal.SIGKILL
        pids = [int(pid) for pid in result.stdout.split()]
        assert len(pids) == 2

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 10
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, pids))
        assert shm_litter() == []

    def test_nothing_outlives_close(self, rng):
        a = rng.standard_normal((90, 12))
        syrk_farm_run(a)
        syrk_farm_run(a)
        assert shm_litter() == []
        assert len(farm_children()) == 2
        ExecutionEngine().close()
        assert farm_children() == []
        assert shm_litter() == []

    def test_worker_main_returns_once_per_run(self, rng, tmp_path,
                                              monkeypatch):
        """Wrapped the way the benchmark's tracing wraps it, every worker
        returns from ``_worker_main`` exactly once per run, before
        ``run()`` returns."""
        a = rng.standard_normal((90, 12))
        farm_mod.stop_idle_pool()  # the pool below must fork the wrapper
        worker_main = farm_mod._worker_main

        def recording_worker_main(*args, **kwargs):
            try:
                worker_main(*args, **kwargs)
            finally:
                (tmp_path / f"{os.getpid()}-{time.monotonic_ns()}").touch()

        monkeypatch.setattr(farm_mod, "_worker_main", recording_worker_main)
        try:
            for run in (1, 2, 3):
                syrk_farm_run(a)
                returns = os.listdir(tmp_path)
                assert len(returns) == 2 * run
                assert len({name.split("-")[0] for name in returns}) == 2
        finally:
            farm_mod.stop_idle_pool()  # no later run may reuse the wrapper


# ---------------------------------------------------------------------------
# available_cpus
# ---------------------------------------------------------------------------

class TestAvailableCpus:
    def test_at_least_one(self):
        assert available_cpus() >= 1

    def test_prefers_affinity_mask(self, monkeypatch):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("platform has no sched_getaffinity")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 3})
        assert available_cpus() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        def boom(pid):
            raise OSError("no affinity support")
        monkeypatch.setattr(os, "sched_getaffinity", boom, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert available_cpus() == 7

    def test_never_returns_zero(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert available_cpus() == 1

    def test_auto_workers_honour_affinity(self, monkeypatch):
        """dispatch's "auto" worker cap asks available_cpus, not
        os.cpu_count: a pinned process must not over-schedule."""
        import repro.engine.cpu as cpu_mod
        monkeypatch.setattr(cpu_mod.os, "sched_getaffinity",
                            lambda pid: {0}, raising=False)
        engine = ExecutionEngine(workers=4)
        try:
            assert engine._auto_workers == 1
        finally:
            engine.close()


class TestSharedMemoryShim:
    """The ``_attach`` tracker-suppression shim (bpo-39959).

    Python 3.13 grew a native ``track=False``; older interpreters get a
    back-port that blanks ``resource_tracker.register`` for the duration
    of the attach.  Either way the contract is the same: attaching to an
    arena must never register it with the caller's resource tracker —
    that tracker would unlink the parent's arena on exit.  The CI
    fast-lane 3.13 matrix entry exercises the native path; everywhere
    else the fallback runs.
    """

    def test_attach_does_not_register_with_tracker(self, monkeypatch):
        from multiprocessing import resource_tracker, shared_memory

        from repro.engine.farm import _attach

        owner = shared_memory.SharedMemory(create=True, size=64)
        registered = []
        original = resource_tracker.register
        monkeypatch.setattr(resource_tracker, "register",
                            lambda *a, **k: registered.append(a))
        try:
            attached = _attach(owner.name)
            try:
                assert attached.buf[:4] == owner.buf[:4]
                assert not any("shared_memory" in str(a) for a in registered)
            finally:
                attached.close()
        finally:
            monkeypatch.setattr(resource_tracker, "register", original)
            owner.close()
            owner.unlink()

    def test_fallback_restores_register(self, monkeypatch):
        """The <3.13 monkeypatch path restores the tracker hook even
        when the attach itself raises."""
        from multiprocessing import resource_tracker, shared_memory

        import repro.engine.farm as farm_mod

        real = shared_memory.SharedMemory

        def no_track_kwarg(*args, **kwargs):
            if "track" in kwargs:
                raise TypeError("track is 3.13+")
            return real(*args, **kwargs)

        monkeypatch.setattr(farm_mod.shared_memory, "SharedMemory",
                            no_track_kwarg)
        before = resource_tracker.register
        with pytest.raises(FileNotFoundError):
            farm_mod._attach("repro-no-such-arena-xyzzy")
        assert resource_tracker.register is before
