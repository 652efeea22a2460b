"""Chaos suite: deterministic fault injection against the recovery paths.

Every scenario arms a :mod:`repro.faults` spec and asserts the system's
documented response — not merely "it survived":

* **farm** — killed workers are respawned and their panels replayed
  bit-identically at every proc count; exhausted retries degrade to
  in-process completion, still bit-identical, with the recovery visible
  in :class:`FarmRunStats` and :class:`~repro.engine.EngineStats`;
  ``poison`` documents the one failure the model excludes (a worker that
  lies);
* **out-of-core** — a truncated stream raises instead of returning a
  silently partial Gram;
* **serving** — expired deadlines settle with
  :class:`~repro.errors.DeadlineError`, never poison their batch, and
  the admission ledger reconciles every request's fate under load;
  :func:`repro.serve.retry` absorbs transient backpressure;
* **tuner** — an injected save failure honours the never-raises
  contract;
* the spec grammar itself: malformed specs fail at configuration time,
  and seeded probability triggers fire reproducibly.

The suite runs under the SIGALRM timeout backstop (a hung recovery path
must fail loudly), and an autouse fixture resets compiled-plan trigger
state between tests.
"""

from __future__ import annotations

import asyncio
import random

import numpy as np
import pytest

import repro
from repro import DeadlineError, FaultInjected, QueueFullError, faults
from repro.config import configured, set_config, _config_from_env
from repro.engine import ExecutionEngine, PanelFarm, ShardedAtA
from repro.engine.tuner import BackendTuner
from repro.errors import ConfigurationError, ShapeError
from repro.serve import Server, retry

pytestmark = pytest.mark.timeout(120)  # hung recovery must fail, not stall


def reference(a: np.ndarray, panel_rows: int, algo: str = "syrk"):
    """Fault-free in-process executor on the identical fixed schedule."""
    c, _ = ShardedAtA(ExecutionEngine()).run(
        a, algo=algo, panel_rows=panel_rows)
    return c


# ---------------------------------------------------------------------------
# spec grammar and determinism
# ---------------------------------------------------------------------------

class TestSpecGrammar:
    def test_actions_triggers_and_repeat(self):
        plan = faults.compile_spec(
            "farm.worker:kill@p3,serve.batch:raise@0.1,"
            "ooc.stream:truncate@n2*3,tuner.save:slow0.25@always", seed=7)
        rules = {rule.site: rule
                 for site in plan._by_site for rule in plan._by_site[site]}
        assert rules["farm.worker"].action == "kill"
        assert rules["farm.worker"].trigger_kind == "index"
        assert rules["farm.worker"].repeat == 1  # p-trigger default
        assert rules["serve.batch"].trigger_kind == "prob"
        assert rules["serve.batch"].repeat is None  # unlimited default
        assert rules["ooc.stream"].repeat == 3
        assert rules["tuner.save"].seconds == 0.25

    @pytest.mark.parametrize("bad", [
        "farm.worker",                 # no action/trigger
        "farm.worker:kill",            # no trigger
        "farm.worker:explode@p1",      # unknown action
        "farm.worker:kill@maybe",      # unknown trigger
        "farm.worker:kill@1.5",        # probability out of range
        "farm.worker:kill@p1*0",       # repeat must be >= 1
        "farm.worker:slow-1@always",   # negative slow duration
        ":kill@p1",                    # empty site
    ])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            faults.compile_spec(bad, seed=0)

    def test_config_validates_spec_up_front(self):
        with pytest.raises(ConfigurationError):
            repro.Config(faults="farm.worker:explode@p1")
        # a well-formed spec is accepted
        repro.Config(faults="farm.worker:kill@p1")

    def test_sites_are_noops_when_unarmed(self):
        assert not faults.armed()
        assert faults.maybe("farm.worker", index=0) is None
        assert faults.probe("farm.worker", index=0) is None

    def test_index_trigger_fires_once_at_its_index(self):
        with configured(faults="some.site:poison@p2"):
            assert faults.maybe("some.site", index=0) is None
            assert faults.maybe("some.site", index=2) == "poison"
            assert faults.maybe("some.site", index=2) is None  # one-shot

    def test_probability_trigger_is_seeded_deterministic(self):
        first = [bool(faults.compile_spec("s:raise@0.4", seed=11)
                      .fire("s", None)) for _ in range(1)]
        sequence_a = faults.compile_spec("s:raise@0.4", seed=11)
        sequence_b = faults.compile_spec("s:raise@0.4", seed=11)
        hits_a = [bool(sequence_a.fire("s", None)) for _ in range(50)]
        hits_b = [bool(sequence_b.fire("s", None)) for _ in range(50)]
        assert hits_a == hits_b and any(hits_a) and not all(hits_a)
        assert first[0] == hits_a[0]

    def test_perform_raises_fault_injected(self):
        with pytest.raises(FaultInjected):
            faults.perform(("raise", 0.0))
        assert FaultInjected.__mro__  # importable via repro
        assert issubclass(FaultInjected, repro.ReproError)


# ---------------------------------------------------------------------------
# farm: respawn/replay, degradation, poison
# ---------------------------------------------------------------------------

class TestFarmChaos:
    @pytest.mark.parametrize("procs", [1, 2, 4])
    def test_kill_each_worker_once_heals_bit_identically(self, rng, procs):
        """Every initial worker dies once (panel i is staged on worker i);
        the run still equals the zero-fault run bit for bit."""
        a = rng.standard_normal((120, 16))
        baseline, _ = PanelFarm(ExecutionEngine(), procs=procs).run(
            a, algo="syrk", panel_rows=15)
        spec = ",".join(f"farm.worker:kill@p{i}" for i in range(procs))
        with configured(faults=spec):
            healed, stats = PanelFarm(ExecutionEngine(), procs=procs).run(
                a, algo="syrk", panel_rows=15)
        assert np.array_equal(healed, baseline)
        assert stats.respawns == procs
        assert stats.retried_panels == procs
        assert stats.degraded_panels == 0 and not stats.degraded

    def test_retries_exhausted_degrades_bit_identically(self, rng):
        a = rng.standard_normal((120, 16))
        expected = reference(a, panel_rows=15)
        with configured(faults="farm.worker:raise@p2*99"):
            got, stats = PanelFarm(ExecutionEngine(), procs=2).run(
                a, algo="syrk", panel_rows=15)
        assert np.array_equal(got, expected)
        assert stats.degraded and stats.degraded_panels > 0
        assert stats.retried_panels == 2  # the retry budget, then degrade

    def test_zero_retries_degrades_on_first_failure(self, rng):
        """Once a panel has used its retry budget (two replays), the next
        failure degrades at once: the third kill is never replayed."""
        a = rng.standard_normal((60, 12))
        expected = reference(a, panel_rows=17)
        with configured(faults="farm.worker:kill@p0*3"):
            got, stats = PanelFarm(ExecutionEngine(), procs=2).run(
                a, algo="syrk", panel_rows=17)
        assert np.array_equal(got, expected)
        assert stats.degraded and stats.retried_panels == 2

    def test_engine_stats_expose_recovery_counters(self, rng):
        a = rng.standard_normal((120, 16))
        engine = ExecutionEngine()
        with configured(faults="farm.worker:kill@p1"):
            engine.run_ooc(a, algo="syrk", panel_rows=15, procs=4)
        snap = engine.stats()
        assert snap.farm_respawns == 1
        assert snap.farm_retried_panels == 1
        assert snap.farm_degraded == 0

    def test_acceptance_env_armed_kill_run_ooc_procs4(self, rng,
                                                      monkeypatch):
        """The acceptance scenario verbatim: REPRO_FAULTS=farm.worker:kill@p1
        with run_ooc(procs=4) completes via respawn+replay, bit-identical
        to the fault-free run."""
        a = rng.standard_normal((120, 16))
        engine = ExecutionEngine()
        baseline, _ = engine.run_ooc(a, algo="syrk", panel_rows=15, procs=4)
        monkeypatch.setenv("REPRO_FAULTS", "farm.worker:kill@p1")
        previous = set_config(_config_from_env())
        try:
            got, stats = engine.run_ooc(a, algo="syrk", panel_rows=15,
                                        procs=4)
        finally:
            set_config(previous)
        assert np.array_equal(got, baseline)
        assert stats.respawns == 1
        snap = engine.stats()
        assert snap.farm_respawns == 1 and snap.farm_degraded == 0

    def test_slow_worker_changes_nothing_but_latency(self, rng):
        a = rng.standard_normal((60, 12))
        expected = reference(a, panel_rows=17)
        with configured(faults="farm.worker:slow0.05@p1"):
            got, stats = PanelFarm(ExecutionEngine(), procs=2).run(
                a, algo="syrk", panel_rows=17)
        assert np.array_equal(got, expected)
        assert stats.respawns == 0

    def test_poison_is_the_undetectable_failure(self, rng):
        """A worker that lies is outside the failure model: the corrupted
        partial folds in unnoticed.  The site exists to document exactly
        that boundary."""
        a = rng.standard_normal((60, 12))
        with configured(faults="farm.worker:poison@p1"):
            got, stats = PanelFarm(ExecutionEngine(), procs=2).run(
                a, algo="syrk", panel_rows=17)
        assert np.isnan(got).any()
        assert stats.respawns == 0  # nothing looked like a failure


# ---------------------------------------------------------------------------
# out-of-core: truncation
# ---------------------------------------------------------------------------

class TestOocChaos:
    def test_truncated_stream_raises_not_partial_result(self, rng):
        a = rng.standard_normal((120, 16))
        with configured(faults="ooc.stream:truncate@p2"):
            with pytest.raises(ShapeError, match="ended after 2 of"):
                ShardedAtA(ExecutionEngine()).run(
                    a, algo="syrk", panel_rows=15)


# ---------------------------------------------------------------------------
# serving: deadlines, batch faults, ledger reconciliation, retry
# ---------------------------------------------------------------------------

class TestServingChaos:
    def test_deadline_expiry_under_load_ledger_reconciles(self, rng):
        """Overload with a slow engine: some requests rejected at
        admission, the admitted ones expire — and every single request's
        fate is ledgered."""
        a = rng.standard_normal((64, 16))

        async def scenario():
            async with Server(max_batch=4, max_inflight=6) as server:
                results = await asyncio.gather(
                    *(server.submit(a, timeout=0.05) for _ in range(12)),
                    return_exceptions=True)
                return results, server.stats()

        with configured(faults="serve.engine:slow0.3@always"):
            results, stats = asyncio.run(scenario())
        expired = sum(isinstance(r, DeadlineError) for r in results)
        rejected = sum(isinstance(r, QueueFullError) for r in results)
        assert expired == stats.expired > 0
        assert rejected == stats.rejected > 0
        assert stats.submitted == 12 == stats.accounted
        assert stats.inflight == 0

    def test_expiry_does_not_poison_the_batch(self, rng):
        """An expired request and a patient one coalesce into the same
        batch; the patient one gets the exact engine result."""
        a = rng.standard_normal((64, 16))
        expected = ExecutionEngine().matmul_ata(a, algo="syrk")

        async def scenario():
            async with Server(max_batch=2) as server:
                impatient, patient = await asyncio.gather(
                    server.submit(a, algo="syrk", timeout=0.05),
                    server.submit(a, algo="syrk"),
                    return_exceptions=True)
                return impatient, patient, server.stats()

        with configured(faults="serve.engine:slow0.25@always"):
            impatient, patient, stats = asyncio.run(scenario())
        assert isinstance(impatient, DeadlineError)
        assert np.array_equal(patient, expected)
        assert stats.expired == 1 and stats.completed == 1
        assert stats.submitted == stats.accounted == 2

    def test_negative_timeout_rejected(self, rng):
        a = rng.standard_normal((64, 16))

        async def scenario():
            async with Server() as server:
                await server.submit(a, timeout=-1.0)

        with pytest.raises(ConfigurationError):
            asyncio.run(scenario())

    def test_batch_fault_fails_all_companions_and_ledgers(self, rng):
        a = rng.standard_normal((64, 16))

        async def scenario():
            async with Server(max_batch=4) as server:
                results = await asyncio.gather(
                    *(server.submit(a) for _ in range(4)),
                    return_exceptions=True)
                return results, server.stats()

        with configured(faults="serve.batch:raise@n0"):
            results, stats = asyncio.run(scenario())
        assert all(isinstance(r, FaultInjected) for r in results)
        assert stats.failed == 4 and stats.expired == 0
        assert stats.submitted == stats.accounted == 4


class TestRetryHelper:
    def test_retries_transient_backpressure(self):
        calls = 0

        async def flaky():
            nonlocal calls
            calls += 1
            if calls < 3:
                raise QueueFullError("full")
            return "ok"

        async def scenario():
            return await retry(flaky, backoff=0.001,
                               rng=random.Random(1))

        assert asyncio.run(scenario()) == "ok"
        assert calls == 3

    def test_non_retryable_propagates_immediately(self):
        calls = 0

        async def broken():
            nonlocal calls
            calls += 1
            raise ShapeError("bad operand")

        async def scenario():
            await retry(broken, backoff=0.001)

        with pytest.raises(ShapeError):
            asyncio.run(scenario())
        assert calls == 1

    def test_exhausted_attempts_raise_the_last_error(self):
        calls = 0

        async def always_full():
            nonlocal calls
            calls += 1
            raise QueueFullError("full")

        async def scenario():
            await retry(always_full, attempts=3, backoff=0.001)

        with pytest.raises(QueueFullError):
            asyncio.run(scenario())
        assert calls == 3

    def test_backoff_schedule_jittered_and_capped(self, monkeypatch):
        sleeps = []

        async def fake_sleep(seconds):
            sleeps.append(seconds)

        monkeypatch.setattr(asyncio, "sleep", fake_sleep)

        async def always_full():
            raise QueueFullError("full")

        async def scenario(**kwargs):
            await retry(always_full, **kwargs)

        # no jitter: pure exponential, capped at max_backoff
        with pytest.raises(QueueFullError):
            asyncio.run(scenario(attempts=4, backoff=0.1, factor=2.0,
                                 max_backoff=0.3, jitter=0.0))
        assert sleeps == pytest.approx([0.1, 0.2, 0.3])
        # seeded jitter: deterministic, inside [delay*(1-j), delay]
        sleeps.clear()
        with pytest.raises(QueueFullError):
            asyncio.run(scenario(attempts=3, backoff=0.1, factor=2.0,
                                 jitter=0.5, rng=random.Random(42)))
        reference_rng = random.Random(42)
        expected = [0.1 * (1 - 0.5 * reference_rng.random()),
                    0.2 * (1 - 0.5 * reference_rng.random())]
        assert sleeps == pytest.approx(expected)

    @pytest.mark.parametrize("kwargs", [
        {"attempts": 0}, {"backoff": -1}, {"factor": 0.5},
        {"max_backoff": -1}, {"jitter": 2.0},
    ])
    def test_parameter_validation(self, kwargs):
        async def noop():
            return None

        async def scenario():
            await retry(noop, **kwargs)

        with pytest.raises(ConfigurationError):
            asyncio.run(scenario())


# ---------------------------------------------------------------------------
# tuner: save failures stay silent
# ---------------------------------------------------------------------------

class TestTunerSaveFault:
    def test_injected_save_failure_is_silent(self, tmp_path):
        tuner = BackendTuner(str(tmp_path / "table.json"))
        tuner.record("ata", (64, 64), np.float64, "syrk", 1.0)
        with configured(faults="tuner.save:raise@always"):
            assert tuner.save() is False  # swallowed, per the contract
        assert tuner.save() is True       # disarmed: persists normally
        assert (tmp_path / "table.json").exists()


# ---------------------------------------------------------------------------
# config plumbing for the fault spec
# ---------------------------------------------------------------------------

class TestConfigKnobs:
    def test_env_round_trip(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "tuner.save:raise@always")
        cfg = _config_from_env()
        assert cfg.faults == "tuner.save:raise@always"

    def test_bad_env_spec_fails_at_config_time(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "not a spec")
        with pytest.raises(ConfigurationError):
            _config_from_env()
