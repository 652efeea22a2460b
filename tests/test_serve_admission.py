"""Admission-control edge cases for :class:`repro.serve.Server`.

Four contracts from ISSUE 4:

* backpressure raises cleanly — a submit beyond ``max_inflight`` fails
  with :class:`~repro.errors.QueueFullError` without disturbing admitted
  work;
* drain completes all admitted work — ``close()`` flushes pending
  queues and returns only when every admitted request has its result;
* cancelling a waiting request never corrupts a coalesced batch — the
  cancelled request is dropped before batching, its companions' results
  stay bit-identical;
* the counters reconcile — ``submitted == completed + failed + rejected
  + cancelled`` once drained (the issue's identity with ``failed == 0``
  in failure-free scenarios).
"""

import asyncio

import numpy as np
import pytest

from repro.config import configured
from repro.engine import ExecutionEngine
from repro.errors import (
    ConfigurationError,
    DeadlineError,
    QueueFullError,
    ServerClosedError,
    ShapeError,
)
from repro.serve import Server

pytestmark = pytest.mark.timeout(120)

WAIT = 60.0


def run(coro, timeout: float = WAIT):
    async def _capped():
        return await asyncio.wait_for(coro, timeout=timeout)
    return asyncio.run(_capped())


@pytest.fixture
def rng():
    return np.random.default_rng(0xADB115)


def _reconciled(stats):
    return (stats.submitted
            == stats.completed + stats.failed + stats.rejected
            + stats.cancelled + stats.expired)


class TestBackpressure:
    def test_overflow_raises_queue_full_and_admitted_work_completes(self, rng):
        mats = [rng.standard_normal((48, 24)) for _ in range(3)]

        async def scenario():
            server = Server(ExecutionEngine(), max_inflight=2)
            waiting = [asyncio.ensure_future(server.submit(a))
                       for a in mats[:2]]
            await asyncio.sleep(0)  # let both reach their queues
            with pytest.raises(QueueFullError):
                await server.submit(mats[2])
            await server.close()  # drain flushes the pending queue
            results = await asyncio.gather(*waiting)
            return results, server.stats()

        with configured(base_case_elements=64):
            results, stats = run(scenario())
            reference = ExecutionEngine()
            for a, c in zip(mats[:2], results):
                assert np.array_equal(c, reference.matmul_ata(a))
        assert stats.submitted == 3
        assert stats.completed == 2
        assert stats.rejected == 1
        assert stats.cancelled == stats.failed == 0
        assert stats.inflight == 0
        assert _reconciled(stats)
        # the issue's identity, verbatim (failure-free scenario)
        assert stats.submitted == (stats.completed + stats.rejected
                                   + stats.cancelled)

    def test_capacity_frees_as_requests_finish(self, rng):
        a = rng.standard_normal((48, 24))

        async def scenario():
            async with Server(ExecutionEngine(), max_inflight=1) as server:
                first = await server.submit(a)   # completes: slot freed
                second = await server.submit(a)  # admitted again
                return first, second, server.stats()

        with configured(base_case_elements=64):
            first, second, stats = run(scenario())
        assert np.array_equal(first, second)
        assert stats.rejected == 0 and stats.completed == 2

    def test_rejected_requests_do_not_leak_inflight_slots(self, rng):
        a = rng.standard_normal((32, 16))

        async def scenario():
            server = Server(ExecutionEngine(), max_inflight=1)
            waiting = asyncio.ensure_future(server.submit(a))
            await asyncio.sleep(0)
            for _ in range(5):
                with pytest.raises(QueueFullError):
                    await server.submit(a)
            mid = server.stats()
            await server.close()
            await waiting
            return mid, server.stats()

        with configured(base_case_elements=64):
            mid, stats = run(scenario())
        assert mid.inflight == 1 and mid.rejected == 5
        assert stats.inflight == 0
        assert stats.submitted == 6 and stats.rejected == 5
        assert _reconciled(stats)


class TestDrain:
    def test_close_completes_all_admitted_work(self, rng):
        """Requests still pending in their queue complete on close."""
        mats = [rng.standard_normal((48, 24)) for _ in range(7)]

        async def scenario():
            server = Server(ExecutionEngine(), max_batch=16)
            waiting = [asyncio.ensure_future(server.submit(a)) for a in mats]
            await asyncio.sleep(0)
            assert server.stats().depth == len(mats)  # all parked, none run
            await server.close()
            results = await asyncio.gather(*waiting)
            return results, server.stats()

        with configured(base_case_elements=64):
            results, stats = run(scenario())
            reference = ExecutionEngine()
            for a, c in zip(mats, results):
                assert np.array_equal(c, reference.matmul_ata(a))
        assert stats.completed == len(mats)
        assert stats.depth == 0 and stats.inflight == 0
        assert _reconciled(stats)

    def test_submit_after_close_raises(self, rng):
        a = rng.standard_normal((32, 16))

        async def scenario():
            server = Server(ExecutionEngine())
            await server.close()
            with pytest.raises(ServerClosedError):
                await server.submit(a)
            return server.stats()

        stats = run(scenario())
        assert stats.submitted == 0  # a closed-server submit is not counted

    def test_close_without_drain_fails_pending_cleanly(self, rng):
        mats = [rng.standard_normal((48, 24)) for _ in range(3)]

        async def scenario():
            server = Server(ExecutionEngine())
            waiting = [asyncio.ensure_future(server.submit(a)) for a in mats]
            await asyncio.sleep(0)
            await server.close(drain=False)
            outcomes = await asyncio.gather(*waiting, return_exceptions=True)
            return outcomes, server.stats()

        with configured(base_case_elements=64):
            outcomes, stats = run(scenario())
        assert all(isinstance(o, ServerClosedError) for o in outcomes)
        assert stats.failed == 3 and stats.completed == 0
        assert stats.inflight == 0
        assert _reconciled(stats)

    def test_close_is_idempotent(self):
        async def scenario():
            server = Server(ExecutionEngine())
            await server.close()
            await server.close()

        run(scenario())

    def test_closing_and_closed_are_distinct_phases(self, rng):
        """``closing`` flips the moment close() starts (admission stops);
        ``closed`` only once the drain has settled every request."""
        a = rng.standard_normal((32, 16))

        async def scenario():
            server = Server(ExecutionEngine())
            assert not server.closing and not server.closed
            pending = asyncio.ensure_future(server.submit(a))
            await asyncio.sleep(0)
            closer = asyncio.ensure_future(server.close())
            await asyncio.sleep(0)
            # mid-drain: admission is stopped but work is still settling
            assert server.closing
            mid_drain_closed = server.closed
            with pytest.raises(ServerClosedError):
                await server.submit(a)
            await closer
            await pending
            assert server.closing and server.closed
            return mid_drain_closed

        with configured(base_case_elements=64):
            assert run(scenario()) is False


class TestCancellation:
    def test_cancelled_waiter_never_corrupts_its_batch(self, rng):
        """Cancel one of four requests parked in the same queue: the other
        three must receive exactly their own bit-identical results."""
        mats = [rng.standard_normal((48, 24)) for _ in range(4)]

        async def scenario():
            server = Server(ExecutionEngine(), max_batch=16)
            waiting = [asyncio.ensure_future(server.submit(a)) for a in mats]
            await asyncio.sleep(0)
            waiting[1].cancel()
            await asyncio.sleep(0)  # cancellation lands before the flush
            await server.close()
            survivors = await asyncio.gather(
                waiting[0], waiting[2], waiting[3])
            return survivors, server.stats()

        with configured(base_case_elements=64):
            survivors, stats = run(scenario())
            reference = ExecutionEngine()
            for a, c in zip([mats[0], mats[2], mats[3]], survivors):
                assert np.array_equal(c, reference.matmul_ata(a))
        assert stats.cancelled == 1
        assert stats.completed == 3
        # the cancelled request was dropped *before* batching: the one
        # dispatched batch carried exactly the three survivors
        assert stats.batches == 1
        assert stats.size_histogram == {3: 1}
        assert _reconciled(stats)
        assert stats.submitted == (stats.completed + stats.rejected
                                   + stats.cancelled)

    def test_cancel_after_dispatch_discards_result_only(self, rng):
        """A request cancelled while its batch is already running: the
        batch completes, companions get results, the canceller is counted
        cancelled — never completed."""
        mats = [rng.standard_normal((64, 32)) for _ in range(2)]

        async def scenario():
            server = Server(ExecutionEngine(), max_batch=2)
            waiting = [asyncio.ensure_future(server.submit(a)) for a in mats]
            await asyncio.sleep(0)  # both admitted; batch of 2 dispatched
            waiting[1].cancel()
            await server.close()
            outcomes = await asyncio.gather(*waiting, return_exceptions=True)
            return outcomes, server.stats()

        with configured(base_case_elements=64):
            outcomes, stats = run(scenario())
            reference = ExecutionEngine()
            assert not isinstance(outcomes[0], BaseException)
            assert np.array_equal(outcomes[0], reference.matmul_ata(mats[0]))
        if isinstance(outcomes[1], asyncio.CancelledError):
            assert stats.cancelled == 1 and stats.completed == 1
        else:  # the batch beat the cancellation: also a legal outcome
            assert stats.cancelled == 0 and stats.completed == 2
        assert stats.inflight == 0
        assert _reconciled(stats)


class TestFailureDelivery:
    def test_batch_failure_reaches_every_client_and_counts(self, rng):
        class ExplodingEngine(ExecutionEngine):
            detonate = True

            def run_batch(self, matrices, **kwargs):
                if self.detonate:
                    raise RuntimeError("injected batch failure")
                return super().run_batch(matrices, **kwargs)

        mats = [rng.standard_normal((48, 24)) for _ in range(3)]

        async def scenario():
            engine = ExplodingEngine()
            server = Server(engine, max_batch=4)
            outcomes = await asyncio.gather(
                *(server.submit(a) for a in mats), return_exceptions=True)
            engine.detonate = False  # the server survives a failed batch
            recovered = await server.submit(mats[0])
            await server.close()
            return outcomes, recovered, server.stats()

        with configured(base_case_elements=64):
            outcomes, recovered, stats = run(scenario())
            reference = ExecutionEngine()
            assert np.array_equal(recovered, reference.matmul_ata(mats[0]))
        assert all(isinstance(o, RuntimeError) for o in outcomes)
        assert stats.failed == 3 and stats.completed == 1
        assert stats.inflight == 0
        assert _reconciled(stats)

    def test_validation_errors_precede_admission(self, rng):
        """Malformed requests raise before counting as submitted, so they
        can never fail an innocent coalesced batch."""
        good = rng.standard_normal((32, 16))

        async def scenario():
            async with Server(ExecutionEngine()) as server:
                with pytest.raises(ShapeError):
                    await server.submit(np.zeros((3, 3, 3)))
                with pytest.raises(ShapeError):
                    await server.submit(good, "atb")  # missing B
                with pytest.raises(ShapeError):
                    await server.submit(good, "atb", np.zeros((5, 2)))
                with pytest.raises(ConfigurationError):
                    await server.submit(good, "a_t_a")
                with pytest.raises(ShapeError):
                    await server.submit(good, algo="no_such_backend")
                with pytest.raises(ShapeError):
                    # a known backend whose supports() rejects the request
                    # (blas_direct never serves float16) must also fail at
                    # submit, not inside a coalesced batch
                    await server.submit(np.zeros((8, 4), dtype=np.float16),
                                        algo="blas_direct")
                await server.submit(good)
                return server.stats()

        with configured(base_case_elements=64):
            stats = run(scenario())
        assert stats.submitted == 1 and stats.completed == 1
        assert _reconciled(stats)


class TestLoopRebindAndRetirement:
    def test_idle_rebind_after_cancelled_waiter_does_not_wedge(self, rng):
        """A dispatch scheduled on a dead loop must not suppress flushing
        after the documented idle rebind across asyncio.run calls."""
        a = rng.standard_normal((32, 16))
        with configured(base_case_elements=64):
            server = Server(ExecutionEngine())

            async def abandoned():
                waiting = asyncio.ensure_future(server.submit(a))
                await asyncio.sleep(0)  # enqueued; dispatch scheduled
                waiting.cancel()
                await asyncio.sleep(0)  # settles -> server is idle again

            asyncio.run(abandoned())

            async def second_loop():
                # must complete promptly: a stale dispatch handle is
                # cleared on rebind, so this submit schedules a fresh one
                server_result = await asyncio.wait_for(
                    server.submit(a), timeout=30)
                await server.close()
                return server_result

            result = asyncio.run(second_loop())
            reference = ExecutionEngine()
            assert np.array_equal(result, reference.matmul_ata(a))
        stats = server.stats()
        assert stats.cancelled == 1 and stats.completed == 1
        assert _reconciled(stats)

    def test_drained_queues_retire_but_stats_survive(self, rng):
        """Unbounded key diversity (per-request alphas) must not grow the
        live queue map; retired counters stay visible through stats()."""
        a = rng.standard_normal((32, 16))

        async def scenario():
            server = Server(ExecutionEngine())
            for i in range(12):
                await server.submit(a, alpha=1.0 + i)  # 12 distinct keys
            live = len(server._queues)
            await server.close()
            return live, server.stats()

        with configured(base_case_elements=64):
            live, stats = run(scenario())
        assert live <= 1  # each drained queue was retired promptly
        assert stats.completed == 12
        assert len(stats.queues) == 12  # ...but none of the accounting lost
        assert stats.batched_requests == 12
        assert _reconciled(stats)

    def test_fully_cancelled_queues_retire_too(self, rng):
        """A queue whose every waiter cancelled before flush dispatches no
        batch — it must still leave the live map when the dispatch runs."""
        a = rng.standard_normal((32, 16))

        async def scenario():
            server = Server(ExecutionEngine())
            waiting = [asyncio.ensure_future(server.submit(a, alpha=1.0 + i))
                       for i in range(6)]  # six distinct coalescing keys
            await asyncio.sleep(0)
            for task in waiting:
                task.cancel()
            await asyncio.sleep(0.05)  # the dispatch finds only husks
            live = len(server._queues)
            await server.close()
            return live, server.stats()

        with configured(base_case_elements=64):
            live, stats = run(scenario())
        assert live == 0
        assert stats.cancelled == 6 and stats.completed == 0
        assert stats.batches == 0 and stats.depth == 0
        assert _reconciled(stats)

    def test_retired_overflow_keeps_totals(self, rng, monkeypatch):
        """Beyond the retired-key bound, old per-key counters merge into
        the overflow bucket instead of vanishing."""
        import repro.serve.server as server_mod
        monkeypatch.setattr(server_mod, "_RETIRED_KEYS", 3)
        a = rng.standard_normal((32, 16))

        async def scenario():
            server = Server(ExecutionEngine())
            for i in range(8):
                await server.submit(a, alpha=1.0 + i)
            await server.close()
            return server.stats()

        with configured(base_case_elements=64):
            stats = run(scenario())
        assert stats.completed == 8
        assert stats.batched_requests == 8  # totals exact despite merging
        assert len(stats.queues) <= 3 + 1  # bound + overflow bucket
        assert sum(q.batched_requests for q in stats.queues.values()) == 8


class TestConfigKnobs:
    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            Server(ExecutionEngine(), max_batch=0)
        with pytest.raises(ConfigurationError):
            Server(ExecutionEngine(), max_inflight=0)
        with pytest.raises(ConfigurationError):
            Server(ExecutionEngine(), workers=0)

    def test_constructor_defaults(self):
        server = Server(ExecutionEngine())
        assert (server.max_batch, server.max_inflight) == (8, 256)
        assert server.fair_share == 1.0
        assert server.client_cap == server.max_inflight


# ---------------------------------------------------------------------------
# regression tests for the serving-ledger bugfix sweep (ISSUE 9)
# ---------------------------------------------------------------------------

class TestDispatchClockSampling:
    """``note_dispatch`` samples the clock per batch: a multi-batch flush
    must not charge one pre-loop timestamp to every batch."""

    def test_waits_are_sampled_per_dispatch(self):
        import time as _time
        from repro.serve.queues import BatchQueue, Request

        async def scenario():
            loop = asyncio.get_running_loop()
            queue = BatchQueue("k")

            def request():
                return Request(a=np.ones((2, 2)), b=None, op="ata",
                               algo="auto", alpha=1.0,
                               future=loop.create_future())

            for _ in range(4):
                queue.append(request())
            first = queue.note_dispatch(queue.take(2))
            _time.sleep(0.05)  # a slow earlier dispatch
            second = queue.note_dispatch(queue.take(2))
            # the second batch's requests waited through the sleep; a
            # stale pre-loop timestamp would report near-equal waits
            assert min(second) >= max(first) + 0.04
            assert queue.wait_seconds >= sum(first) + sum(second) - 1e-9
        run(scenario())

    def test_multi_batch_close_accounts_every_batchs_wait(self, rng):
        mats = [rng.standard_normal((32, 16)) for _ in range(6)]

        async def scenario():
            server = Server(ExecutionEngine(), max_batch=2)
            waiters = [asyncio.ensure_future(server.submit(a))
                       for a in mats]
            await asyncio.sleep(0)  # all queued; dispatch not yet run
            await server.close()  # one flush, three batches
            await asyncio.gather(*waiters)
            stats = server.stats()
            assert stats.batches == 3
            assert stats.batched_requests == 6
            assert _reconciled(stats)
        run(scenario())


class TestLiveCountFlushThreshold:
    """The flush threshold counts live futures, not deque husks."""

    def test_cancelled_husks_do_not_trigger_premature_flush(
            self, rng, gated_engine):
        a = rng.standard_normal((32, 16))

        async def scenario():
            server = Server(gated_engine, max_batch=2)
            holder = await gated_engine.hold(server)  # requests park
            doomed = asyncio.ensure_future(server.submit(a))
            await asyncio.sleep(0)
            doomed.cancel()
            await asyncio.sleep(0)
            # one live + one husk: len(pending) == 2 == max_batch, but
            # only one live future — the batch must NOT dispatch yet
            live = asyncio.ensure_future(server.submit(a))
            await asyncio.sleep(0.05)
            assert server.stats().batches == 0
            # the second live request reaches the threshold for real
            companion = asyncio.ensure_future(server.submit(a))
            await asyncio.sleep(0)
            gated_engine.gate.set()
            await asyncio.gather(live, companion)
            with pytest.raises(RuntimeError):
                await holder
            stats = server.stats()
            await server.close()
            assert stats.batches == 1
            assert stats.max_batch_size == 2
            assert _reconciled(stats) and stats.cancelled == 1
        run(scenario())

    def test_expiry_prunes_settled_husks_from_the_deque(
            self, rng, gated_engine):
        a = rng.standard_normal((32, 16))

        async def scenario():
            server = Server(gated_engine, max_batch=64)
            holder = await gated_engine.hold(server)  # requests park
            doomed = [asyncio.ensure_future(
                server.submit(a, timeout=0.02)) for _ in range(4)]
            await asyncio.sleep(0.1)  # all deadlines fire
            results = await asyncio.gather(*doomed,
                                           return_exceptions=True)
            assert all(isinstance(c, DeadlineError) for c in results)
            # the deadline timer's prune swept the husks out of the
            # pending deque — no dead entries stay until close
            assert server.stats().depth == 0
            gated_engine.gate.set()
            await server.close()
            with pytest.raises(RuntimeError):
                await holder
            stats = server.stats()
            assert stats.expired == 4
            assert _reconciled(stats)
        run(scenario())


class TestIdleRebindRetiresHuskQueues:
    """An idle cross-loop rebind retires drained queues instead of
    leaking them in the live map forever."""

    def test_husk_queue_is_retired_at_rebind(self, rng, gated_engine):
        a = rng.standard_normal((32, 16))
        server = Server(gated_engine, max_batch=8)

        async def first_loop():
            holder = await gated_engine.hold(server)  # requests park
            doomed = asyncio.ensure_future(server.submit(a, alpha=3.0))
            await asyncio.sleep(0)
            doomed.cancel()
            try:
                await doomed
            except asyncio.CancelledError:
                pass
            # the queue still holds the husk behind the busy worker
            assert len(server._queues) == 1
            gated_engine.gate.set()
            with pytest.raises(RuntimeError):
                await holder

        async def second_loop():
            # binding a new loop while idle must retire the old queue
            # (different alpha -> different key, so no same-key flush
            # would ever have cleaned it up)
            c = await server.submit(a, alpha=1.0)
            assert len(server._queues) <= 1  # old husk queue is gone
            assert not any("a3.0" in key for key in server._queues)
            await server.close()
            return c

        run(first_loop())
        result = run(second_loop())
        assert np.array_equal(result, server.engine.matmul_ata(a))
        stats = server.stats()
        assert stats.cancelled == 1 and stats.completed == 1
        assert _reconciled(stats)


class TestSingleFlightClose:
    """``close`` is single-flight: the first caller's drain policy wins
    and every later or concurrent caller awaits the same shutdown."""

    def test_drain_false_racing_drain_true_does_not_fail_requests(
            self, rng):
        mats = [rng.standard_normal((32, 16)) for _ in range(4)]

        async def scenario():
            server = Server(ExecutionEngine(), max_batch=64)
            waiters = [asyncio.ensure_future(server.submit(a))
                       for a in mats]
            await asyncio.sleep(0)  # queued; dispatch not yet run
            first = asyncio.ensure_future(server.close(drain=True))
            second = asyncio.ensure_future(server.close(drain=False))
            await asyncio.gather(first, second)
            # drain=True won: every request has its result, none were
            # failed by the racing drain=False caller
            results = await asyncio.gather(*waiters)
            stats = server.stats()
            for a, c in zip(mats, results):
                assert np.array_equal(c, server.engine.matmul_ata(a))
            assert stats.completed == 4 and stats.failed == 0
            assert _reconciled(stats)
        run(scenario())

    def test_first_policy_wins_when_drain_false_is_first(
            self, rng, gated_engine):
        mats = [rng.standard_normal((32, 16)) for _ in range(3)]

        async def scenario():
            server = Server(gated_engine, max_batch=64)
            holder = await gated_engine.hold(server)  # requests park
            waiters = [asyncio.ensure_future(server.submit(a))
                       for a in mats]
            await asyncio.sleep(0)
            first = asyncio.ensure_future(server.close(drain=False))
            second = asyncio.ensure_future(server.close(drain=True))
            # the holder's waiter leaves (booked cancelled), so the
            # ledger below counts only the parked requests
            holder.cancel()
            await asyncio.wait(waiters, timeout=WAIT / 2)
            gated_engine.gate.set()
            await asyncio.gather(first, second)
            results = await asyncio.gather(*waiters,
                                           return_exceptions=True)
            stats = server.stats()
            # drain=False won deterministically: pending requests were
            # failed with ServerClosedError, not half-drained
            assert all(isinstance(c, ServerClosedError) for c in results)
            assert stats.failed == 3 and stats.completed == 0
            assert _reconciled(stats)
        run(scenario())

    def test_close_is_idempotent_after_completion(self, rng):
        async def scenario():
            server = Server(ExecutionEngine())
            await server.submit(rng.standard_normal((32, 16)))
            await server.close()
            assert server.closed
            await server.close()  # later caller: a no-op, not an error
            await server.close(drain=False)
            assert server.closed
        run(scenario())

    def test_cancelled_waiter_does_not_cancel_the_shutdown(self, rng):
        mats = [rng.standard_normal((32, 16)) for _ in range(2)]

        async def scenario():
            server = Server(ExecutionEngine(), max_batch=64)
            waiters = [asyncio.ensure_future(server.submit(a))
                       for a in mats]
            await asyncio.sleep(0)
            first = asyncio.ensure_future(server.close())
            second = asyncio.ensure_future(server.close())
            await asyncio.sleep(0)
            first.cancel()  # one impatient caller bails
            await second    # the shutdown itself must still finish
            results = await asyncio.gather(*waiters)
            for a, c in zip(mats, results):
                assert np.array_equal(c, server.engine.matmul_ata(a))
            assert server.closed
        run(scenario())
