"""Per-client fairness suite for the serving layer.

The fairness policy has two halves, both under test here:

* **admission shares** — one client id may hold at most ``fair_share *
  max_inflight`` admission slots; the excess is refused with
  :class:`~repro.errors.FairnessError` (a
  :class:`~repro.errors.QueueFullError` subclass, so :func:`repro.serve.
  retry` backs off transparently), leaving headroom no flood can take;
* **round-robin drains** — :meth:`BatchQueue.take` interleaves client
  ids when filling a batch, so a companion's single request rides the
  next batch even when a chatty client queued a pile first.

The acceptance property: with one client flooding a small server, a
second client submitting politely still completes everything within its
share — proven through the per-client ledger
(:class:`repro.serve.ClientStats`), not through timing.
"""

import asyncio

import numpy as np
import pytest

from repro.config import configured
from repro.errors import ConfigurationError, FairnessError, QueueFullError
from repro.serve import Client, NetServer, Server, retry
from repro.serve.queues import BatchQueue, Request

pytestmark = pytest.mark.timeout(120)

WAIT = 60.0


def run(coro, timeout: float = WAIT):
    async def _capped():
        return await asyncio.wait_for(coro, timeout=timeout)
    return asyncio.run(_capped())


@pytest.fixture
def rng():
    return np.random.default_rng(0xFA12)


def _reconciled(stats) -> bool:
    return (stats.submitted
            == stats.completed + stats.failed + stats.rejected
            + stats.cancelled + stats.expired)


class TestAdmissionShares:
    def test_share_cap_resolves_from_config_and_kwarg(self):
        assert Server(max_inflight=10, fair_share=0.3).client_cap == 3
        assert Server(max_inflight=10).client_cap == 10  # default: off
        with configured(serve_fair_share=0.5):
            assert Server(max_inflight=10).client_cap == 5
        # a tiny share still admits one request per client
        assert Server(max_inflight=4, fair_share=0.01).client_cap == 1

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
    def test_invalid_share_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            Server(fair_share=bad)

    def test_one_client_cannot_fill_the_window(self, rng):
        """With fair_share=0.5 of 4 slots, a client's 3rd concurrent
        request raises FairnessError while the global window still has
        room — and a *different* client is admitted into that room."""
        a = rng.standard_normal((48, 24))

        async def scenario():
            server = Server(max_inflight=4, fair_share=0.5, max_batch=4)
            hog = [asyncio.ensure_future(
                server.submit(a, client="hog")) for _ in range(2)]
            await asyncio.sleep(0)  # both admitted, still queued
            with pytest.raises(FairnessError) as excinfo:
                await server.submit(a, client="hog")
            assert isinstance(excinfo.value, QueueFullError)  # retryable
            # the refused share is per client: a companion still enters
            companion = await server.submit(a, client="companion")
            await asyncio.gather(*hog)
            stats = server.stats()
            await server.close()
            assert np.array_equal(companion,
                                  server.engine.matmul_ata(a))
            assert stats.clients["hog"].rejected == 1
            assert stats.clients["hog"].completed == 2
            assert stats.clients["companion"].rejected == 0
            assert stats.clients["companion"].completed == 1
            assert _reconciled(stats)
        run(scenario())

    def test_flood_vs_companion_ledger_property(self, rng):
        """The acceptance property: a flooding client and a polite one
        share a small server; the companion completes everything, and
        every fairness refusal lands on the flooder's ledger."""
        a = rng.standard_normal((48, 24))
        floods, polite = 40, 10

        async def scenario():
            server = Server(max_inflight=8, fair_share=0.25,
                            max_batch=4)

            async def flood(i):
                try:
                    return await server.submit(a, client="flood")
                except QueueFullError:
                    return None

            async def courteous(i):
                # a well-behaved client retries its backpressure
                return await retry(
                    lambda: server.submit(a, client="polite"),
                    attempts=50, backoff=0.005)

            results = await asyncio.gather(
                *(flood(i) for i in range(floods)),
                *(courteous(i) for i in range(polite)))
            stats = server.stats()
            await server.close()
            for c in results[floods:]:
                assert np.array_equal(c, server.engine.matmul_ata(a))
            ledger = stats.clients
            assert ledger["polite"].completed == polite
            # every refusal is attributed; none leak across clients
            assert (ledger["flood"].submitted
                    == ledger["flood"].completed
                    + ledger["flood"].rejected)
            assert (ledger["polite"].submitted
                    == ledger["polite"].completed
                    + ledger["polite"].rejected)
            assert _reconciled(stats)
        run(scenario())

    def test_fairness_error_crosses_the_wire_and_retries(self, rng):
        """Wire clients pinning distinct ids get distinct shares; a
        flooding connection's FairnessError rehydrates retryable."""
        a = rng.standard_normal((48, 24))

        async def scenario():
            server = Server(max_inflight=4, fair_share=0.5,
                            max_batch=4)
            async with NetServer(server) as net:
                async with Client(port=net.port, client_id="wire-hog") as c:
                    outcomes = await asyncio.gather(
                        *(c.submit(a) for _ in range(8)),
                        return_exceptions=True)
                    refused = [e for e in outcomes
                               if isinstance(e, FairnessError)]
                    assert refused  # the flood hit its share
                    # with retry, the same flood eventually completes
                    retried = await asyncio.gather(
                        *(c.submit(a, attempts=30, backoff=0.005)
                          for _ in range(8)))
            stats = server.stats()
            await server.close()
            for c_ in retried:
                assert np.array_equal(c_, server.engine.matmul_ata(a))
            assert stats.clients["wire-hog"].rejected >= len(refused)
            assert _reconciled(stats)
        run(scenario())


class TestRoundRobinDrain:
    def _request(self, client, loop):
        future = loop.create_future()
        return Request(a=np.ones((2, 2)), b=None, op="ata", algo="auto",
                       alpha=1.0, future=future, client=client)

    def test_batch_interleaves_clients(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            queue = BatchQueue("k")
            for _ in range(6):
                queue.append(self._request("chatty", loop))
            queue.append(self._request("quiet", loop))
            batch = queue.take(4)
            # the quiet client's lone request rides this batch instead
            # of waiting out the chatty pile
            assert [r.client for r in batch].count("quiet") == 1
            assert len(batch) == 4
            # leftovers stay pending in arrival order
            assert [r.client for r in queue.pending] == ["chatty"] * 3
        run(scenario())

    def test_rotation_changes_start_client_across_batches(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            queue = BatchQueue("k")
            first_clients = []
            for _ in range(3):
                for name in ("a", "b", "c"):
                    queue.append(self._request(name, loop))
                batch = queue.take(1)
                first_clients.append(batch[0].client)
                queue.pending.clear()
            assert len(set(first_clients)) > 1  # the start rotates
        run(scenario())

    def test_single_client_take_is_exact_fifo(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            queue = BatchQueue("k")
            requests = [self._request("solo", loop) for _ in range(5)]
            for request in requests:
                queue.append(request)
            assert queue.take(3) == requests[:3]
            assert list(queue.pending) == requests[3:]
        run(scenario())

    def test_done_futures_never_join_a_batch(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            queue = BatchQueue("k")
            live = self._request("a", loop)
            dead = self._request("b", loop)
            dead.future.cancel()
            queue.append(dead)
            queue.append(live)
            assert queue.take(8) == [live]
            assert not queue.pending
        run(scenario())
