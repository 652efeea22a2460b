"""Shared fixtures for the test suite.

Most algorithm tests shrink the cache-oblivious base case (to 64 elements)
so the recursive code paths are exercised even on the small matrices tests
can afford; the ``small_base_case`` fixture installs and removes that
configuration around each test that requests it.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.config import configured, get_config, set_config
from repro.engine import ExecutionEngine


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG, fresh per test."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(autouse=True)
def _restore_global_config():
    """Guarantee config isolation between tests.

    ``configured()`` save/restores a process-wide global, so tests that
    deliberately race it across threads (the plan-cache config hammer)
    can leave the global pointing at a transient override —
    which then silently changes backend heuristics for every later test
    in the session.  Snapshot and restore around each test so no test
    inherits another's configuration, however it was mangled."""
    previous = get_config()
    yield
    if get_config() is not previous:
        set_config(previous)


@pytest.fixture(autouse=True)
def _fresh_fault_plans():
    """Isolate fault-injection trigger state between tests.

    Compiled fault plans are cached per ``(spec, seed)`` with their fired
    counts (deliberately: one spec = one continuous chaos schedule), so
    two tests arming the same spec would otherwise share one-shot
    triggers."""
    from repro import faults
    faults.reset()
    yield


@pytest.fixture
def small_base_case():
    """Shrink the recursion base case so small matrices still recurse."""
    with configured(base_case_elements=64) as cfg:
        yield cfg


@pytest.fixture
def tiny_base_case():
    """Shrink the base case to the minimum that still terminates quickly."""
    with configured(base_case_elements=8) as cfg:
        yield cfg


class GatedEngine(ExecutionEngine):
    """An engine whose entry points wait on :attr:`gate` — holds a
    request in execution for as long as a test needs, without sleeps.

    A server dispatches coalesced batches only to free executor workers,
    so :meth:`hold` makes a one-worker server park every later dense
    request in its queue until the test sets the gate.
    """

    def __init__(self) -> None:
        super().__init__()
        self.gate = threading.Event()
        self.gate.set()
        #: set by every entry point on arrival, before it waits
        self.entered = threading.Event()
        #: the operand :meth:`hold` submits; ``run_batch`` fails on it
        self.holder = np.zeros((2, 2))

    def _wait(self) -> None:
        self.entered.set()
        assert self.gate.wait(60), "test never opened the gate"

    def matmul_ata(self, *args, **kwargs):
        self._wait()
        return super().matmul_ata(*args, **kwargs)

    def matmul_atb(self, *args, **kwargs):
        self._wait()
        return super().matmul_atb(*args, **kwargs)

    def run_batch(self, matrices, *args, **kwargs):
        self._wait()
        if any(a is self.holder for a in matrices):
            raise RuntimeError("held worker released")
        return super().run_batch(matrices, *args, **kwargs)

    async def hold(self, server) -> "asyncio.Future":
        """Close the gate and occupy one of ``server``'s executor workers
        with a holder: a dense request, dispatched as a batch of its own,
        that blocks until the gate opens, then fails with
        :class:`RuntimeError`, so it adds no completion to the ledger.
        Returns the holder's task once the holder is blocked inside the
        engine on a worker thread.  Its one-request batch shows in the
        server's batch counters."""
        self.gate.clear()
        self.entered.clear()
        holder = asyncio.ensure_future(server.submit(self.holder))
        for _ in range(60_000):
            if self.entered.is_set():
                return holder
            await asyncio.sleep(0.001)
        raise AssertionError("the holder never reached the engine")


@pytest.fixture
def gated_engine():
    """A :class:`GatedEngine`, its gate opened at teardown so no executor
    thread stays parked after a failed test."""
    engine = GatedEngine()
    yield engine
    engine.gate.set()
    engine.close()


def random_matrix(rng: np.random.Generator, m: int, n: int, dtype=np.float64) -> np.ndarray:
    """Convenience used throughout the test modules."""
    return rng.standard_normal((m, n)).astype(dtype, copy=False)
