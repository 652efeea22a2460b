"""LRU cache of compiled execution plans.

Plans are pure functions of their key (see the plan-key contract in
:mod:`repro.engine`), so caching them is safe as long as the key captures
everything the compile walk consulted.  The key is complete: every config
value the walk reads (the base case through the cache model, and the
recursion-depth limit) is in it by value, so the cache never watches the
global :class:`repro.config.Config` — plans compiled under different
configurations simply live side by side.  A single lock serialises
lookup/insert, which keeps the hit path cheap and lets worker threads
share one cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Tuple

from .plan import ExecutionPlan

__all__ = ["PlanCache"]


class PlanCache:
    """A thread-safe LRU mapping of plan keys to compiled plans.

    Parameters
    ----------
    capacity:
        Maximum number of cached plans; the least recently used plan is
        evicted beyond that.

    Attributes
    ----------
    hits, misses:
        Lookup accounting (a miss triggers a compile).
    invalidations:
        Number of plans dropped by an explicit :meth:`invalidate` (which
        :meth:`repro.engine.ExecutionEngine.clear` calls).
    evictions:
        Number of plans dropped by the LRU bound.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"plan cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._plans: "OrderedDict[tuple, ExecutionPlan]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._plans)

    def get_or_compile(self, key: tuple,
                       factory: Callable[[], ExecutionPlan]) -> ExecutionPlan:
        """Return the cached plan for ``key``, compiling it on a miss.

        The compile itself runs *outside* the lock so one miss never blocks
        hits (or other compiles) on different keys.  Two threads racing on
        the same cold key may both compile; plans are immutable and
        identical, so the first insert wins and the duplicate is discarded.
        """
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                self._plans.move_to_end(key)
                return plan
            self.misses += 1
        compiled = factory()
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:  # lost the race: keep the cached instance
                return plan
            self._plans[key] = compiled
            if len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
                self.evictions += 1
            return compiled

    def snapshot(self) -> Tuple[ExecutionPlan, ...]:
        """The currently cached plans, least recently used first (a stable
        copy: safe to iterate while other threads use the cache)."""
        with self._lock:
            return tuple(self._plans.values())

    def invalidate(self) -> int:
        """Explicitly drop every cached plan; returns how many were dropped."""
        with self._lock:
            dropped = len(self._plans)
            self.invalidations += dropped
            self._plans.clear()
            return dropped

    def clear_stats(self) -> None:
        """Reset the hit/miss/invalidation/eviction counters."""
        with self._lock:
            self.hits = self.misses = self.invalidations = self.evictions = 0
