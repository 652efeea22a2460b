"""LRU cache of compiled execution plans.

Plans are pure functions of their key (see the plan-key contract in
:mod:`repro.engine`), so caching them is safe as long as the key captures
everything the compile walk consulted.  The two pieces of ambient state a
key cannot capture by value are handled here:

* the active :class:`repro.config.Config` — the cache snapshots a
  fingerprint of the plan-affecting fields (``base_case_elements``,
  ``max_recursion_depth``) and **invalidates the whole cache** the first
  time it observes a change, so a ``with configured(...)`` block or a
  ``set_config`` call can never serve a stale plan;
* concurrent compilation — a single lock serialises lookup/insert, which
  keeps the hit path cheap and lets worker threads share one cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Optional, Tuple

from ..config import Config, get_config
from .plan import ExecutionPlan

__all__ = ["PlanCache", "plan_config_fingerprint"]


def plan_config_fingerprint(cfg: Config) -> Tuple[int, int]:
    """The config fields a compiled plan can depend on.

    Shared with :mod:`repro.engine.tuner`: a change in these fields means
    a backend executes a structurally different plan, so both the plan
    cache and the tuner's timing table must invalidate on the same tuple.
    """
    return (cfg.base_case_elements, cfg.max_recursion_depth)


_config_fingerprint = plan_config_fingerprint


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
        Number of plans dropped because the library configuration changed.
    evictions:
        Number of plans dropped by the LRU bound.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"plan cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._plans: "OrderedDict[tuple, ExecutionPlan]" = OrderedDict()
        self._lock = threading.Lock()
        self._fingerprint: Optional[Tuple[int, int]] = None
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._plans)

    def _check_config(self) -> None:
        """Drop every plan if the plan-affecting configuration changed."""
        fingerprint = _config_fingerprint(get_config())
        if fingerprint != self._fingerprint:
            if self._fingerprint is not None and self._plans:
                self.invalidations += len(self._plans)
                self._plans.clear()
            self._fingerprint = fingerprint

    def get_or_compile(self, key: tuple,
                       factory: Callable[[], ExecutionPlan]) -> ExecutionPlan:
        """Return the cached plan for ``key``, compiling it on a miss.

        The compile itself runs *outside* the lock so one miss never blocks
        hits (or other compiles) on different keys.  Two threads racing on
        the same cold key may both compile; plans are immutable and
        identical, so the first insert wins and the duplicate is discarded.
        """
        with self._lock:
            self._check_config()
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
