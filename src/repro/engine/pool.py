"""Pool of reusable :class:`~repro.core.workspace.StrassenWorkspace` arenas.

``ata`` and ``fast_strassen`` allocate a fresh workspace on every call when
the caller does not supply one; under repeated traffic that allocation (and
the zero-fill of three arenas) is pure overhead.  The pool keeps released
workspaces on an idle list and hands them back to any later plan whose
exact :class:`~repro.core.workspace._Requirement` they can serve — plans
address the arenas by precompiled flat offsets, so a larger recycled
workspace is just as good as an exact-fit one.

Under mixed-shape traffic the pool is **best-fit** on both sides: an
acquisition takes the *smallest* idle workspace that can serve the plan
(leaving the large ones for the plans that actually need them), and a
release that finds the idle list full evicts the smallest idle workspace
when the released one is larger (retaining the workspaces most likely to
serve future requests, instead of repeatedly dropping a large workspace
and re-allocating it on the next large plan — which is what drives peak
memory).

The pool is thread-safe: concurrent executions each acquire a *distinct*
workspace (a workspace is never shared while checked out), which is what
makes both the engine's cross-thread use and the DAG executor's
concurrent steps safe — each DAG run owns one workspace whose lane
layout keeps concurrent steps on disjoint offsets.
"""

from __future__ import annotations

import threading
from typing import List, Optional

import numpy as np

from ..core.workspace import StrassenWorkspace, _Requirement
from .plan import ExecutionPlan

__all__ = ["WorkspacePool"]


class WorkspacePool:
    """Bounded free-list of Strassen workspaces.

    Parameters
    ----------
    max_idle:
        Maximum number of workspaces kept on the idle list; releases beyond
        that are simply dropped (garbage collected).

    Attributes
    ----------
    allocations:
        Workspaces created because no idle one could serve the request.
    reuses:
        Acquisitions served from the idle list without allocating.
    evictions:
        Smaller idle workspaces dropped to admit a larger released one.
    drops:
        Released workspaces discarded because the idle list was full of
        workspaces at least as large.
    trims:
        Idle workspaces dropped by :meth:`trim` to honour a byte budget.
    bytes_high_water:
        Largest pool footprint (idle + checked-out bytes) observed since
        construction (or the last :meth:`clear_stats`).  This is the
        number the out-of-core executor charges against its ``budget=``
        — the pool's *peak* demand, not its current state.
    """

    def __init__(self, max_idle: int = 8) -> None:
        if max_idle < 0:
            raise ValueError(f"max_idle must be >= 0, got {max_idle}")
        self.max_idle = max_idle
        self._idle: List[StrassenWorkspace] = []
        self._lock = threading.Lock()
        self.allocations = 0
        self.reuses = 0
        self.evictions = 0
        self.drops = 0
        self.trims = 0
        self.bytes_high_water = 0
        self._bytes_idle = 0
        self._bytes_in_use = 0

    @staticmethod
    def _nbytes(ws: StrassenWorkspace) -> int:
        return int(ws.total_elements) * np.dtype(ws.dtype).itemsize

    def _note_footprint_locked(self) -> None:
        footprint = self._bytes_idle + self._bytes_in_use
        if footprint > self.bytes_high_water:
            self.bytes_high_water = footprint

    def footprint(self) -> int:
        """Current pool footprint in bytes: idle workspaces plus the ones
        checked out through :meth:`acquire` and not yet released."""
        with self._lock:
            return self._bytes_idle + self._bytes_in_use

    @property
    def idle_count(self) -> int:
        return len(self._idle)

    def idle_sizes(self) -> List[int]:
        """Total elements of each idle workspace (for tests/diagnostics)."""
        with self._lock:
            return [ws.total_elements for ws in self._idle]

    def acquire(self, plan: ExecutionPlan, dtype) -> Optional[StrassenWorkspace]:
        """Check out the *smallest* idle workspace able to serve ``plan``
        (``None`` if the plan needs no scratch space)."""
        if not plan.needs_workspace:
            return None
        req: _Requirement = plan.requirement
        dtype = np.dtype(dtype)
        with self._lock:
            best = -1
            best_total = -1
            for index, ws in enumerate(self._idle):
                if ws.dtype == dtype and ws.can_serve(req):
                    total = ws.total_elements
                    if best < 0 or total < best_total:
                        best, best_total = index, total
            if best >= 0:
                self.reuses += 1
                ws = self._idle.pop(best)
                nbytes = self._nbytes(ws)
                self._bytes_idle -= nbytes
                self._bytes_in_use += nbytes
                return ws
            self.allocations += 1
        m, n, k = plan.ws_shape
        ws = StrassenWorkspace(m, n, k, dtype=dtype, requirement=req)
        with self._lock:
            self._bytes_in_use += self._nbytes(ws)
            self._note_footprint_locked()
        return ws

    def release(self, workspace: Optional[StrassenWorkspace]) -> None:
        """Return a workspace to the idle list (no-op for ``None``).

        When the idle list is full, the smallest idle workspace is evicted
        if the released one is larger; otherwise the released workspace is
        dropped.  Either way the pool retains the ``max_idle`` largest
        workspaces seen recently, which minimises future allocations (and
        hence peak memory) under mixed-shape traffic.
        """
        if workspace is None:
            return
        nbytes = self._nbytes(workspace)
        with self._lock:
            # clamp: a workspace the caller allocated directly (never
            # acquired from this pool) may be released here — it was
            # never charged to the in-use total
            self._bytes_in_use = max(0, self._bytes_in_use - nbytes)
            if len(self._idle) < self.max_idle:
                self._idle.append(workspace)
                self._bytes_idle += nbytes
                self._note_footprint_locked()
                return
            if not self._idle:  # max_idle == 0
                self.drops += 1
                return
            smallest = min(range(len(self._idle)),
                           key=lambda i: self._idle[i].total_elements)
            if self._idle[smallest].total_elements < workspace.total_elements:
                self._bytes_idle -= self._nbytes(self._idle[smallest])
                self._idle[smallest] = workspace
                self._bytes_idle += nbytes
                self._note_footprint_locked()
                self.evictions += 1
            else:
                self.drops += 1

    def trim(self, max_bytes: int) -> int:
        """Drop idle workspaces, largest first, until the *idle* footprint
        fits in ``max_bytes``; returns how many were dropped.

        Checked-out workspaces are untouched (the pool cannot reclaim
        scratch that a running plan is addressing).  The out-of-core
        executor calls this before a sharded run so pooled scratch and the
        shard-resident set share the run's ``budget=`` instead of each
        claiming the whole budget independently.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        dropped = 0
        with self._lock:
            while self._idle and self._bytes_idle > max_bytes:
                largest = max(range(len(self._idle)),
                              key=lambda i: self._idle[i].total_elements)
                self._bytes_idle -= self._nbytes(self._idle[largest])
                self._idle.pop(largest)
                dropped += 1
            self.trims += dropped
        return dropped

    def clear(self) -> int:
        """Drop all idle workspaces; returns how many were dropped."""
        with self._lock:
            dropped = len(self._idle)
            self._idle.clear()
            self._bytes_idle = 0
            return dropped

    def clear_stats(self) -> None:
        """Reset the counters; the byte high-water restarts from the
        current footprint (not zero — the pool may still hold memory)."""
        with self._lock:
            self.allocations = self.reuses = self.evictions = self.drops = 0
            self.trims = 0
            self.bytes_high_water = self._bytes_idle + self._bytes_in_use
