"""Pre-allocated Strassen workspace (Section 3.3 of the paper).

A naive Strassen implementation allocates fresh scratch matrices at every
recursive step for (i) the padded sums of the A-operand quadrants, (ii) the
padded sums of the B-operand quadrants and (iii) the seven intermediate
products.  The paper avoids this by having ``FastStrassen`` allocate three
matrices once —

* ``P``  of roughly ``m x n/2`` elements for A-side sums,
* ``Q``  of roughly ``m x k/2`` elements for B-side sums,
* ``M``  of roughly ``n x k/2`` elements for intermediate products —

and carving sub-views out of them as the recursion descends, for a total
extra space bounded by :math:`\\tfrac{3}{2} n^2` (Eq. 4).

This module implements that strategy as a :class:`StrassenWorkspace` made
of three stack allocators (:class:`Arena`).  The exact number of elements
needed along a recursion path is computed by :func:`workspace_requirement`
by walking the recursion's dimension sequence (the four children of a call
all have the same ceil-rounded dimensions, so a single path suffices), so
the workspace never over- or under-allocates regardless of odd sizes.

For the ablation study of Section 5.3 / Fig. 4 ("Strassen benefits from the
pre-memory-allocation strategy"), :class:`NaiveWorkspace` provides the same
interface but allocates a fresh array on every request.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Tuple

import numpy as np

from ..config import DEFAULT_DTYPE, get_config
from ..errors import WorkspaceError
from .partition import split_dim

__all__ = [
    "Arena",
    "StrassenWorkspace",
    "NaiveWorkspace",
    "workspace_requirement",
    "paper_space_bound",
]


class Arena:
    """A stack allocator over a single contiguous numpy buffer.

    Allocation returns a 2-D view carved from the buffer at the current
    offset; deallocation is strictly LIFO (enforced), which matches the
    recursion structure of Strassen exactly.
    """

    def __init__(self, capacity: int, dtype) -> None:
        self._buffer = np.zeros(int(capacity), dtype=dtype)
        self._offset = 0
        self._marks: list[int] = []

    @property
    def capacity(self) -> int:
        return self._buffer.shape[0]

    @property
    def buffer(self) -> np.ndarray:
        """The flat backing buffer (used by the plan-executing engine,
        which addresses scratch by precompiled offsets instead of going
        through the stack-allocation protocol)."""
        return self._buffer

    @property
    def in_use(self) -> int:
        return self._offset

    @property
    def high_water(self) -> int:
        return getattr(self, "_high_water", 0)

    def allocate(self, rows: int, cols: int) -> np.ndarray:
        """Reserve a ``rows x cols`` scratch view (zero-filled)."""
        need = rows * cols
        if self._offset + need > self.capacity:
            raise WorkspaceError(
                f"arena exhausted: need {need} elements at offset {self._offset} "
                f"but capacity is {self.capacity}"
            )
        view = self._buffer[self._offset:self._offset + need].reshape(rows, cols)
        view[...] = 0
        self._marks.append(self._offset)
        self._offset += need
        self._high_water = max(getattr(self, "_high_water", 0), self._offset)
        return view

    def release(self, view: np.ndarray) -> None:
        """Release the most recent allocation (must be ``view``)."""
        if not self._marks:
            raise WorkspaceError("release called on an empty arena")
        mark = self._marks.pop()
        expected = self._offset - view.size
        if mark != expected:
            # restore the mark before failing so the arena stays consistent
            self._marks.append(mark)
            raise WorkspaceError("arena releases must be LIFO")
        self._offset = mark

    def reset(self) -> None:
        """Drop all allocations (used when a workspace is reused)."""
        self._offset = 0
        self._marks.clear()


@dataclasses.dataclass(frozen=True)
class _Requirement:
    """Per-arena element requirements for a Strassen call.

    Requirements add: the plan compiler lays scratch *lanes* out back to
    back inside one workspace, so the requirement of a multi-lane plan is
    the per-arena sum of the per-lane requirements (``depth`` keeps the
    maximum).  Disjoint lane offsets are what let the DAG executor run
    steps concurrently against a single workspace without aliasing.
    """

    p_elements: int
    q_elements: int
    m_elements: int
    depth: int

    def __add__(self, other: "_Requirement") -> "_Requirement":
        if not isinstance(other, _Requirement):
            return NotImplemented
        return _Requirement(p_elements=self.p_elements + other.p_elements,
                            q_elements=self.q_elements + other.q_elements,
                            m_elements=self.m_elements + other.m_elements,
                            depth=max(self.depth, other.depth))

    @property
    def total_elements(self) -> int:
        return self.p_elements + self.q_elements + self.m_elements


def workspace_requirement(m: int, n: int, k: int,
                          is_base_case: Callable[[int, int, int], bool] | None = None,
                          ) -> _Requirement:
    """Exact arena sizes needed by ``strassen_atb`` on an ``(m, n, k)`` problem.

    Parameters
    ----------
    m, n, k:
        Problem dimensions: ``A`` is ``m x n``, ``B`` is ``m x k``.
    is_base_case:
        Predicate ``(m, n, k) -> bool`` deciding when the recursion stops.
        Defaults to the configured cache-size test
        ``m*n + m*k <= base_case_elements``.

    Notes
    -----
    Every recursive call at dimensions ``(m, n, k)`` simultaneously holds at
    most one A-side sum of shape ``(ceil(m/2), ceil(n/2))``, one B-side sum
    of shape ``(ceil(m/2), ceil(k/2))`` and one product of shape
    ``(ceil(n/2), ceil(k/2))``; its recursive children operate on those
    halved dimensions.  Summing the per-level needs down a single path gives
    the exact peak usage, because sibling products are computed sequentially
    and reuse the same storage.
    """
    if is_base_case is None:
        limit = get_config().base_case_elements
        is_base_case = lambda mm, nn, kk: mm * nn + mm * kk <= limit  # noqa: E731

    p = q = mm_total = 0
    depth = 0
    cm, cn, ck = int(m), int(n), int(k)
    while cm > 1 or cn > 1 or ck > 1:
        if is_base_case(cm, cn, ck):
            break
        m1, _ = split_dim(cm)
        n1, _ = split_dim(cn)
        k1, _ = split_dim(ck)
        p += m1 * n1
        q += m1 * k1
        mm_total += n1 * k1
        depth += 1
        cm, cn, ck = m1, n1, k1
        if depth > get_config().max_recursion_depth:
            raise WorkspaceError("workspace_requirement exceeded max recursion depth")
    return _Requirement(p_elements=p, q_elements=q, m_elements=mm_total, depth=depth)


def paper_space_bound(n: int) -> float:
    """The closed-form bound of Eq. 4 scaled by the three arenas: 3/2 n²."""
    return 1.5 * float(n) * float(n)


class StrassenWorkspace:
    """The pre-allocated ``(M, P, Q)`` scratch space of ``FastStrassen``.

    Parameters
    ----------
    m, n, k:
        Dimensions of the largest ``A^T B`` product the workspace must
        serve (``A`` is ``m x n``, ``B`` is ``m x k``).
    dtype:
        Element type of the scratch buffers (must match the operands).
    is_base_case:
        Optional override of the recursion's base-case predicate, forwarded
        to :func:`workspace_requirement` so sizing matches the recursion
        that will actually run.
    """

    reusable = True

    def __init__(self, m: int, n: int, k: int, dtype=None,
                 is_base_case: Callable[[int, int, int], bool] | None = None,
                 requirement: "_Requirement | None" = None) -> None:
        dtype = dtype if dtype is not None else DEFAULT_DTYPE
        req = requirement if requirement is not None else \
            workspace_requirement(m, n, k, is_base_case)
        self.requirement = req
        self.shape = (int(m), int(n), int(k))
        self.dtype = np.dtype(dtype)
        self._p = Arena(req.p_elements, dtype)
        self._q = Arena(req.q_elements, dtype)
        self._m = Arena(req.m_elements, dtype)

    # -- allocation API used by the Strassen recursion --------------------
    def a_sum(self, rows: int, cols: int) -> np.ndarray:
        """Scratch for a padded sum of A-operand quadrants (arena ``P``)."""
        return self._p.allocate(rows, cols)

    def b_sum(self, rows: int, cols: int) -> np.ndarray:
        """Scratch for a padded sum of B-operand quadrants (arena ``Q``)."""
        return self._q.allocate(rows, cols)

    def product(self, rows: int, cols: int) -> np.ndarray:
        """Scratch for an intermediate Strassen product (arena ``M``)."""
        return self._m.allocate(rows, cols)

    def release_a(self, view: np.ndarray) -> None:
        self._p.release(view)

    def release_b(self, view: np.ndarray) -> None:
        self._q.release(view)

    def release_product(self, view: np.ndarray) -> None:
        self._m.release(view)

    def reset(self) -> None:
        """Release everything; the workspace can then serve another call."""
        self._p.reset()
        self._q.reset()
        self._m.reset()

    # -- introspection -----------------------------------------------------
    @property
    def total_elements(self) -> int:
        """Total scratch elements owned by the three arenas."""
        return self._p.capacity + self._q.capacity + self._m.capacity

    @property
    def total_bytes(self) -> int:
        return self.total_elements * self.dtype.itemsize

    def fits(self, m: int, n: int, k: int) -> bool:
        """Whether a problem of the given dimensions can reuse this workspace."""
        req = workspace_requirement(m, n, k)
        return self.can_serve(req)

    def can_serve(self, req: _Requirement) -> bool:
        """Whether the arenas are large enough for an explicit requirement."""
        return (req.p_elements <= self._p.capacity
                and req.q_elements <= self._q.capacity
                and req.m_elements <= self._m.capacity)

    def flat_buffers(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The raw ``(P, Q, M)`` arena buffers, for offset-addressed reuse."""
        return (self._p.buffer, self._q.buffer, self._m.buffer)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"StrassenWorkspace(shape={self.shape}, dtype={self.dtype}, "
                f"elements={self.total_elements})")


class NaiveWorkspace:
    """Allocate-on-demand workspace used for the pre-allocation ablation.

    Provides the same interface as :class:`StrassenWorkspace` but every
    request creates a brand new array (and release is a no-op), mimicking
    the "great amount of memory allocated at each recursive step" of a naive
    Strassen implementation that Section 3.3 argues against.
    """

    reusable = True

    def __init__(self, dtype=None) -> None:
        self.dtype = np.dtype(dtype if dtype is not None else DEFAULT_DTYPE)
        self.allocations = 0
        self.allocated_elements = 0

    def _alloc(self, rows: int, cols: int) -> np.ndarray:
        self.allocations += 1
        self.allocated_elements += rows * cols
        return np.zeros((rows, cols), dtype=self.dtype)

    a_sum = _alloc
    b_sum = _alloc
    product = _alloc

    def release_a(self, view: np.ndarray) -> None:  # noqa: D102 - interface parity
        pass

    def release_b(self, view: np.ndarray) -> None:  # noqa: D102
        pass

    def release_product(self, view: np.ndarray) -> None:  # noqa: D102
        pass

    def reset(self) -> None:  # noqa: D102
        pass

    def fits(self, m: int, n: int, k: int) -> bool:  # noqa: D102
        return True
