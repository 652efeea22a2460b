"""Ideal-cache model.

Section 3.4 of the paper analyses AtA under the *ideal cache model*: a
fully-associative cache of :math:`M` words with lines of :math:`b` words
and an optimal replacement policy.  This module provides

* :class:`CacheModel` — the ``(M, b)`` pair plus helpers used by the
  cache-oblivious base-case predicates of Algorithm 1 / Algorithm 2, and
* :class:`CacheHierarchy` — a small description of a real machine's cache
  levels, used by the performance model to translate counted memory traffic
  into modeled time, and
* :func:`default_cache_model` — the model the configured base case implies.

The *algorithms* only consume the predicates (:meth:`CacheModel.fits_ata`,
:meth:`CacheModel.fits_gemm`); everything else exists for analysis and for
the benchmark harness.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

import numpy as np

from ..config import DEFAULT_DTYPE, get_config
from ..errors import ConfigurationError

__all__ = ["CacheModel", "CacheLevel", "CacheHierarchy", "default_cache_model",
           "XEON_E5_2630V3_HIERARCHY"]


@dataclasses.dataclass(frozen=True)
class CacheModel:
    """An ideal cache of ``capacity_words`` words with ``line_words`` lines.

    The unit is *matrix elements* (words), not bytes, so the same model is
    valid for single and double precision runs — exactly as in the paper,
    whose base case compares element counts against "the cache size".
    """

    capacity_words: int
    line_words: int = 8

    def __post_init__(self) -> None:
        if self.capacity_words < 1:
            raise ConfigurationError(f"cache capacity must be positive, got {self.capacity_words}")
        if self.line_words < 1:
            raise ConfigurationError(f"cache line must be positive, got {self.line_words}")
        if self.line_words > self.capacity_words:
            raise ConfigurationError(
                f"cache line ({self.line_words}) cannot exceed capacity ({self.capacity_words})"
            )

    # -- base-case predicates (Algorithm 1 line 2, Algorithm 2 line 2) ----
    def fits_ata(self, m: int, n: int) -> bool:
        """Base case of AtA: the ``m x n`` operand fits in cache."""
        return m * n <= self.capacity_words

    def fits_gemm(self, m: int, n: int, k: int) -> bool:
        """Base case of RecursiveGEMM / Strassen: both operands fit."""
        return m * n + m * k <= self.capacity_words

    # -- analysis helpers --------------------------------------------------
    def lines_for(self, elements: int) -> int:
        """Number of cache lines needed to hold ``elements`` words."""
        return -(-elements // self.line_words)

    def scan_misses(self, elements: int) -> int:
        """Cold misses of a streaming scan over ``elements`` words."""
        return self.lines_for(elements)

    def with_capacity(self, capacity_words: int) -> "CacheModel":
        return dataclasses.replace(self, capacity_words=capacity_words)


@dataclasses.dataclass(frozen=True)
class CacheLevel:
    """One physical cache level (size in bytes, line size in bytes)."""

    name: str
    size_bytes: int
    line_bytes: int = 64
    latency_cycles: float = 4.0
    shared: bool = False

    def words(self, itemsize: int = 8) -> int:
        """Capacity expressed in elements of ``itemsize`` bytes."""
        return self.size_bytes // itemsize


@dataclasses.dataclass(frozen=True)
class CacheHierarchy:
    """An ordered list of cache levels, smallest/fastest first."""

    levels: Sequence[CacheLevel]

    def __post_init__(self) -> None:
        sizes = [lvl.size_bytes for lvl in self.levels]
        if sizes != sorted(sizes):
            raise ConfigurationError("cache levels must be ordered smallest to largest")

    def level(self, name: str) -> CacheLevel:
        for lvl in self.levels:
            if lvl.name == name:
                return lvl
        raise KeyError(name)

    @property
    def last_level(self) -> CacheLevel:
        return self.levels[-1]

    @property
    def first_level(self) -> CacheLevel:
        return self.levels[0]

    def ideal_model(self, *, level: str | None = None, itemsize: int = 8) -> CacheModel:
        """Collapse the hierarchy into a single ideal :class:`CacheModel`.

        By default the *first* (L1) level is used, mirroring the paper's
        choice of a base case small enough to live in the innermost cache.
        """
        lvl = self.level(level) if level is not None else self.first_level
        return CacheModel(capacity_words=max(1, lvl.words(itemsize)),
                          line_words=max(1, lvl.line_bytes // itemsize))

    def names(self) -> List[str]:
        return [lvl.name for lvl in self.levels]


#: Cache hierarchy of the paper's compute nodes (Intel Xeon E5-2630 v3,
#: Haswell-EP): 32 KiB L1D and 256 KiB L2 per core, 20 MiB shared L3.
XEON_E5_2630V3_HIERARCHY = CacheHierarchy(levels=(
    CacheLevel("L1", 32 * 1024, 64, latency_cycles=4.0),
    CacheLevel("L2", 256 * 1024, 64, latency_cycles=12.0),
    CacheLevel("L3", 20 * 1024 * 1024, 64, latency_cycles=38.0, shared=True),
))


def default_cache_model(dtype=None) -> CacheModel:
    """Cache model implied by the active configuration.

    The configured ``base_case_elements`` is interpreted as the ideal-cache
    capacity in words; the line size is taken from the Xeon hierarchy (64
    bytes) for the given dtype.  The default capacity is not a hardware
    cache: the recursion here is interpreted, so "fits in cache" is read
    as "the point where the BLAS leaf's efficiency saturates" (2**20
    elements, see :data:`repro.config.DEFAULT_BASE_CASE_ELEMENTS`).  The
    paper's L1 reading (4096 words) remains available through
    ``configured(base_case_elements=4096)``.
    """
    itemsize = np.dtype(dtype if dtype is not None else DEFAULT_DTYPE).itemsize
    return CacheModel(capacity_words=get_config().base_case_elements,
                      line_words=max(1, 64 // itemsize))
