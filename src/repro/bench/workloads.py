"""Workload generation and the paper's experimental configurations.

The paper evaluates on dense random matrices, square and tall, in single
and double precision (Section 5.1).  This module provides the generators
plus the exact size grids of every figure/table, together with the scaled
sizes the reproduction actually *runs* (the paper's 30K-60K matrices do not
fit in this container; the harness runs geometrically scaled versions for
measured numbers and uses the performance model for paper-scale numbers —
see DESIGN.md).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config import DEFAULT_DTYPE, get_config
from ..errors import BenchmarkError

__all__ = [
    "random_matrix",
    "random_spd_factor",
    "tall_matrix",
    "FIG3_SIZES",
    "FIG4_SIZES",
    "FIG5_MATRICES",
    "FIG5_CORES",
    "FIG6_MATRICES",
    "FIG6_PROCESSES",
    "TABLE1_SIZES",
    "MeasuredScale",
    "DEFAULT_SCALE",
]


def random_matrix(m: int, n: int, *, dtype=None, seed: Optional[int] = None,
                  distribution: str = "standard_normal") -> np.ndarray:
    """A dense random ``m x n`` matrix.

    Parameters
    ----------
    m, n:
        Shape.
    dtype:
        Element type (float64 when omitted).
    seed:
        RNG seed (configured default when omitted) — every benchmark uses
        an explicit seed so runs are reproducible.
    distribution:
        ``"standard_normal"`` (default) or ``"uniform"`` (entries in
        [0, 1), matching "generated randomly" in Section 5.1).
    """
    if m < 1 or n < 1:
        raise BenchmarkError(f"matrix dimensions must be positive, got ({m}, {n})")
    rng = np.random.default_rng(get_config().seed if seed is None else seed)
    dtype = np.dtype(dtype if dtype is not None else DEFAULT_DTYPE)
    if distribution == "standard_normal":
        data = rng.standard_normal((m, n))
    elif distribution == "uniform":
        data = rng.random((m, n))
    else:
        raise BenchmarkError(f"unknown distribution {distribution!r}")
    return data.astype(dtype, copy=False)


def tall_matrix(m: int, n: int, **kwargs) -> np.ndarray:
    """A tall random matrix (``m >> n``), the paper's rectangular workload."""
    if m < n:
        raise BenchmarkError(f"tall matrices need m >= n, got ({m}, {n})")
    return random_matrix(m, n, **kwargs)


def random_spd_factor(n: int, *, condition: float = 1e3, dtype=None,
                      seed: Optional[int] = None) -> np.ndarray:
    """A square factor whose Gram matrix has (approximately) the requested
    condition number — used by the application tests."""
    if condition < 1:
        raise BenchmarkError(f"condition number must be >= 1, got {condition}")
    a = random_matrix(n, n, dtype=dtype, seed=seed)
    u, _, vt = np.linalg.svd(a.astype(np.float64), full_matrices=False)
    s = np.geomspace(1.0, 1.0 / np.sqrt(condition), n)
    return (u * s @ vt).astype(a.dtype, copy=False)


# ---------------------------------------------------------------------------
# the paper's configuration grids
# ---------------------------------------------------------------------------

#: Fig. 3 / Fig. 4: sequential experiments on square matrices from 2.5K to
#: 25K in steps of 2.5K (double precision).
FIG3_SIZES: Tuple[int, ...] = tuple(range(2_500, 25_001, 2_500))
FIG4_SIZES: Tuple[int, ...] = FIG3_SIZES

#: Fig. 5: AtA-S vs MKL ssyrk, 16-thread setup, varying the core count.
FIG5_MATRICES: Tuple[Tuple[int, int], ...] = ((30_000, 30_000), (40_000, 40_000), (60_000, 5_000))
FIG5_CORES: Tuple[int, ...] = tuple(range(2, 17, 2))

#: Fig. 6: distributed experiments, one core per process.
FIG6_MATRICES: Tuple[Tuple[int, int], ...] = ((10_000, 10_000), (20_000, 20_000), (60_000, 5_000))
FIG6_PROCESSES: Tuple[int, ...] = (8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64)

#: Table 1: shared (16 cores) vs distributed (96 cores) on large squares.
TABLE1_SIZES: Tuple[int, ...] = (30_000, 40_000, 50_000, 60_000)


@dataclasses.dataclass(frozen=True)
class MeasuredScale:
    """How paper-scale configurations are shrunk for measured runs.

    ``divisor`` divides every matrix dimension (clamped to ``min_size``);
    ``max_processes`` caps simulated rank counts so thread-backed simulated
    MPI stays practical on the reproduction host.
    """

    divisor: int = 100
    min_size: int = 96
    max_size: int = 1_024
    max_processes: int = 32

    def size(self, paper_size: int) -> int:
        scaled = max(self.min_size, paper_size // self.divisor)
        return min(scaled, self.max_size)

    def shape(self, paper_shape: Tuple[int, int]) -> Tuple[int, int]:
        return (self.size(paper_shape[0]), self.size(paper_shape[1]))

    def processes(self, paper_processes: int) -> int:
        return max(1, min(paper_processes, self.max_processes))


#: The default scaling used by the benchmark harness.
DEFAULT_SCALE = MeasuredScale()


def scaled_sizes(paper_sizes: Sequence[int], scale: MeasuredScale = DEFAULT_SCALE) -> List[int]:
    """Scaled, de-duplicated, sorted measured sizes for a paper size grid."""
    return sorted({scale.size(s) for s in paper_sizes})
