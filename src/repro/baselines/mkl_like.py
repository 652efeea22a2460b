"""Vendor-BLAS stand-ins ("Intel MKL" in the paper's comparisons).

The paper benchmarks AtA / FastStrassen / AtA-S against the Intel MKL
routines ``dsyrk``, ``dgemm``, ``ssyrk`` and ScaLAPACK's ``pdsyrk``.  Intel
MKL is not available in this environment, so these functions play its role:

* they perform the *classical* operation counts (no Strassen), which is the
  essential property for the comparison — MKL's advantage is a highly tuned
  constant factor, its disadvantage the ``Θ(n^3)`` exponent;
* they dispatch to the same optimised BLAS the recursive algorithms bottom
  out into (``mkl_syrk`` is one call of the bound ``?syrk``, through
  :func:`repro.blas.direct.syrk_leaf`; ``mkl_gemm_t`` is numpy's ``@``),
  so measured wall-clock comparisons on the reproduction host are
  apples-to-apples;
* they record their classical flop counts under dedicated counter
  categories (``mkl_syrk`` / ``mkl_gemm``) so the performance model can
  price them on the paper's hardware;
* the multi-threaded variants accept a ``threads`` argument used by the
  performance model's thread-scaling law (MKL-like efficiency curve that
  saturates around the physical core count, as the paper observes in
  Fig. 5).

Naming follows the BLAS convention: the ``d``/``s`` prefix picks double or
single precision and merely casts the input accordingly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..blas import counters
from ..blas.direct import syrk_leaf
from ..blas.kernels import validate_matrix
from ..errors import ShapeError

__all__ = [
    "mkl_syrk",
    "mkl_gemm_t",
    "dsyrk",
    "ssyrk",
    "dgemm",
    "sgemm",
    "mkl_thread_efficiency",
]


def mkl_syrk(a: np.ndarray, c: Optional[np.ndarray] = None, alpha: float = 1.0, *,
             lower: bool = True) -> np.ndarray:
    """Classical symmetric rank-m update ``C += alpha * A^T A`` (one triangle),
    the stand-in for MKL ``?syrk``."""
    validate_matrix(a, "A")
    m, n = a.shape
    if c is None:
        c = np.zeros((n, n), dtype=a.dtype)
    if c.shape != (n, n):
        raise ShapeError(f"C must have shape ({n}, {n}), got {c.shape}")
    if lower:
        syrk_leaf(a, c, alpha)
    else:
        idx = np.triu_indices(n)
        c[idx] += alpha * (a.T @ a)[idx]
    counters.record("mkl_syrk", flops=m * n * (n + 1), bytes=a.nbytes + c.nbytes)
    return c


def mkl_gemm_t(a: np.ndarray, b: np.ndarray, c: Optional[np.ndarray] = None,
               alpha: float = 1.0) -> np.ndarray:
    """Classical ``C += alpha * A^T B``, the stand-in for MKL ``?gemm``
    called with ``transa='T'``."""
    validate_matrix(a, "A")
    validate_matrix(b, "B")
    m, n = a.shape
    mb, k = b.shape
    if mb != m:
        raise ShapeError(f"A and B must share their first dimension, got {a.shape} and {b.shape}")
    if c is None:
        c = np.zeros((n, k), dtype=np.result_type(a, b))
    if c.shape != (n, k):
        raise ShapeError(f"C must have shape ({n}, {k}), got {c.shape}")
    c += alpha * (a.T @ b)
    counters.record("mkl_gemm", flops=2 * m * n * k,
                    bytes=a.nbytes + b.nbytes + c.nbytes)
    return c


def dsyrk(a: np.ndarray, **kwargs) -> np.ndarray:
    """Double-precision syrk (casts the input to float64 if needed)."""
    return mkl_syrk(np.asarray(a, dtype=np.float64), **kwargs)


def ssyrk(a: np.ndarray, **kwargs) -> np.ndarray:
    """Single-precision syrk (casts the input to float32 if needed)."""
    return mkl_syrk(np.asarray(a, dtype=np.float32), **kwargs)


def dgemm(a: np.ndarray, b: np.ndarray, **kwargs) -> np.ndarray:
    """Double-precision transposed gemm."""
    return mkl_gemm_t(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64), **kwargs)


def sgemm(a: np.ndarray, b: np.ndarray, **kwargs) -> np.ndarray:
    """Single-precision transposed gemm."""
    return mkl_gemm_t(np.asarray(a, dtype=np.float32), np.asarray(b, dtype=np.float32), **kwargs)


def mkl_thread_efficiency(threads: int, *, physical_cores: int = 8,
                          hyperthread_gain: float = 0.05) -> float:
    """Parallel efficiency of the MKL-like library at ``threads`` threads.

    The paper observes (Fig. 5) that multi-threaded MKL scales well up to
    the physical core count of one socket and then plateaus — with
    hyper-threading, "8 cores are enough to reach the 16-thread plateau".
    This empirical law captures that behaviour for the performance model:
    near-linear scaling up to ``physical_cores``, then only a marginal
    ``hyperthread_gain`` per extra thread.
    """
    if threads < 1:
        raise ShapeError(f"threads must be >= 1, got {threads}")
    base = min(threads, physical_cores)
    extra = max(0, threads - physical_cores)
    effective = base * (1.0 - 0.02 * (base - 1)) + extra * hyperthread_gain
    return effective / threads
