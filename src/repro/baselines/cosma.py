"""COSMA-style communication-optimal distributed matrix multiplication.

The strongest distributed baseline in the paper's Fig. 6 is COSMA
(Kwasniewski et al., SC'19), a near communication-optimal algorithm for
general ``C = A^T B`` derived from the red–blue pebble game: the iteration
space ``(n, k, m)`` is cut into ``P`` near-cubic bricks, each process
computes the partial products of its brick, and partial results are reduced
along the contraction (``m``) dimension.

This module reproduces that structure on the simulated MPI layer:

* the process count is factorised into a 3-D grid ``(p_n, p_k, p_m)``
  chosen to minimise the per-process communication volume
  ``nm/(p_n p_m) + km/(p_k p_m) + nk/(p_n p_k)`` (the COSMA objective,
  evaluated exhaustively over the divisors of ``P``);
* the root ships to process ``(i, j, l)`` its block of ``A``
  (rows ``m_l``, columns ``n_i``) and of ``B`` (rows ``m_l``, columns
  ``k_j``);
* each process computes its local partial ``C_{ij}`` contribution with the
  classical kernel;
* partials are reduced over ``l`` onto the ``l = 0`` layer and gathered to
  the root.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple, Union

import numpy as np

from ..blas.kernels import validate_b, validate_matrix
from ..cache.model import CacheModel
from ..errors import ShapeError
from .mkl_like import mkl_gemm_t
from ..distributed.simmpi import CommStats, Communicator, run_spmd

__all__ = ["cosma_multiply", "cosma_grid", "CosmaStats"]


@dataclasses.dataclass
class CosmaStats:
    """Traffic statistics and grid of one COSMA-style run."""

    comm: CommStats
    grid: Tuple[int, int, int]
    processes: int

    @property
    def total_messages(self) -> int:
        return self.comm.total_messages

    @property
    def total_bytes(self) -> int:
        return self.comm.total_bytes


def cosma_grid(processes: int, n: int, k: int, m: int) -> Tuple[int, int, int]:
    """The 3-D grid ``(p_n, p_k, p_m)`` minimising per-process traffic.

    All ordered factorisations of ``processes`` into three factors are
    enumerated (``P`` is small in practice) and the one minimising the
    COSMA communication objective is returned.
    """
    if processes < 1:
        raise ShapeError(f"processes must be >= 1, got {processes}")
    best: Tuple[float, Tuple[int, int, int]] | None = None
    for p1 in range(1, processes + 1):
        if processes % p1:
            continue
        rest = processes // p1
        for p2 in range(1, rest + 1):
            if rest % p2:
                continue
            p3 = rest // p2
            cost = (n * m / (p1 * p3)) + (k * m / (p2 * p3)) + (n * k / (p1 * p2))
            if best is None or cost < best[0]:
                best = (cost, (p1, p2, p3))
    assert best is not None
    return best[1]


def _bounds(extent: int, parts: int) -> List[Tuple[int, int]]:
    base, extra = divmod(extent, parts)
    out, start = [], 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        out.append((start, start + size))
        start += size
    return out


def cosma_multiply(a: np.ndarray, b: np.ndarray, processes: int = 8,
                   alpha: float = 1.0, *,
                   cache: Optional[CacheModel] = None,
                   return_stats: bool = False,
                   timeout: float = 120.0,
                   ) -> Union[np.ndarray, Tuple[np.ndarray, CosmaStats]]:
    """Distributed ``C = alpha * A^T B`` with a COSMA-style 3-D decomposition.

    Parameters
    ----------
    a, b:
        Operands of shape ``(m, n)`` and ``(m, k)``, initially on the root.
    processes:
        Number of simulated ranks.
    """
    validate_matrix(a, "A")
    validate_b(a, b)
    m, n = a.shape
    k = b.shape[1]
    if processes < 1:
        raise ShapeError(f"processes must be >= 1, got {processes}")

    pn, pk, pm = cosma_grid(processes, n, k, m)
    n_bounds = _bounds(n, pn)
    k_bounds = _bounds(k, pk)
    m_bounds = _bounds(m, pm)
    dtype = a.dtype

    def coords(rank: int) -> Tuple[int, int, int]:
        i = rank // (pk * pm)
        j = (rank // pm) % pk
        l = rank % pm
        return i, j, l

    def rank_of(i: int, j: int, l: int) -> int:
        return i * pk * pm + j * pm + l

    def program(comm: Communicator) -> Optional[np.ndarray]:
        rank = comm.rank
        i, j, l = coords(rank)
        n_lo, n_hi = n_bounds[i]
        k_lo, k_hi = k_bounds[j]
        m_lo, m_hi = m_bounds[l]

        # --- distribution from root -----------------------------------------
        if rank == 0:
            my_blocks = None
            for dest in range(processes):
                di, dj, dl = coords(dest)
                dn = n_bounds[di]
                dk = k_bounds[dj]
                dm = m_bounds[dl]
                a_blk = np.ascontiguousarray(a[dm[0]:dm[1], dn[0]:dn[1]])
                b_blk = np.ascontiguousarray(b[dm[0]:dm[1], dk[0]:dk[1]])
                if dest == 0:
                    my_blocks = (a_blk, b_blk)
                else:
                    comm.send((a_blk, b_blk), dest, tag=1)
            a_blk, b_blk = my_blocks
        else:
            a_blk, b_blk = comm.recv(0, tag=1)

        # --- local partial product --------------------------------------------
        partial = np.zeros((n_hi - n_lo, k_hi - k_lo), dtype=dtype)
        if partial.size and a_blk.size and b_blk.size:
            mkl_gemm_t(a_blk.astype(dtype, copy=False), b_blk.astype(dtype, copy=False),
                       partial, alpha)

        # --- reduction over the contraction dimension onto layer l = 0 --------
        if l == 0:
            for other in range(1, pm):
                partial += comm.recv(rank_of(i, j, other), tag=2)
        else:
            comm.send(partial, rank_of(i, j, 0), tag=2)

        # --- gather the C blocks on the root -----------------------------------
        if rank == 0:
            result = np.zeros((n, k), dtype=dtype)
            result[n_lo:n_hi, k_lo:k_hi] = partial
            expected = pn * pk - 1
            for _ in range(expected):
                src, blk = comm.recv(tag=3)
                si, sj, _sl = coords(src)
                sn = n_bounds[si]
                sk = k_bounds[sj]
                result[sn[0]:sn[1], sk[0]:sk[1]] = blk
            return result
        if l == 0 and rank != 0:
            comm.send((rank, partial), 0, tag=3)
        return None

    results, stats = run_spmd(processes, program, timeout=timeout)
    c = results[0]
    if return_stats:
        return c, CosmaStats(comm=stats, grid=(pn, pk, pm), processes=processes)
    return c
