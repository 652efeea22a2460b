"""Sparse experiments: the measured sparse-vs-densify crossover.

``engine_sparse`` sweeps operand density at a fixed shape and times the
two generic structured paths against each other on the machine actually
running the benchmark:

* ``sparse_gram`` — scipy's sparse ``A^T A`` (spgemm), whose work scales
  with ``nnz²/m``;
* ``densify`` — materialise the operand densely once, then run the
  modeled-cost dense heuristic's pick (plan cache and workspace pool
  included).

Which side wins at a given density depends on the host — BLAS quality,
cache sizes, scipy build — while ``algo="auto"`` dispatch picks by the
backends' modeled ``operand_cost``.  Each row therefore sets the
measured winner beside the heuristic's pick, so the table shows where
the model and this host disagree (recorded numbers live in
EXPERIMENTS.md).

Without scipy the experiment returns its table empty with an honest
note instead of failing — mirroring how the engine itself treats the
dependency as optional.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..cache.model import default_cache_model
from ..engine import ExecutionEngine
from ..engine.backends import candidates, choose_heuristic
from ..engine.sparse import HAVE_SCIPY, density
from .engine_bench import _best_of
from .harness import register
from .reporting import ExperimentTable

__all__ = ["engine_sparse"]


def _random_sparse(m: int, n: int, dens: float, seed: int):
    import scipy.sparse as sps
    rng = np.random.default_rng(seed)
    nnz = max(1, int(round(dens * m * n)))
    a = sps.coo_matrix(
        (rng.standard_normal(nnz),
         (rng.integers(0, m, nnz), rng.integers(0, n, nnz))),
        shape=(m, n))
    return a.tocsr()


@register("engine_sparse",
          "Sparse A^T A vs densify-and-run across a density sweep, with "
          "the modeled heuristic's pick per density",
          "Sparse & structured operands (DESIGN.md)")
def engine_sparse(densities: Optional[Sequence[float]] = None,
                  m: int = 1024, n: int = 256,
                  repeats: int = 5) -> List[ExperimentTable]:
    """Measure the sparse-vs-densify crossover on this host.

    Parameters
    ----------
    densities:
        Stored-entry fractions to sweep, descending.  The defaults span
        both sides of the crossover: near-dense operands favour
        ``densify`` (BLAS beats spgemm index juggling), genuinely
        sparse ones favour ``sparse_gram``.  At the default shape the
        modeled crossover sits near density 0.71 and the measured one
        between 0.5 and 0.75 — see EXPERIMENTS.md for the recorded
        sweep.
    m, n:
        Operand shape; ``nnz²/m`` vs dense ``mn²`` work decides the
        crossover point, so both matter.
    repeats:
        Timing repeats per cell; the fastest run is kept.
    """
    densities = list(densities if densities is not None
                     else [0.9, 0.75, 0.5, 0.25, 0.1, 0.05, 0.02, 0.01,
                           0.005])
    sweep = ExperimentTable(
        "engine_sparse",
        "seconds per A^T A at each density: sparse_gram vs densify "
        "(fastest of repeats), the measured winner and the backend "
        "algo='auto' dispatches to (the modeled heuristic's pick)",
        ["density", "stored", "nnz", "sparse_seconds", "densify_seconds",
         "densify_speedup", "winner", "heuristic", "agrees"])
    if not HAVE_SCIPY:
        sweep.add_note("scipy is not importable on this host; the sparse "
                       "backends report supports() == False and there is "
                       "nothing to measure")
        return [sweep]

    engine = ExecutionEngine()
    for dens in densities:
        a = _random_sparse(m, n, dens, seed=int(dens * 1e6) + 1)
        engine.matmul_ata(a, algo="sparse_gram")  # warm both paths
        engine.matmul_ata(a, algo="densify")
        t_sparse = _best_of(
            lambda: engine.matmul_ata(a, algo="sparse_gram"), repeats)
        t_dense = _best_of(
            lambda: engine.matmul_ata(a, algo="densify"), repeats)
        winner = "densify" if t_dense < t_sparse else "sparse_gram"
        model = default_cache_model(a.dtype)
        pick = choose_heuristic(
            "ata", a.shape, a.dtype, model,
            candidates("ata", a.shape, a.dtype, model, kind="sparse"),
            operand=a).name
        sweep.add_row(dens, density(a), int(a.nnz), t_sparse, t_dense,
                      t_sparse / t_dense if t_dense else 0.0, winner, pick,
                      pick == winner)
    sweep.add_note("density is the requested fraction; stored is nnz/(m·n) "
                   "after duplicate coordinates fold, the figure the "
                   "modeled costs read")
    sweep.add_note("the crossover density is where winner flips; dispatch "
                   "does not hard-code it — each backend's operand_cost "
                   "hook models its work from nnz and the heuristic picks "
                   "the cheaper")
    return [sweep]
