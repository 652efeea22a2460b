"""repro — reproduction of *Efficiently Parallelizable Strassen-Based
Multiplication of a Matrix by its Transpose* (Arrigoni, Maggioli, Massini,
Rodolà — ICPP 2021).

The package implements the paper's contribution and everything it depends
on:

* :func:`repro.ata` — the sequential cache-oblivious AtA algorithm
  (Algorithm 1), plus :func:`repro.fast_strassen` (the rectangular Strassen
  ``A^T B`` it uses) and :func:`repro.recursive_gemm` (Algorithm 2);
* :func:`repro.ata_shared` — AtA-S, the shared-memory parallel algorithm
  driven by the collision-free task tree of Section 4.2;
* :func:`repro.ata_distributed` — AtA-D, the distributed
  distribute–compute–retrieve algorithm of Section 4.3, running on the
  bundled simulated MPI layer;
* the baselines of Section 5 (MKL-like ``syrk``/``gemm``, ScaLAPACK-style
  ``pdsyrk``, CAPS, COSMA), the performance model that prices counted work
  on the paper's cluster, the applications the introduction motivates, and
  the benchmark harness that regenerates every figure and table;
* :mod:`repro.engine` — the plan-compiling execution engine:
  :func:`repro.matmul_ata` / :func:`repro.run_batch` serve repeated
  traffic through cached recursion plans and pooled workspaces, with
  results bit-identical to the direct calls;
* :mod:`repro.serve` — the asyncio serving front-end:
  :class:`repro.Server` coalesces concurrent clients' requests into the
  engine's batch entry points under admission control, so heavy traffic
  shares one warm plan cache and workspace pool;
* :mod:`repro.engine.ooc` — out-of-core panel sharding:
  :func:`repro.matmul_ata_ooc` / :func:`repro.run_ooc` stream inputs
  that exceed memory (memmaps, chunk iterators) through the engine as
  budget-sized row panels under a per-call ``budget=``, bit-identical
  to the in-memory engine on the same fixed panel schedule;
* :mod:`repro.engine.farm` — the multi-process panel farm:
  ``run_ooc(procs=N)`` (or :class:`repro.PanelFarm` directly) fans those
  panels out to worker processes over shared-memory arenas, folding the
  partial Grams through a fixed ascending reduction tree so the result
  is bit-identical whatever the worker count — and self-heals worker
  loss: dead workers are respawned and their panels replayed (at most
  twice each), degrading to bit-identical in-process
  completion when retries run out;
* :mod:`repro.faults` — deterministic, seeded fault injection: named
  sites across the farm, the out-of-core stream, serving and the tuner,
  armed by ``Config.faults`` / ``$REPRO_FAULTS``
  (e.g. ``farm.worker:kill@p3``) and zero-overhead no-ops otherwise.

Quickstart
----------
>>> import numpy as np, repro
>>> a = np.random.default_rng(0).standard_normal((500, 300))
>>> c = repro.ata(a)                      # lower triangle of A^T A
>>> c_full = repro.ata_full(a)            # full symmetric product
>>> c_par = repro.ata_shared(a, threads=8)
>>> c_dist = repro.ata_distributed(a, processes=8)
"""

from .config import Config, configured, get_config, set_config
from .errors import (
    BudgetError,
    CommunicatorError,
    ConfigurationError,
    DeadlineError,
    DTypeError,
    FairnessError,
    FarmError,
    FaultInjected,
    ProtocolError,
    QueueFullError,
    ReproError,
    SchedulerError,
    ServerClosedError,
    ShapeError,
    WorkspaceError,
)
from . import faults
from .core import (
    aat,
    ata,
    ata_full,
    fast_strassen,
    recursive_gemm,
    strassen_atb,
    StrassenWorkspace,
)
from .engine import (
    ChunkSource,
    ExecutionEngine,
    ExecutionPlan,
    LowRank,
    PanelFarm,
    ShardedAtA,
    available_cpus,
    default_engine,
    matmul_ata,
    matmul_ata_ooc,
    matmul_atb,
    run_batch,
    run_batch_atb,
    run_ooc,
)
from .serve import Server, retry
from .parallel import ata_shared
from .distributed import ata_distributed
from .blas import symmetrize_from_lower
from .scheduler import build_task_tree

__version__ = "1.0.0"

__all__ = [
    "Config",
    "configured",
    "get_config",
    "set_config",
    "BudgetError",
    "CommunicatorError",
    "DeadlineError",
    "FarmError",
    "FaultInjected",
    "ConfigurationError",
    "DTypeError",
    "FairnessError",
    "ProtocolError",
    "QueueFullError",
    "ReproError",
    "SchedulerError",
    "ServerClosedError",
    "ShapeError",
    "WorkspaceError",
    "aat",
    "ata",
    "ata_full",
    "fast_strassen",
    "recursive_gemm",
    "strassen_atb",
    "StrassenWorkspace",
    "ata_shared",
    "ata_distributed",
    "symmetrize_from_lower",
    "build_task_tree",
    "ExecutionEngine",
    "ExecutionPlan",
    "LowRank",
    "PanelFarm",
    "ShardedAtA",
    "ChunkSource",
    "available_cpus",
    "default_engine",
    "matmul_ata",
    "matmul_ata_ooc",
    "matmul_atb",
    "run_batch",
    "run_batch_atb",
    "run_ooc",
    "Server",
    "retry",
    "faults",
    "__version__",
]
