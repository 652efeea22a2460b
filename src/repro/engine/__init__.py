"""Plan-compiling execution engine for the AtA algorithm family.

The recursive algorithms of :mod:`repro.core` derive the *same* structure
on every invocation: for a fixed problem shape and configuration, the
quadrant partitions, cache-fit decisions, base-case kernel sequence and
workspace layout never change — only the matrix values do.  This package
amortises that derivation across calls, which is the substrate the
production-scaling roadmap (batched serving, sharding, multi-backend
dispatch) builds on:

* :mod:`repro.engine.plan` — the **plan compiler** walks a recursion once
  and emits an immutable :class:`~repro.engine.plan.ExecutionPlan`: the
  ordered base-case kernel calls with precomputed operand views and
  workspace offsets, the exact workspace requirement, and pre-aggregated
  flop/byte counter totals;
* :mod:`repro.engine.cache` — an **LRU plan cache** with hit/miss
  accounting, keyed on everything a plan depends on (so a
  :mod:`repro.config` change compiles new plans beside the old ones);
* :mod:`repro.engine.pool` — a **workspace pool** reusing
  :class:`~repro.core.workspace.StrassenWorkspace` arenas across calls
  instead of reallocating them;
* :mod:`repro.engine.dag` — the **DAG executor**: the compiler also
  derives each plan's step dependency graph (conflicting steps carry a
  forward edge; disjoint steps carry none), and
  :class:`~repro.engine.dag.DagExecutor` schedules ready steps across a
  persistent worker pool — bit-identically to the sequential replay,
  because conflicting steps (in particular accumulation chains into a
  shared output region) retire in plan order under any worker count;
* :mod:`repro.engine.backends` — the **backend registry**: every
  execution path (``syrk`` / ``ata`` / ``tiled`` / ``recursive_gemm`` /
  ``strassen`` plan backends, plus the ``blas_direct`` vendor-BLAS
  backend where bindable) is a registered
  :class:`~repro.engine.backends.Backend` with ``supports``/``cost``/
  ``run`` hooks; custom backends plug in via
  :func:`~repro.engine.backends.register_backend` and are immediately
  dispatchable by name;
* :mod:`repro.engine.ooc` — the **out-of-core executor**:
  :class:`~repro.engine.ooc.ShardedAtA` streams row panels of inputs
  that exceed memory (arrays, ``np.memmap``, chunk streams) through the
  engine under a per-call byte budget (``budget=``), accumulating ``C += A_p^T A_p`` in a
  deterministic fixed panel order, one panel resident at a time; each
  panel is an ordinary engine call, so plans and
  pooled workspaces amortise at panel granularity;
* :mod:`repro.engine.farm` — the **multi-process panel farm**:
  :class:`~repro.engine.farm.PanelFarm` fans the same panel schedule out
  to worker processes over ``multiprocessing.shared_memory`` arenas
  (``run_ooc(procs=N)``); each worker runs the
  full engine stack on its panel and the parent folds the partial Grams
  through a fixed ascending reduction tree, so the result is
  bit-identical across worker counts; the worker pool and its arenas
  stay warm between runs with the same pool key; worker sizing follows
  the affinity-aware :func:`~repro.engine.cpu.available_cpus`;
* :mod:`repro.engine.dispatch` — the **front-end**:
  :func:`~repro.engine.dispatch.matmul_ata` resolves each request
  through explicit ``algo=``, else the modeled-cost heuristic
  (:func:`~repro.engine.backends.choose_heuristic`),
  :func:`~repro.engine.dispatch.run_batch` /
  :func:`~repro.engine.dispatch.run_batch_atb` execute a homogeneous batch
  against a single compiled plan and checked-out workspace, and
  ``ExecutionEngine(workers=N)`` turns on DAG scheduling
  (``parallel="auto"|"dag"``).  Scheduling is an engine property, fixed
  at construction: no entry point takes a per-call override.

The asyncio serving layer (:mod:`repro.serve`) sits on top of this
package: a :class:`~repro.serve.Server` coalesces concurrent clients'
requests into the batch entry points so they share one warm plan cache
and workspace pool.

The plan-key contract
---------------------
A compiled plan is a pure function of its key::

    (backend, plan_kind, shape, dtype.str, cache_model.capacity_words,
     cache_model.line_words, lanes, max_recursion_depth)

The key is **complete**: it names every input of the compile walk, so
the plan cache never watches the global configuration.  It leads with
the **backend id** so two backends compiling the same plan kind
(possible for registered custom backends) can never collide.
``base_case_elements`` reaches the walk only through the cache model,
and ``max_recursion_depth`` is read once per lookup and handed to the
walk.  ``lanes`` is in the key because it changes the workspace layout
the plan's arena offsets are baked against.  It is derived from the
engine's ``workers``: sequential engines use one lane, DAG-capable
engines spread scratch over ``min(workers, 4)`` lanes.  Anything else —
matrix values, ``alpha``/``beta``, counter settings — is resolved at
execution time, so a cached plan can never go stale through it.
Executing a plan replays the exact kernel sequence of the live
recursion, making engine results bit-for-bit identical to the direct
calls — sequentially or DAG-scheduled, one request or a batch.

Quickstart
----------
>>> import numpy as np
>>> from repro.engine import matmul_ata, run_batch
>>> a = np.random.default_rng(0).standard_normal((300, 200))
>>> c = matmul_ata(a)                  # cold call: compiles + caches the plan
>>> c2 = matmul_ata(a)                 # warm call: cached plan, pooled workspace
>>> cs = run_batch([a, a, a])          # one plan, one workspace, three results
"""

from .backends import (
    Backend,
    BlasDirectBackend,
    PlanBackend,
    backend_names,
    backends_for,
    choose_heuristic,
    get_backend,
    register_backend,
    unregister_backend,
)
from .cache import PlanCache
from .cpu import available_cpus
from .dag import DagExecutor, DagRunStats
from .farm import FarmRunStats, PanelFarm
from .dispatch import (
    EngineStats,
    ExecutionEngine,
    default_engine,
    matmul_ata,
    matmul_atb,
    run_batch,
    run_batch_atb,
)
from .ooc import (
    ArraySource,
    ChunkSource,
    MemmapSource,
    OocRunStats,
    ShardedAtA,
    as_source,
    matmul_ata_ooc,
    run_ooc,
)
from .plan import (
    ExecutionPlan,
    StepDag,
    compile_plan,
    execute_plan,
    split_rows,
    PLAN_KINDS,
)
from .pool import WorkspacePool
from .sparse import (
    HAVE_SCIPY,
    SPARSE_BACKENDS,
    is_sparse,
    operand_kind,
)

__all__ = [
    "ExecutionEngine",
    "EngineStats",
    "ExecutionPlan",
    "StepDag",
    "DagExecutor",
    "DagRunStats",
    "PlanCache",
    "WorkspacePool",
    "PLAN_KINDS",
    "Backend",
    "PlanBackend",
    "BlasDirectBackend",
    "backend_names",
    "backends_for",
    "choose_heuristic",
    "get_backend",
    "register_backend",
    "unregister_backend",
    "compile_plan",
    "execute_plan",
    "split_rows",
    "default_engine",
    "matmul_ata",
    "matmul_atb",
    "run_batch",
    "run_batch_atb",
    "ShardedAtA",
    "OocRunStats",
    "ArraySource",
    "MemmapSource",
    "ChunkSource",
    "as_source",
    "matmul_ata_ooc",
    "run_ooc",
    "PanelFarm",
    "FarmRunStats",
    "available_cpus",
    "HAVE_SCIPY",
    "SPARSE_BACKENDS",
    "is_sparse",
    "operand_kind",
]
