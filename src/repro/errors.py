"""Exception hierarchy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError`, so that
callers can catch library-specific failures without masking programming
errors (``TypeError``, ``KeyError``…) coming from user code.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all exceptions raised by the :mod:`repro` library."""


class ShapeError(ReproError, ValueError):
    """Raised when matrix operands have incompatible or invalid shapes."""


class DTypeError(ReproError, TypeError):
    """Raised when matrix operands have unsupported or mismatched dtypes."""


class LayoutError(ReproError, ValueError):
    """Raised when an array does not satisfy a required memory layout.

    The recursive kernels operate on views of the caller's arrays; some
    entry points require C-contiguous (row-major) storage in order for the
    quadrant views of Eq. (1) of the paper to be cheap, strided views.
    """


class WorkspaceError(ReproError, RuntimeError):
    """Raised when a pre-allocated Strassen workspace is too small.

    See Section 3.3 of the paper: ``FastStrassen`` pre-allocates the three
    scratch matrices ``M``, ``P`` and ``Q`` once; the recursion carves
    sub-views out of them.  If a caller supplies an explicitly-sized
    workspace that cannot accommodate the recursion this error is raised
    instead of silently reallocating.
    """


class SchedulerError(ReproError, RuntimeError):
    """Raised when a task tree cannot be built or assigned consistently."""


class CommunicatorError(ReproError, RuntimeError):
    """Raised by the simulated MPI layer (:mod:`repro.distributed.simmpi`).

    Typical causes: messages addressed to ranks outside the communicator,
    mismatched collective participation, or use of a communicator after it
    has been shut down.
    """


class ConfigurationError(ReproError, ValueError):
    """Raised when a configuration value is out of its legal range."""


class QueueFullError(ReproError, RuntimeError):
    """Raised by the serving front-end when admission control rejects a
    request.

    The :class:`repro.serve.Server` bounds its in-flight work (pending in a
    coalescing queue or executing); a submit beyond that bound fails
    immediately with this error instead of queueing unboundedly, so
    overload surfaces as backpressure the client can react to (retry,
    shed, route elsewhere) rather than as latency collapse.
    """


class FairnessError(QueueFullError):
    """Raised when a single client's share of the admission budget is
    exhausted.

    With ``Server(fair_share=...)`` below 1 the server bounds how much of
    ``max_inflight`` any one client id may occupy, so a flooding client
    saturates *its share*, not the whole admission window — companions
    keep being admitted.  Subclassing :class:`QueueFullError` keeps the
    client contract uniform: the error still means "back off and retry"
    (and :func:`repro.serve.retry` already retries it); it is a distinct
    type so tests and dashboards can tell per-client throttling from
    server-wide saturation.
    """


class ProtocolError(ReproError, RuntimeError):
    """Raised by the serving wire protocol on malformed or incompatible
    frames.

    Covers framing violations (oversized or truncated frames, connections
    closed mid-frame), handshake failures (missing/unsupported protocol
    version), undecodable headers and unknown frame operations — the
    errors of the *transport conversation*, as opposed to errors of the
    *request* (shape/dtype/backpressure), which are returned to the
    client as typed error frames and re-raised under their own classes.
    """


class ServerClosedError(ReproError, RuntimeError):
    """Raised when submitting to a :class:`repro.serve.Server` that is
    closing or closed.

    ``close()`` drains admitted work to completion but admits nothing new;
    requests racing the shutdown get this error rather than silently
    joining a queue that will never flush.
    """


class BudgetError(ReproError, RuntimeError):
    """Raised by the out-of-core executor when the memory budget cannot
    hold even one panel's working set.

    :class:`repro.engine.ooc.ShardedAtA` streams row panels of ``A``
    through the engine under the per-call ``budget=``; the resident set of
    one panel iteration is the ``n x n`` output ``C`` plus the panel
    bytes.  A budget below that floor cannot be met
    by any schedule, so the executor fails up front with this error —
    naming the shortfall — instead of silently overshooting the budget.
    """


class FarmError(ReproError, RuntimeError):
    """Raised when a multi-process panel farm cannot complete a run.

    :class:`repro.engine.farm.PanelFarm` fans panels out to worker
    processes over shared-memory arenas.  Worker loss is no longer fatal
    by itself: a worker that dies (killed by the OS, ``os._exit``, a
    segfaulting extension) or reports a failure is respawned and its
    panel replayed, at most ``repro.engine.farm.MAX_RETRIES`` times; with
    retries exhausted the farm degrades to finishing the remaining panels
    in-process on the same schedule.  This error is raised only when
    that last line of defence fails too — naming the panel in flight
    and carrying the underlying failure — instead of hanging the parent
    on a result that will never arrive.  Budget infeasibility keeps
    raising :class:`BudgetError`; this error is strictly about the
    process pool and its recovery path.
    """


class DeadlineError(ReproError, TimeoutError):
    """Raised when a serving request's deadline expires before its result.

    ``Server.submit(..., timeout=...)`` (default: no deadline) bounds
    how long a request may wait; a request whose deadline passes is settled with this error and
    dropped from its coalescing queue through the same dead-waiter path
    that handles cancellation, so an expired request can never poison the
    batch its companions form.  The server ledger counts these under
    ``expired``.
    """


class FaultInjected(ReproError, RuntimeError):
    """Raised by an armed fault-injection site (:mod:`repro.faults`).

    Never raised in production configurations: sites are zero-overhead
    no-ops unless a fault spec (``Config.faults`` / ``REPRO_FAULTS``)
    arms them.  Carrying a dedicated type keeps injected chaos
    distinguishable from organic failures in tests and logs.
    """


class BenchmarkError(ReproError, RuntimeError):
    """Raised by the benchmark harness when an experiment is ill-defined."""
