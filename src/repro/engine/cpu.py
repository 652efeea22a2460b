"""Host CPU detection that respects affinity and cgroup restrictions.

``os.cpu_count()`` reports the cores *installed* in the machine, not the
cores the current process may *use*: inside a container with a cpuset, or
after ``taskset``/``sched_setaffinity``, it overreports — exactly the
environments a process farm or DAG-threaded engine runs in.  Every gate
in the engine that sizes parallelism (the DAG worker cap, the panel
farm's default worker count) therefore asks :func:`available_cpus` instead, which prefers the scheduling
affinity mask of the calling process.

``os.sched_getaffinity`` is Linux-only; elsewhere (macOS, Windows) the
helper degrades to ``os.cpu_count()``, which on those platforms is the
best available answer.
"""

from __future__ import annotations

import os

__all__ = ["available_cpus"]


def available_cpus() -> int:
    """The number of CPUs this process may actually run on (>= 1).

    ``len(os.sched_getaffinity(0))`` where the platform supports it —
    honouring cpusets, container quota masks and ``taskset`` — with
    ``os.cpu_count()`` as the portable fallback.  Never returns less
    than 1, and never raises.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1
