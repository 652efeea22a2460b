"""Experiment-running infrastructure shared by all figure reproductions.

Provides the timing utilities (best-of-``repeats`` wall-clock measurement
with flop counting), a small registry of experiments so the command line
interface and the pytest benchmarks can enumerate them, and the
:class:`Experiment` record tying a figure/table identifier to the callable
that regenerates it.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional

from ..blas.counters import CounterSet, counting
from ..errors import BenchmarkError
from .reporting import ExperimentTable

__all__ = ["TimedRun", "time_callable", "Experiment", "register", "registry", "run_experiment"]


@dataclasses.dataclass
class TimedRun:
    """Wall-clock and counted-work result of timing one callable."""

    seconds: float
    counters: CounterSet
    result: object = None

    @property
    def flops(self) -> int:
        return self.counters.total_flops

    @property
    def gflops_rate(self) -> float:
        return self.flops / self.seconds / 1e9 if self.seconds > 0 else 0.0


def time_callable(fn: Callable[[], object], *, repeats: int = 1,
                  warmup: int = 0) -> TimedRun:
    """Run ``fn`` ``repeats`` times and keep the fastest run.

    Flop counters are collected for the fastest run only (they are
    identical across repeats for deterministic kernels).
    """
    if repeats < 1:
        raise BenchmarkError(f"repeats must be >= 1, got {repeats}")
    for _ in range(warmup):
        fn()
    best: Optional[TimedRun] = None
    for _ in range(repeats):
        counters = CounterSet()
        start = time.perf_counter()
        with counting(counters):
            result = fn()
        elapsed = time.perf_counter() - start
        run = TimedRun(seconds=elapsed, counters=counters, result=result)
        if best is None or run.seconds < best.seconds:
            best = run
    assert best is not None
    return best


@dataclasses.dataclass
class Experiment:
    """A named, registered experiment that produces one or more tables."""

    name: str
    description: str
    paper_reference: str
    runner: Callable[..., List[ExperimentTable]]

    def run(self, **kwargs) -> List[ExperimentTable]:
        return self.runner(**kwargs)


_REGISTRY: Dict[str, Experiment] = {}


def register(name: str, description: str, paper_reference: str
             ) -> Callable[[Callable[..., List[ExperimentTable]]], Callable[..., List[ExperimentTable]]]:
    """Decorator adding an experiment function to the registry."""

    def deco(fn: Callable[..., List[ExperimentTable]]):
        _REGISTRY[name] = Experiment(name=name, description=description,
                                     paper_reference=paper_reference, runner=fn)
        return fn

    return deco


def registry() -> Dict[str, Experiment]:
    """The registered experiments, keyed by name (fig3, fig4, ... table1)."""
    # importing figures lazily avoids a circular import at package load
    from . import engine_bench, farm_bench, figures, ooc_bench, serve_bench, sparse_bench  # noqa: F401  (registration side effect)
    return dict(_REGISTRY)


def run_experiment(name: str, **kwargs) -> List[ExperimentTable]:
    """Run one registered experiment by name and return its tables."""
    experiments = registry()
    if name not in experiments:
        raise BenchmarkError(
            f"unknown experiment {name!r}; available: {sorted(experiments)}")
    return experiments[name].run(**kwargs)
