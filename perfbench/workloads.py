"""Workload definitions, seeded inputs and the result oracle.

The comment above each entry of :data:`WORKLOADS` says why the
workload exists and which layer it isolates, so a later change knows
which workload should move and which should stay flat
(``BENCHMARK.json`` carries the same reasons in one line each).  Inputs
come only from ``--seed``; the program under test sees the generated
arrays and nothing else.
"""

import dataclasses
from typing import List, Tuple

import numpy as np

#: the accuracy contract results are checked under (float64): the
#: documented rtol of the structured paths, numpy's default atol
RTOL = 1e-10
ATOL = 1e-8


@dataclasses.dataclass(frozen=True)
class Op:
    """One operation of a workload's shape set."""

    op: str                    # "ata" or "atb"
    shape: Tuple[int, ...]     # (m, n) for ata, (m, n, k) for atb
    density: float = 1.0       # < 1: the operand is CSR with this density

    @property
    def name(self) -> str:
        kind = self.op if self.density >= 1.0 else f"{self.op}_csr"
        return f"{kind}_{'x'.join(str(d) for d in self.shape)}"

    @property
    def flops(self) -> int:
        """Useful classical flops of a dense operand: ``m·n·(n+1)`` for
        AᵀA, ``2·m·n·k`` for AᵀB."""
        if self.op == "ata":
            m, n = self.shape
            return m * n * (n + 1)
        m, n, k = self.shape
        return 2 * m * n * k

    def useful_flops(self, a) -> int:
        """:attr:`flops`, except that a CSR AᵀA counts the classical
        sparse work: each row with ``r`` stored entries adds ``r·(r+1)``
        (a dense row adds ``n·(n+1)``, so dense operands agree)."""
        if self.density >= 1.0:
            return self.flops
        per_row = np.diff(a.indptr).astype(np.int64)
        return int((per_row * (per_row + 1)).sum())


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    ops: Tuple[Op, ...]
    quick_ops: Tuple[Op, ...] = ()
    #: ooc_stream only: row panels the on-disk operand streams in
    panels: int = 0

    def shape_set(self, quick: bool) -> Tuple[Op, ...]:
        return self.quick_ops if quick else self.ops


_SERVE_DENSE = (Op("ata", (64, 64)), Op("ata", (128, 128)),
                Op("ata", (192, 96)), Op("atb", (128, 128, 64)))
_SERVE_SPARSE = Op("ata", (2048, 256), density=0.01)

WORKLOADS = {
    # Plan, replay and leaf kernels do nearly all the work (60k-step
    # plans at the default base case); dispatch and serving cost almost
    # nothing.  The "fast default path" and fusion/codegen deletions
    # must move this one.
    "gram_dense": Workload(
        "gram_dense",
        (Op("ata", (1024, 1024)), Op("ata", (4096, 256)),
         Op("ata", (512, 512)), Op("atb", (1024, 512, 512))),
        quick_ops=(Op("ata", (128, 128)), Op("ata", (256, 64)),
                   Op("atb", (128, 64, 64)))),
    # Per-request overhead dominates (framing, admission, the 2 ms
    # linger, the executor hop, dispatch) while the kernel takes ~0.1 ms;
    # batches are always size 1, so demand-driven dispatch should move it.
    # One request in eight is CSR and takes the non-coalesced sparse
    # submit path, so a lifecycle refactor that helps one path and hurts
    # the other shows here.
    "serve_lone": Workload(
        "serve_lone", _SERVE_DENSE + (_SERVE_SPARSE,),
        quick_ops=_SERVE_DENSE + (Op("ata", (512, 64), density=0.02),)),
    # The only workload that runs engine/ooc.py and engine/farm.py:
    # panel scheduling, shared-memory staging, worker processes (spawned
    # per call) and the ascending fold.
    "ooc_stream": Workload(
        "ooc_stream", (Op("ata", (32768, 256)),),
        quick_ops=(Op("ata", (4096, 64)),), panels=16),
}

#: where a CSR request sits in serve_lone's request stream
SPARSE_EVERY = 8

#: worker processes of ooc_stream's panel farm
FARM_PROCS = 2


def make_operands(op: Op, rng: np.random.Generator):
    """``(a, b)`` for ``op``; ``a`` is CSR when ``op.density < 1``."""
    if op.density < 1.0:
        from scipy import sparse
        m, n = op.shape
        a = sparse.random(m, n, density=op.density, format="csr",
                          random_state=rng, data_rvs=rng.standard_normal)
        return a, None
    if op.op == "ata":
        return rng.standard_normal(op.shape), None
    m, n, k = op.shape
    return rng.standard_normal((m, n)), rng.standard_normal((m, k))


def reference(op: Op, a, b) -> np.ndarray:
    """numpy's answer: the lower triangle of AᵀA (the densified operand
    for CSR), or the full AᵀB."""
    if op.op == "ata":
        dense = a.toarray() if op.density < 1.0 else a
        return np.tril(dense.T @ dense)
    return a.T @ b


def make_cases(workload: Workload, seed: int, quick: bool,
               variants: int = 1) -> List[tuple]:
    """``variants`` independent ``(op, a, b, ref, useful flops)`` cases
    per shape, all drawn from one generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(variants):
        for op in workload.shape_set(quick):
            a, b = make_operands(op, rng)
            cases.append((op, a, b, reference(op, a, b), op.useful_flops(a)))
    return cases


def make_ooc_input(workload: Workload, seed: int, quick: bool):
    """The tall ooc_stream operand and the lower triangle of its Gram."""
    a = np.random.default_rng(seed).standard_normal(
        workload.shape_set(quick)[0].shape)
    return a, np.tril(a.T @ a)


def ooc_budget(workload: Workload, quick: bool, procs: int) -> int:
    """The farm budget that yields the workload's panel count: the
    output, one output arena per worker, one panel arena per worker."""
    m, n = workload.shape_set(quick)[0].shape
    return ((1 + procs) * n * n + procs * (m // workload.panels) * n) * 8


def matches(op: Op, got, ref: np.ndarray) -> bool:
    """The oracle: lower triangle (ata) or whole result (atb) within the
    contract."""
    if got is None or np.shape(got) != ref.shape:
        return False
    if op.op == "ata":
        got = np.tril(got)
    return bool(np.allclose(got, ref, rtol=RTOL, atol=ATOL))


class Tally:
    """Outcome counts of one measured run; ``error_rate`` is
    (failed + refused + wrong) / attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.wrong = 0

    def check(self, op: Op, got, ref) -> bool:
        self.attempted += 1
        ok = matches(op, got, ref)
        if not ok:
            self.wrong += 1
        return ok

    def error(self, refused: bool) -> None:
        self.attempted += 1
        if refused:
            self.refused += 1
        else:
            self.failed += 1

    @property
    def bad(self) -> int:
        return self.failed + self.refused + self.wrong

    @property
    def error_rate(self) -> float:
        return self.bad / self.attempted if self.attempted else 0.0

    def merge(self, other: "Tally") -> "Tally":
        for key in ("attempted", "failed", "refused", "wrong"):
            setattr(self, key, getattr(self, key) + getattr(other, key))
        return self

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "refused": self.refused, "wrong": self.wrong}

    @classmethod
    def from_dict(cls, data: dict) -> "Tally":
        tally = cls()
        for key in ("attempted", "failed", "refused", "wrong"):
            setattr(tally, key, int(data[key]))
        return tally
