"""Optional compiled lowering of fused plan steps.

A :class:`~repro.engine.plan.FusedStep` is already a closed description of
its work: a deduplicated operand-reference table plus micro-ops indexing
into it.  This module lowers that description to straight-line Python
source (every view resolution a literal slice, every kernel expression the
:func:`~repro.engine.plan.run_step` expression verbatim) and hands the
source to a *provider* for compilation — by default :func:`numba.njit`
when numba is importable.

The lowering ladder is honest at every rung:

* **numba absent** (it is not a dependency of this project): providers
  resolve to ``None``, :func:`prepare_plan` attaches nothing, and fused
  units interpret — results are bit-identical because nothing changed.
* **compilation or typing fails**: numba's lazy ``njit`` only types a
  kernel at its first call, so failures surface inside
  :func:`verify_first_use`; the unit is marked ``"rejected"`` and
  interprets forever after.
* **kernel compiles but drifts**: the first call runs the kernel against
  *cloned* output buffers and the interpreter against the live ones, then
  compares every written buffer with :func:`numpy.array_equal`.  Any
  mismatch — one ulp is enough — rejects the kernel.  Only a kernel that
  reproduced the interpreter bit-for-bit is promoted to ``"ready"`` and
  allowed to write live buffers.

Because the emitted source is plain numpy Python, tests can exercise the
whole ladder without numba by installing an ``exec``-based provider via
:func:`_set_provider` (and a misbehaving one to prove rejection works).

State transitions on a fused unit (``cold → verify → ready | rejected``)
are monotone and idempotent-by-value: concurrent engine runs may race on
the first use of a shared cached plan, but every racer computes the same
verdict from the same kernel, and the interpreter fallback keeps each
racer's own results correct regardless of who wins.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..blas.direct import syrk_leaf
from .plan import (OP_ADD, OP_FUSED, OP_GEMM, OP_GEMM_STORE, OP_LINCOMB,
                   OP_SCALE_STORE, OP_SYRK,
                   _ARENA_P, _ARENA_Q, _BASE_A, _BASE_B, _BASE_C,
                   ExecutionPlan, FusedStep, _interpret_fused, _resolve)

__all__ = ["available", "emit_fused_source", "prepare_plan",
           "verify_first_use"]

_PREP_LOCK = threading.Lock()

#: Test hook: a callable ``provider(source, context) -> kernel | None``
#: installed via :func:`_set_provider`; ``None`` means "use numba".
_override: Optional[Callable] = None

_numba = None
_numba_checked = False


def _set_provider(provider: Optional[Callable]) -> None:
    """Install a kernel provider override (``None`` restores the default).

    The provider receives the emitted source string and the context
    namespace the source needs (``np`` plus precomputed triangle index
    arrays) and returns a callable ``kernel(a, b, c, p, q, m, alpha)`` or
    ``None`` to decline.  Tests use this to exercise compiled dispatch
    without numba — and to prove that a lying provider is rejected.
    """
    global _override
    _override = provider


def _get_numba():
    global _numba, _numba_checked
    if not _numba_checked:
        try:
            import numba  # noqa: F401 - optional, never a hard dependency
            _numba = numba
        except Exception:
            _numba = None
        _numba_checked = True
    return _numba


def available() -> bool:
    """Whether any kernel provider is reachable (override or numba)."""
    if _override is not None:
        return True
    return _get_numba() is not None


def _compile(source: str, context: dict):
    """Run the active provider; returns a kernel or ``None``."""
    if _override is not None:
        return _override(source, context)
    numba = _get_numba()
    if numba is None:
        return None
    namespace = dict(context)
    exec(compile(source, "<repro-codegen>", "exec"), namespace)
    return numba.njit(namespace["_fused_kernel"])


_BUF_NAMES = {_BASE_A: "a", _BASE_B: "b", _BASE_C: "c"}


def emit_fused_source(fused: FusedStep) -> Tuple[str, dict]:
    """Lower a fused unit to source; returns ``(source, context)``.

    The function body is the unit's micro-ops with every operand reference
    resolved through a literal slice expression and every kernel
    expression copied from :func:`~repro.engine.plan.run_step` — including
    the runtime ``alpha == 1.0`` short-circuit branches, so the compiled
    kernel and the interpreter execute the *same* floating-point
    expression tree for any alpha.  Syrk micro-ops call the interpreter's
    own leaf, :func:`~repro.blas.direct.syrk_leaf`.
    """
    lines: List[str] = ["def _fused_kernel(a, b, c, p, q, m, alpha):"]
    context: Dict[str, object] = {"np": np, "syrk_leaf": syrk_leaf}
    for i, ref in enumerate(fused.refs):
        base = ref[0]
        if base in _BUF_NAMES:
            rows, cols = ref[1]
            lines.append(
                f"    v{i} = {_BUF_NAMES[base]}"
                f"[{rows.start}:{rows.stop}, {cols.start}:{cols.stop}]")
            continue
        buf = "p" if base == _ARENA_P else "q" if base == _ARENA_Q else "m"
        expr = f"{buf}[{ref[1]}:{ref[2]}].reshape({ref[3]}, {ref[4]})"
        window = ref[5]
        if window is not None:
            wr, wc = window
            expr += f"[{wr.start}:{wr.stop}, {wc.start}:{wc.stop}]"
        lines.append(f"    v{i} = {expr}")
    tmp = 0
    for mop in fused.micro:
        code = mop[0]
        if code == OP_GEMM:
            prod = f"v{mop[1]}.T @ v{mop[2]}"
            if mop[4]:
                lines.append("    if alpha == 1.0:")
                lines.append(f"        v{mop[3]} += {prod}")
                lines.append("    else:")
                lines.append(f"        v{mop[3]} += alpha * ({prod})")
            else:
                lines.append(f"    v{mop[3]} += {prod}")
        elif code == OP_GEMM_STORE:
            prod = f"v{mop[1]}.T @ v{mop[2]}"
            if mop[4]:
                lines.append("    if alpha == 1.0:")
                lines.append(f"        v{mop[3]}[...] = {prod}")
                lines.append("    else:")
                lines.append(f"        v{mop[3]}[...] = alpha * ({prod})")
            else:
                lines.append(f"    v{mop[3]}[...] = {prod}")
        elif code == OP_SCALE_STORE:
            coef = float(mop[3])
            if mop[4]:
                tmp += 1
                lines.append(f"    _c{tmp} = {coef!r} * alpha")
                lines.append(f"    if _c{tmp} == 1.0:")
                lines.append(f"        v{mop[1]}[...] = v{mop[2]}")
                lines.append("    else:")
                lines.append(f"        v{mop[1]}[...] = _c{tmp} * v{mop[2]}")
            elif coef == 1.0:
                lines.append(f"    v{mop[1]}[...] = v{mop[2]}")
            else:
                lines.append(f"    v{mop[1]}[...] = {coef!r} * v{mop[2]}")
        elif code == OP_LINCOMB:
            terms = []
            for src, coef, use_alpha in ((mop[2], float(mop[3]), mop[4]),
                                         (mop[5], float(mop[6]), mop[7])):
                tmp += 1
                if use_alpha:
                    lines.append(f"    _c{tmp} = {coef!r} * alpha")
                    lines.append(f"    _t{tmp} = v{src} if _c{tmp} == 1.0 "
                                 f"else _c{tmp} * v{src}")
                elif coef == 1.0:
                    lines.append(f"    _t{tmp} = v{src}")
                else:
                    lines.append(f"    _t{tmp} = {coef!r} * v{src}")
                terms.append(f"_t{tmp}")
            lines.append(f"    v{mop[1]}[...] = {terms[0]} + {terms[1]}")
        elif code == OP_ADD:
            coef = float(mop[3])
            if mop[4]:
                tmp += 1
                lines.append(f"    _c{tmp} = {coef!r} * alpha")
                lines.append(f"    if _c{tmp} == 1.0:")
                lines.append(f"        v{mop[1]} += v{mop[2]}")
                lines.append("    else:")
                lines.append(f"        v{mop[1]} += _c{tmp} * v{mop[2]}")
            elif coef == 1.0:
                lines.append(f"    v{mop[1]} += v{mop[2]}")
            else:
                lines.append(f"    v{mop[1]} += {coef!r} * v{mop[2]}")
        elif code == OP_SYRK:
            lines.append(f"    syrk_leaf(v{mop[1]}, v{mop[2]}, alpha)")
        else:  # OP_ZERO
            lines.append(f"    v{mop[1]}[...] = 0")
    return "\n".join(lines) + "\n", context


def prepare_plan(plan: ExecutionPlan) -> int:
    """Attach candidate kernels to a plan's cold fused units.

    Returns how many kernels were attached (entering ``"verify"`` state —
    they still must pass the first-use bit-identity gate before touching
    live buffers).  Units the provider declines are marked ``"rejected"``
    so they are not re-attempted on every run.  Idempotent and cheap when
    the plan has already been prepared: the no-cold-units check runs
    outside the lock.
    """
    steps = plan.steps
    if all(step[0] != OP_FUSED or step[1].kernel_state != "cold"
           for step in steps):
        return 0
    attached = 0
    with _PREP_LOCK:
        for step in steps:
            if step[0] != OP_FUSED:
                continue
            fused = step[1]
            if fused.kernel_state != "cold":
                continue
            source, context = emit_fused_source(fused)
            fused.source = source
            try:
                kernel = _compile(source, context)
            except Exception:
                kernel = None
            if kernel is None:
                fused.kernel_state = "rejected"
                continue
            fused.kernel = kernel
            fused.kernel_state = "verify"
            attached += 1
    return attached


def verify_first_use(fused: FusedStep, a, b, c, p, q, m,
                     alpha: float) -> None:
    """First call of an attached kernel: gate it on bit-identity.

    The kernel runs against *clones* of every writable buffer while the
    interpreter produces this call's real result on the live buffers, so a
    wrong (or crashing — numba types lazily, so compile errors land here)
    kernel can neither corrupt results nor skip this call's work.  Exact
    agreement promotes the kernel to ``"ready"``; anything else rejects it
    permanently.

    The comparison covers exactly the regions the unit's micro-ops write.
    Under DAG-parallel execution the rest of the shared buffers is fair
    game for concurrent steps (which would dirty a whole-buffer compare
    and spuriously reject a correct kernel); the unit's own read and
    write regions are data-race-free by DAG construction, so the clone
    snapshot is a stable pre-state for them.
    """
    kernel = fused.kernel
    if kernel is None:  # racer already rejected it
        fused.kernel_state = "rejected"
        _interpret_fused(fused, a, b, c, p, q, m, alpha)
        return
    kc, kp, kq, km = (buf.copy() if buf is not None else None
                      for buf in (c, p, q, m))
    ok = True
    try:
        kernel(a, b, kc, kp, kq, km, alpha)
    except Exception:
        ok = False
    _interpret_fused(fused, a, b, c, p, q, m, alpha)
    if ok:
        written = set()
        for mop in fused.micro:
            code = mop[0]
            written.add(mop[3] if code in (OP_GEMM, OP_GEMM_STORE)
                        else mop[2] if code == OP_SYRK else mop[1])
        for i in sorted(written):
            ref = fused.refs[i]
            live = _resolve(ref, a, b, c, p, q, m)
            clone = _resolve(ref, a, b, kc, kp, kq, km)
            if not np.array_equal(live, clone):
                ok = False
                break
    if ok:
        fused.kernel_state = "ready"
    else:
        fused.kernel = None
        fused.kernel_state = "rejected"
