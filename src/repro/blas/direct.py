"""BLAS-direct bindings: call ``?syrk``/``?gemm`` in a real BLAS library.

numpy's ``@`` cannot compute one triangle of ``A^T A``: it forms the whole
product, and the lower-triangular update then needs a scatter through
index arrays.  This module binds the vendor routines themselves through
:mod:`ctypes`, with row-major CBLAS prototypes so C-ordered operands are
read in place.  Candidate libraries, best first: the private OpenBLAS
numpy vendors under ``numpy.libs`` (already loaded, so no second BLAS
thread pool), the one scipy vendors under ``scipy.libs`` (when scipy is
imported), then a system CBLAS found with :func:`ctypes.util.find_library`.

The vendored builds export *prefixed* symbols, and the integer ABI is a
property of each symbol, not of the file: ``scipy_cblas_dsyrk`` (LP64,
``scipy.libs``) takes C ``int`` arguments, ``scipy_cblas_dsyrk64_``
(ILP64, ``numpy.libs`` — the only BLAS when scipy is absent) takes
64-bit ones.  Each library is probed for every symbol scheme and bound
with the matching prototypes; :func:`_selftest` then vets the binding in
both precisions before it is trusted.

:func:`syrk_leaf` is the one lower-triangular ``syrk`` leaf of the whole
package: :func:`repro.blas.kernels.syrk`, the plan interpreter's
``OP_SYRK`` and :func:`direct_syrk` all call it, so they are
bit-identical to each other by construction.  The leaf
asks the bound ``?syrk`` for ``alpha * A^T A`` with ``beta = 0`` in a
scratch buffer and then adds that buffer's lower triangle into ``C``.
It never accumulates in place with ``beta = 1``: OpenBLAS blocks the
reduction (row) dimension inside the kernel, so ``kernel(C)`` and
``C + kernel(0)`` differ in the last bit once ``A`` has more than a few
hundred rows, and the process farm's bit-identity contract (see
:mod:`repro.engine.farm`) needs ``kernel(C) == C + kernel(0)`` exactly.
Without a provider, or for operands the prototypes cannot address
(dtype, negative or non-unit inner strides), the leaf evaluates the
numpy expression instead.

When no provider binds, :func:`is_available` returns ``False`` and the
``blas_direct`` execution backend (see :mod:`repro.engine.backends`)
drops out of the candidate set instead of erroring.  Only real
``float32``/``float64`` operands bind
— exactly the dtypes the paper's MKL experiments use.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import functools
import glob
import os
import sys
from typing import Iterator, Optional, Tuple

import numpy as np

from ..errors import DTypeError
from . import counters, kernels

__all__ = ["is_available", "provider", "binding", "blas_threads", "syrk_leaf",
           "direct_syrk", "direct_gemm_t", "supported_dtype"]

# CBLAS enums (row-major convention keeps our C-contiguous arrays in place)
_CBLAS_ROW_MAJOR = 101
_CBLAS_NO_TRANS = 111
_CBLAS_TRANS = 112
_CBLAS_LOWER = 122

_SUPPORTED = (np.dtype(np.float32), np.dtype(np.float64))

#: ``(prefix, suffix, integer type)`` of every CBLAS symbol scheme probed,
#: most specific first: numpy's ILP64 OpenBLAS, scipy's LP64 OpenBLAS,
#: then a plain system CBLAS.
_SCHEMES = (("scipy_cblas_", "64_", ctypes.c_int64),
            ("scipy_cblas_", "", ctypes.c_int),
            ("cblas_", "", ctypes.c_int))


def supported_dtype(dtype) -> bool:
    """Whether the BLAS-direct path handles ``dtype`` (real f4/f8 only)."""
    return np.dtype(dtype) in _SUPPORTED


class _CtypesProvider:
    """Row-major CBLAS ``?syrk``/``?gemm`` bound through :mod:`ctypes`
    under one symbol scheme (see :data:`_SCHEMES`)."""

    name = "ctypes"

    def __init__(self, lib: ctypes.CDLL, prefix: str, suffix: str,
                 int_t) -> None:
        self.binding = (lib._name, f"{prefix}dsyrk{suffix}")
        # the vendored OpenBLAS builds export their thread-count getter
        # under the same suffix as their CBLAS symbols
        self._threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}",
                                None)
        if self._threads is not None:
            self._threads.restype = ctypes.c_int
            self._threads.argtypes = []
        self._syrk = {}
        self._gemm = {}
        for dtype, char, scalar in ((np.dtype(np.float64), "d", ctypes.c_double),
                                    (np.dtype(np.float32), "s", ctypes.c_float)):
            fn = getattr(lib, f"{prefix}{char}syrk{suffix}")
            fn.restype = None
            fn.argtypes = [ctypes.c_int, ctypes.c_int, ctypes.c_int,
                           int_t, int_t, scalar, ctypes.c_void_p, int_t,
                           scalar, ctypes.c_void_p, int_t]
            self._syrk[dtype] = fn
            fn = getattr(lib, f"{prefix}{char}gemm{suffix}")
            fn.restype = None
            fn.argtypes = [ctypes.c_int, ctypes.c_int, ctypes.c_int,
                           int_t, int_t, int_t, scalar,
                           ctypes.c_void_p, int_t, ctypes.c_void_p, int_t,
                           scalar, ctypes.c_void_p, int_t]
            self._gemm[dtype] = fn

    def syrk(self, a: np.ndarray, s: np.ndarray, alpha: float,
             lda: int) -> None:
        """``low(S) = alpha * A^T A`` (``beta = 0``) for a C-contiguous
        ``n x n`` ``S``; ``lda`` is ``A``'s row stride in elements."""
        m, n = a.shape
        self._syrk[a.dtype](_CBLAS_ROW_MAJOR, _CBLAS_LOWER, _CBLAS_TRANS,
                            n, m, alpha, a.ctypes.data, lda, 0.0,
                            s.ctypes.data, n)

    def gemm_t(self, a: np.ndarray, b: np.ndarray, c: np.ndarray,
               alpha: float) -> None:
        """``C += alpha * A^T B`` on C-contiguous operands."""
        m, n = a.shape
        k = b.shape[1]
        self._gemm[a.dtype](_CBLAS_ROW_MAJOR, _CBLAS_TRANS, _CBLAS_NO_TRANS,
                            n, k, m, alpha, a.ctypes.data, n,
                            b.ctypes.data, k, 1.0, c.ctypes.data, k)


def _candidate_libraries() -> Iterator[str]:
    """Shared-library paths that may expose CBLAS symbols, best first.

    Lazy: :func:`ctypes.util.find_library` runs the compiler and linker
    in subprocesses (a hundred milliseconds or more, varying from call
    to call), so the system search runs only once no vendored build
    has bound."""
    seen = set()
    # numpy/scipy vendor private BLAS builds next to their packages
    for module in ("numpy", "scipy"):
        mod = sys.modules.get(module)
        if mod is None or not getattr(mod, "__file__", None):
            continue
        site = os.path.dirname(os.path.dirname(mod.__file__))
        for pattern in (f"{module}.libs/*openblas*", f"{module}/.libs/*openblas*",
                        f"{module}.libs/*blas*"):
            for path in sorted(glob.glob(os.path.join(site, pattern))):
                if path not in seen:
                    seen.add(path)
                    yield path
    for stem in ("openblas", "cblas", "blas", "mkl_rt"):
        found = ctypes.util.find_library(stem)
        if found and found not in seen:
            seen.add(found)
            yield found


def _selftest(active) -> bool:
    """Reject a provider whose bound symbols do not compute what we think
    they compute (e.g. an unexpected ABI): one tiny syrk and gemm checked
    against numpy, in **both** supported precisions — float32 traffic uses
    the ``ssyrk``/``sgemm`` symbols, which must be vetted independently of
    their double-precision siblings."""
    try:
        for dtype in (np.float64, np.float32):
            a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], dtype=dtype)
            s = np.zeros((2, 2), dtype=dtype)
            active.syrk(a, s, 1.0, 2)
            if not np.allclose(np.tril(s), np.tril(a.T @ a), rtol=1e-5):
                return False
            b = np.array([[1.0], [0.5], [-1.0]], dtype=dtype)
            d = np.zeros((2, 1), dtype=dtype)
            active.gemm_t(a, b, d, 2.0)
            if not np.allclose(d, 2.0 * (a.T @ b), rtol=1e-5):
                return False
        return True
    except Exception:
        return False


def _load_provider() -> Optional[_CtypesProvider]:
    for path in _candidate_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for scheme in _SCHEMES:
            try:
                candidate = _CtypesProvider(lib, *scheme)
            except AttributeError:
                continue  # this library does not export the scheme
            if _selftest(candidate):
                return candidate
    return None


_PROVIDER: Optional[_CtypesProvider] = None
_LOADED = False


def _provider() -> Optional[_CtypesProvider]:
    global _PROVIDER, _LOADED
    if not _LOADED:
        _PROVIDER = _load_provider()
        _LOADED = True
    return _PROVIDER


def is_available() -> bool:
    """Whether a BLAS-direct provider could be bound on this host."""
    return _provider() is not None


def provider() -> Optional[str]:
    """Name of the active provider (``"ctypes"``) or ``None``."""
    active = _provider()
    return active.name if active is not None else None


def binding() -> Optional[Tuple[str, str]]:
    """``(library path, double-precision syrk symbol)`` of the active
    provider, or ``None`` — e.g. ``(".../numpy.libs/libscipy_openblas64_
    -....so", "scipy_cblas_dsyrk64_")`` for numpy's ILP64 build."""
    active = _provider()
    return active.binding if active is not None else None


def blas_threads() -> Optional[int]:
    """Threads the bound OpenBLAS runs each call on, or ``None`` when no
    provider is bound or it exports no ``scipy_openblas_get_num_threads``
    getter (a system CBLAS, for example)."""
    active = _provider()
    if active is None or active._threads is None:
        return None
    return int(active._threads())


def _leading_dim(a: np.ndarray, c: np.ndarray) -> int:
    """``A``'s row stride in elements when the bound ``?syrk`` can read
    ``A`` in place (and write ``C``'s dtype), else ``0``."""
    m, n = a.shape
    if a.dtype not in _SUPPORTED or c.dtype != a.dtype or not m or not n:
        return 0
    row, col = a.strides
    itemsize = a.itemsize
    if (col != itemsize and n > 1) or row % itemsize or not a.flags.aligned:
        return 0
    lda = row // itemsize
    return lda if lda >= n else 0


@functools.lru_cache(maxsize=32)
def _small_tril_mask(n: int) -> np.ndarray:
    mask = np.tri(n, dtype=bool)
    mask.setflags(write=False)
    return mask


def _tril_mask(n: int) -> np.ndarray:
    """Lower-triangle mask of an ``n x n`` matrix.  Building one costs
    about as much as a tiny leaf's ``?syrk``, so masks up to 512 wide
    (256 KiB) are cached; beyond that the product dwarfs the build."""
    return _small_tril_mask(n) if n <= 512 else np.tri(n, dtype=bool)


def syrk_leaf(a: np.ndarray, c: np.ndarray, alpha: float) -> None:
    """``low(C) += alpha * A^T A`` — the package's single syrk leaf.

    No validation (callers validate once, or replay a validated plan);
    the strict upper triangle of ``C`` is never touched.
    """
    n = a.shape[1]
    active = _provider()
    lda = _leading_dim(a, c) if active is not None else 0
    if lda:
        s = np.empty((n, n), dtype=a.dtype)
        active.syrk(a, s, alpha, lda)
        np.add(c, s, out=c, where=_tril_mask(n))
    else:
        idx = np.tril_indices(n)
        c[idx] += alpha * (a.T @ a)[idx]


def _require(a: np.ndarray) -> None:
    if not supported_dtype(a.dtype):
        raise DTypeError(
            f"BLAS-direct kernels support float32/float64 only, got {a.dtype}")


def _dense(a: np.ndarray) -> np.ndarray:
    """The ctypes prototypes address raw memory, so operands must be
    C-contiguous; copies here are the exception (engine traffic is
    contiguous), not the rule."""
    return a if a.flags.c_contiguous else np.ascontiguousarray(a)


def direct_syrk(a: np.ndarray, c: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """Lower-triangular ``C += alpha * A^T A`` through the bound BLAS.

    :func:`repro.blas.kernels.syrk` (``lower=True``) with the provider
    required: both run :func:`syrk_leaf`, so the results are
    bit-identical.  Raises :class:`RuntimeError` when no provider is
    available — callers are expected to gate on :func:`is_available`.
    """
    if _provider() is None:
        raise RuntimeError("no BLAS-direct provider available on this host")
    kernels.validate_matrix(a, "A")
    _require(a)
    return kernels.syrk(a, c, alpha)


def direct_gemm_t(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                  alpha: float = 1.0) -> np.ndarray:
    """``C += alpha * A^T B`` through the bound BLAS (see
    :func:`repro.blas.kernels.gemm_t` for the shape contract)."""
    active = _provider()
    if active is None:
        raise RuntimeError("no BLAS-direct provider available on this host")
    c = kernels.validate_product(a, b, c)
    _require(a)
    m, n = a.shape
    k = b.shape[1]
    a, b = _dense(a), _dense(b)
    if c.flags.c_contiguous:
        active.gemm_t(a, b, c, float(alpha))
    else:
        dense = np.ascontiguousarray(c)
        active.gemm_t(a, b, dense, float(alpha))
        c[...] = dense
    itemsize = a.dtype.itemsize
    counters.record("gemm", flops=kernels.gemm_flops(m, n, k),
                    bytes=itemsize * (m * n + m * k + n * k))
    return c
