"""Process environment every benchmark process starts from.

Imported (and :func:`apply` called) by each entry script *before* numpy
is imported, because BLAS reads its thread count once, at load time.
Parallelism in the benchmark then comes only from the panel farm and
the client/server split, never from a multi-threaded BLAS.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: every BLAS/OpenMP thread knob numpy and scipy may honour
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def apply(workdir: str) -> None:
    """Pin BLAS to one thread, drop inherited ``REPRO_*`` settings, keep
    temporary files and the tuner table inside ``workdir``, and make
    ``repro`` importable from the checkout's ``src``."""
    if "numpy" in sys.modules:
        raise RuntimeError("hermetic.apply() must run before numpy loads")
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    os.makedirs(workdir, exist_ok=True)
    # a persisted tuner table on the host must not steer dispatch
    os.environ["REPRO_TUNER_PATH"] = os.path.join(workdir, "tuner.json")
    os.environ["TMPDIR"] = workdir
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
