"""Measured per-shape backend auto-tuning with a persisted timing table.

The modeled heuristics in :mod:`repro.engine.backends` encode what *should*
be fastest; this module records what *is*.  A :class:`BackendTuner` keeps a
timing table keyed by ``(operation, dtype, shape bucket, cache model)``
whose entries accumulate per-backend sample counts and best/total measured
seconds, fed by the engine's own executions (never by synthetic probes):

* **explore** — while any candidate backend has fewer than
  ``explore_budget`` samples in a bucket, :meth:`choose` returns the least
  -sampled one, round-robining the real traffic across candidates;
* **exploit** — once every candidate has met the budget, :meth:`choose`
  returns the backend with the best measured time for the bucket.

Shapes are bucketed by rounding every dimension up to the next power of
two: timings generalise within a bucket (the recursion structure and
kernel sizes are similar) while the table stays small.  Two deliberate
coarsenings follow from that design: distinct shapes inside one bucket
share samples (their costs differ by at most the bucket ratio), and an
explore sample on a cold plan key includes the one-off plan compile —
``best = min(samples)`` absorbs both as long as the budget is ≥ 2,
which is why the default budget is 3.

The table cell additionally keys on the cache model (it is part of the
plan key — a different model compiles a structurally different plan) and
on the engine's scheduling signature (worker/lane count): a DAG-parallel
engine and a sequential engine measure genuinely different executions
and therefore explore separate cells even when sharing one table.  The
cache model carries the configured base case by value, so the cell key
is a complete description of what was timed: the tuner never watches the
global configuration, and cells measured under different base cases live
side by side in one flat table.

Persistence: the JSON file (default ``~/.cache/repro/tuner.json``,
overridable via ``Config.tuner_path`` / ``$REPRO_TUNER_PATH``) is
``{"version": 3, "cells": {cell key: {backend: cell}}}``.  A missing
file, a corrupt/truncated file or a file of another version all degrade
to fresh exploration — never an exception — and the next save replaces
an unreadable file.  Saves **merge** rather than replace: under an
advisory file lock (``fcntl``/``msvcrt``, degrading to lockless
atomicity where neither exists) each cell's samples recorded since the
last successful save are *added* to the cell on disk (``count`` and
``total`` accumulate, ``best`` takes the minimum), so engines in
concurrent processes sharing one table union their measurements instead
of last-writer-winning the whole table.  The merged payload is staged in
a temp file and published with ``os.replace``, so a reader can never
observe a half-written file.

Determinism for tests: the ``timer`` callable is injectable, so CI times
backends with a deterministic fake clock instead of the wall clock.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time as _time
from typing import Dict, Iterator, Optional, Sequence, Tuple

try:  # POSIX advisory locks
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]
try:  # Windows advisory locks
    import msvcrt
except ImportError:  # pragma: no cover - non-Windows platform
    msvcrt = None  # type: ignore[assignment]

import numpy as np

from .. import faults
from ..cache.model import CacheModel, default_cache_model
from ..config import get_config
from ..errors import ConfigurationError

__all__ = ["BackendTuner", "shape_bucket", "default_tuner_path",
           "TABLE_VERSION"]

TABLE_VERSION = 3


def default_tuner_path() -> str:
    """Resolve the tuner table path: ``Config.tuner_path`` (which
    ``$REPRO_TUNER_PATH`` sets) if set, else ``~/.cache/repro/tuner.json``."""
    configured = get_config().tuner_path
    if configured:
        return os.fspath(configured)
    return os.path.join(os.path.expanduser("~"), ".cache", "repro",
                        "tuner.json")


def shape_bucket(shape: Sequence[int]) -> Tuple[int, ...]:
    """Round every dimension up to the next power of two (minimum 1)."""
    return tuple(1 << max(0, int(dim) - 1).bit_length() for dim in shape)


def _bucket_key(op: str, dtype, bucket: Tuple[int, ...],
                model: Optional[CacheModel],
                sched: Optional[str] = None,
                density: Optional[str] = None) -> str:
    """Table key for one cell.

    The cache model is part of the key because it is part of the plan key:
    the same backend executes a structurally different plan under a
    different model, so timings must not cross-pollinate.  ``None``
    resolves to the configured default model for ``dtype`` — the model
    engine traffic uses when the caller passes no explicit ``cache=``.
    ``sched`` is the engine's scheduling signature (``None`` = sequential
    execution): a DAG-parallel engine's timings describe different
    executions than a sequential engine's, so they get their own cells.
    ``density`` is the structured-operand density bucket
    (:func:`repro.engine.sparse.density_bucket`): the sparse-vs-densify
    crossover depends on density, so a 0.5%-dense operand's timings must
    not pollute a 50%-dense one's.  It is appended only when present, so
    every dense key — and every table written before structured operands
    existed — stays byte-identical.
    """
    if model is None:
        model = default_cache_model(dtype)
    key = (f"{op}|{np.dtype(dtype).str}|{'x'.join(map(str, bucket))}"
           f"|{model.capacity_words}c{model.line_words}|{sched or 'seq'}")
    if density is not None:
        key += f"|{density}"
    return key


#: the timing table: ``{cell key: {backend: {count,total,best}}}``
Table = Dict[str, Dict[str, Dict[str, float]]]

#: a cell with no samples — the identity of the merge
_ZERO_CELL = {"count": 0, "total": 0.0, "best": float("inf")}


@contextlib.contextmanager
def _table_lock(path: str, *, unlink: bool = True) -> Iterator[None]:
    """Advisory exclusive lock around a read-merge-write of the table file.

    Locks a ``<path>.lock`` sidecar (never the table itself — the table
    is published by ``os.replace``, so locking its inode would be racy)
    via ``fcntl.flock`` on POSIX or ``msvcrt.locking`` on Windows.  Where
    neither is available, or the lock file cannot be created, degrades to
    running unlocked: saves stay atomic and readers still never see a
    torn file, concurrent *merges* may merely lose the race.

    With ``unlink=True`` (the default on POSIX) the sidecar is removed
    on release, *while the lock is still held*, so a save never leaves a
    stray ``.lock`` file behind.  That makes acquisition subtle: a
    waiter blocked in ``flock`` on the old inode wakes holding a lock on
    an **anonymous** file, while a third process may already have locked
    a fresh sidecar at the same path — so after every acquisition the
    fd's inode is revalidated against the path and the open is retried
    on mismatch.  Windows keeps the sidecar (an open locked file cannot
    be unlinked there); unlink failures are swallowed like every other
    persistence error (the ``tuner.lock`` chaos site injects them).
    """
    lock_path = path + ".lock"
    handle = None
    try:
        try:
            while True:
                handle = open(lock_path, "a+")
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
                    try:
                        fresh = (os.fstat(handle.fileno()).st_ino
                                 == os.stat(lock_path).st_ino)
                    except OSError:
                        fresh = False  # sidecar unlinked while we waited
                    if fresh:
                        break
                    handle.close()
                    handle = None
                else:
                    if msvcrt is not None:  # pragma: no cover - Windows
                        handle.seek(0)
                        msvcrt.locking(handle.fileno(), msvcrt.LK_LOCK, 1)
                    unlink = False  # held sidecars are not removable
                    break
        except OSError:
            if handle is not None:
                handle.close()
            handle = None  # lockless fallback
        yield
    finally:
        if handle is not None:
            if unlink:
                try:
                    # chaos site: an injected unlink failure must stay as
                    # silent as a real one — hygiene never fails a save
                    faults.maybe("tuner.lock")
                    os.unlink(lock_path)
                except Exception:
                    pass
            try:
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
                elif msvcrt is not None:  # pragma: no cover - Windows only
                    handle.seek(0)
                    msvcrt.locking(handle.fileno(), msvcrt.LK_UNLCK, 1)
            except OSError:  # pragma: no cover - unlock is best-effort
                pass
            handle.close()


def _copy_table(table: Table) -> Table:
    return {key: {name: dict(cell) for name, cell in entry.items()}
            for key, entry in table.items()}


def _read_cells(payload) -> Table:
    """The timing table of a parsed payload, coerced to the canonical
    cell schema (raises on another version or a malformed cell so the
    caller counts a load failure)."""
    if payload.get("version") != TABLE_VERSION:
        raise ValueError("unknown table version")
    return {str(key): {str(name): {"count": int(cell["count"]),
                                   "total": float(cell["total"]),
                                   "best": float(cell["best"])}
                       for name, cell in per_backend.items()}
            for key, per_backend in payload["cells"].items()}


def _merge_table(disk: Table, mem: Table, base: Table) -> Table:
    """Union ``mem``'s new samples into ``disk``'s table.

    ``base`` is the portion of ``mem`` already accounted for on disk by
    this process (the baseline captured at the last successful
    load/save); only the delta beyond it is added, so repeated saves
    never double-count a sample.  Cells present on disk but unknown to
    ``mem`` (another process's measurements) pass through untouched.
    ``count``/``total`` take the larger of "our whole view" and
    "disk + our delta", which reduces to plain addition in the normal
    concurrent case while also surviving a table file that was wiped
    under us; ``best`` is the minimum of both views.
    """
    merged = _copy_table(disk)
    for key, entry in mem.items():
        base_entry = base.get(key, {})
        out = merged.setdefault(key, {})
        for name, cell in entry.items():
            b = base_entry.get(name, _ZERO_CELL)
            d = out.get(name, _ZERO_CELL)
            d_count = max(0, int(cell["count"]) - int(b["count"]))
            d_total = max(0.0, float(cell["total"]) - float(b["total"]))
            out[name] = {
                "count": max(int(cell["count"]), int(d["count"]) + d_count),
                "total": max(float(cell["total"]),
                             float(d["total"]) + d_total),
                "best": min(float(cell["best"]), float(d["best"])),
            }
    return merged


class BackendTuner:
    """A measured, persisted per-shape backend selector.

    Parameters
    ----------
    path:
        Filesystem location of the JSON table.  ``None`` resolves through
        :func:`default_tuner_path`; ``persist=False`` keeps the table
        in-memory only (no load, no save).
    explore_budget:
        Timed samples each candidate backend receives per bucket before
        the tuner exploits, fixed at construction (default 3, at least 1:
        :class:`~repro.errors.ConfigurationError` below).  Budgets ≥ 2 suit
        real traffic: the first sample on a plan-compiled backend includes
        its one-off compile cost, which best-of-budget filters out from
        the second sample on (a budget of 1 is mainly for tests driving
        the tuner with an injected clock).
    timer:
        Zero-argument callable returning seconds as a float; injectable so
        tests can drive the tuner with a deterministic clock.
    save_every:
        Persist the table after this many recorded samples (and on
        :meth:`flush`).
    frozen:
        Read-only mode: :meth:`choose` only ever *exploits* the loaded
        table (returning ``(None, False)`` for buckets with no sampled
        candidate, so dispatch falls through to its heuristic) and
        :meth:`record` is a no-op — repeated runs over a warm table make
        identical backend choices, which is the determinism story the
        default engine opts into via ``Config.tuner_mode="frozen"``.

    Attributes
    ----------
    hits:
        Exploit decisions (the measured table determined the backend).
    explores:
        Explore decisions (an under-sampled backend was picked to gather
        a timing).
    load_failures:
        Times a stored table was unreadable/stale and was discarded.
    """

    def __init__(self, path: Optional[str] = None, *,
                 explore_budget: int = 3,
                 timer=_time.perf_counter,
                 persist: bool = True,
                 save_every: int = 8,
                 frozen: bool = False) -> None:
        self.frozen = bool(frozen)
        if explore_budget < 1:
            raise ConfigurationError(
                f"explore_budget must be >= 1, got {explore_budget}")
        self.explore_budget = int(explore_budget)
        self.timer = timer
        self.persist = persist
        # resolved once: a configured(tuner_path=...) excursion after
        # construction must not redirect autosaves of a table loaded from
        # the original file into another file (clobbering its contents)
        self._path = os.fspath(path) if path else default_tuner_path()
        self.save_every = max(1, int(save_every))
        self._lock = threading.RLock()
        self._table: Table = {}
        #: the merge baseline: the part of the in-memory table already
        #: accounted for on disk (captured at the last successful
        #: load/save), so :meth:`save` merges only the delta and never
        #: double-counts a sample
        self._persisted: Table = {}
        self._dirty = 0
        self.hits = 0
        self.explores = 0
        self.records = 0
        self.load_failures = 0
        if self.persist:
            self.load()

    # -- configuration ------------------------------------------------------
    @property
    def path(self) -> str:
        """The table file this tuner loads from and saves to (fixed at
        construction; see :func:`default_tuner_path` for resolution)."""
        return self._path

    # -- persistence --------------------------------------------------------
    def load(self) -> bool:
        """(Re)load the table from :attr:`path`.

        Returns ``True`` when a usable table was loaded.  Every failure
        mode — missing file, unreadable file, corrupt JSON, another table
        version, wrong schema — leaves the tuner with an empty table
        (fresh exploration) and returns ``False``; nothing raises.  Only
        an unreadable file counts in :attr:`load_failures` (absence of
        the file is the normal cold start).
        """
        with self._lock:
            self._table = {}
            self._persisted = {}
            self._dirty = 0
            try:
                with open(self.path, "r", encoding="utf-8") as handle:
                    table = _read_cells(json.load(handle))
            except FileNotFoundError:
                return False
            except Exception:
                self.load_failures += 1
                return False
            self._table = table
            # everything just loaded is on disk already: merge-saves must
            # only add samples recorded beyond this baseline
            self._persisted = _copy_table(table)
            return True

    def save(self) -> bool:
        """Merge the table into the file on disk; returns ``False``
        (never raises) when the path is unwritable or persistence is
        disabled.

        Persistence is a **merge**, not a replacement: the samples each
        cell gained since the last successful load/save (its delta
        against the :attr:`_persisted` baseline) are *added* to the cell
        on disk — ``count`` and ``total`` accumulate, ``best`` takes the
        minimum — under an advisory file lock
        (:func:`_table_lock`), so concurrent processes sharing one table
        union their measurements instead of clobbering each other's.
        Cells on disk this tuner never saw pass through untouched.

        The table is snapshotted under the tuner lock but written
        outside it, so :meth:`choose`/:meth:`record` calls never block
        on disk I/O; the temp-file name is unique per (process, thread),
        published with ``os.replace`` and unlinked on every failure
        path, so a reader can never observe a torn file and no temp
        litter survives.
        """
        if not self.persist:
            return False
        with self._lock:
            pending = _copy_table(self._table)
            baseline = self._persisted  # replaced, never mutated in place
            dirty_at_snapshot = self._dirty
        path = self.path
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        try:
            # chaos site: an injected save failure must be swallowed by
            # the handler below exactly like a real disk error
            faults.maybe("tuner.save")
            directory = os.path.dirname(path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            with _table_lock(path):
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        disk = _read_cells(json.load(handle))
                except Exception:
                    disk = {}  # unreadable/absent -> start a fresh file
                cells = _merge_table(disk, pending, baseline)
                with open(tmp, "w", encoding="utf-8") as handle:
                    json.dump({"version": TABLE_VERSION, "cells": cells},
                              handle)
                os.replace(tmp, path)
            with self._lock:
                # samples recorded while writing stay dirty for the next
                # save; what we snapshotted is on disk now, so it becomes
                # the new merge baseline
                self._dirty = max(0, self._dirty - dirty_at_snapshot)
                self._persisted = pending
            return True
        except Exception:
            # "never raises" covers more than OSError: a non-serializable
            # cell (json.dump TypeError), a malformed payload, anything —
            # persistence failures must not take the engine down
            return False
        finally:
            try:
                os.unlink(tmp)  # no-op after a successful os.replace
            except OSError:
                pass

    def flush(self) -> bool:
        """Persist pending samples, if any."""
        with self._lock:
            pending = self._dirty > 0
        return self.save() if pending else False

    # -- decisions ----------------------------------------------------------
    def choose(self, op: str, shape: Sequence[int], dtype,
               candidate_names: Sequence[str],
               model: Optional[CacheModel] = None,
               sched: Optional[str] = None,
               density: Optional[str] = None) -> Tuple[Optional[str], bool]:
        """Pick a backend for this request.

        Returns ``(name, explored)`` where ``explored`` is ``True`` when
        the pick gathers a sample for an under-budget backend and
        ``False`` when the measured table decided.  Exploit decisions need
        no further samples: recording more timings for the winning backend
        can only lower its best time, never flip the decision, so callers
        skip measurement when ``explored`` is ``False``.
        ``candidate_names`` must be non-empty; order breaks exploration
        ties, so callers pass registration order for determinism.
        ``density`` scopes the cell to a structured operand's density
        bucket (``None`` for dense traffic — keys unchanged).

        A :attr:`frozen` tuner never explores: it exploits the best
        *sampled* candidate, or returns ``(None, False)`` when the bucket
        has no sampled candidate at all — the caller falls through to its
        heuristic, deterministically.
        """
        if not candidate_names:
            raise ValueError("choose() requires at least one candidate")
        budget = self.explore_budget
        with self._lock:
            entry = self._table.get(
                _bucket_key(op, dtype, shape_bucket(shape), model, sched,
                            density), {})
            if self.frozen:
                sampled = [n for n in candidate_names
                           if entry.get(n, {}).get("count", 0) > 0]
                if not sampled:
                    return None, False
                name = min(sampled, key=lambda n: entry[n]["best"])
                self.hits += 1
                return name, False
            counts = {name: entry.get(name, {}).get("count", 0)
                      for name in candidate_names}
            least = min(counts.values())
            if least < budget:
                name = next(n for n in candidate_names if counts[n] == least)
                self.explores += 1
                return name, True
            # min() is stable, so equal best times fall back to candidate
            # (registration) order deterministically
            name = min(candidate_names, key=lambda n: entry[n]["best"])
            self.hits += 1
            return name, False

    def record(self, op: str, shape: Sequence[int], dtype, name: str,
               seconds: float,
               model: Optional[CacheModel] = None,
               sched: Optional[str] = None,
               density: Optional[str] = None) -> None:
        """Feed one measured execution into the table (and autosave every
        ``save_every`` samples).  No-op on a :attr:`frozen` tuner — the
        loaded table is the whole story."""
        if self.frozen:
            return
        seconds = float(seconds)
        if seconds < 0 or not np.isfinite(seconds):
            return  # a broken clock must not poison the table
        with self._lock:
            key = _bucket_key(op, dtype, shape_bucket(shape), model, sched,
                              density)
            cell = self._table.setdefault(key, {}).setdefault(
                name, {"count": 0, "total": 0.0, "best": float("inf")})
            cell["count"] += 1
            cell["total"] += seconds
            cell["best"] = min(cell["best"], seconds)
            self.records += 1
            self._dirty += 1
            autosave = self.persist and self._dirty >= self.save_every
        if autosave:
            self.save()  # snapshots under the lock, writes outside it

    # -- introspection ------------------------------------------------------
    def table_snapshot(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """A deep copy of the timing table (safe to mutate)."""
        with self._lock:
            return _copy_table(self._table)

    def best(self, op: str, shape: Sequence[int], dtype,
             model: Optional[CacheModel] = None,
             sched: Optional[str] = None,
             density: Optional[str] = None) -> Optional[str]:
        """The measured-fastest backend for this bucket, or ``None`` when
        the bucket has no samples yet."""
        with self._lock:
            entry = self._table.get(
                _bucket_key(op, dtype, shape_bucket(shape), model, sched,
                            density))
            if not entry:
                return None
            return min(entry, key=lambda n: entry[n]["best"])

    def clear(self) -> None:
        """Drop every measured sample from the in-memory table (stats
        retained).  The persisted file is untouched; the merge baseline
        resets with the table, so samples recorded after a clear merge
        into the file as new measurements."""
        with self._lock:
            self._table.clear()
            self._persisted = {}
            self._dirty = 0
