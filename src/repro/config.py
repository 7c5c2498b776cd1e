"""Configuration knobs: one validation point for the ``AQUA_*`` environment.

Three knobs steer execution, and historically each was parsed at its
point of use — a typo either crashed deep in the stack or silently fell
back to a default.  This module is now the single place a knob value is
read and validated; a bad value raises a one-line
:class:`~repro.errors.QueryError` naming the knob and the accepted
values, whether it arrived via the environment or an explicit argument.

Precedence (resolved here and documented in the README table):

1. an explicit per-call argument (``executor=``, ``engine=``, ...);
2. a :class:`~repro.api.Session`-scoped override (thread-local,
   armed by :func:`tree_engine_scope` / :func:`executor_scope`);
3. the ``AQUA_*`` environment variable;
4. the built-in default.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Iterator

from .errors import QueryError

#: Environment knob selecting the default executor.
EXECUTOR_ENV = "AQUA_EXECUTOR"
EXECUTORS = ("streaming", "eager")
DEFAULT_EXECUTOR = "streaming"

#: Environment knob selecting the default tree-matching engine.
TREE_ENGINE_ENV = "AQUA_TREE_ENGINE"
TREE_ENGINES = ("memo", "backtrack")
DEFAULT_TREE_ENGINE = "memo"

#: Environment knob overriding the default DFA transition-cache bound.
DFA_CACHE_LIMIT_ENV = "AQUA_DFA_CACHE_LIMIT"
DEFAULT_DFA_CACHE_LIMIT = 4096

#: Environment knob enabling/disabling the columnar tree kernel — the
#: escape hatch back to pure node-at-a-time evaluation.
COLUMNAR_ENV = "AQUA_COLUMNAR"
COLUMNAR_MODES = ("on", "off")
DEFAULT_COLUMNAR = "on"

#: Environment knob selecting the column backend.  ``auto`` prefers
#: numpy when the ``[columnar]`` extra is installed and falls back to
#: pure-Python int bitsets; the explicit values pin one backend.
COLUMNAR_BACKEND_ENV = "AQUA_COLUMNAR_BACKEND"
COLUMNAR_BACKENDS = ("auto", "numpy", "python")
DEFAULT_COLUMNAR_BACKEND = "auto"

#: Environment knob: minimum element count before a structure is worth
#: encoding columnar.  Small trees pay more in column builds than they
#: save in matcher dispatch (and their work counters are pinned by
#: golden tests), so the kernel only engages at or above this size.
COLUMNAR_THRESHOLD_ENV = "AQUA_COLUMNAR_THRESHOLD"
DEFAULT_COLUMNAR_THRESHOLD = 512

#: Environment knob enabling/disabling parallel (sharded) execution of
#: set-shaped physical operators — the escape hatch back to the
#: single-threaded pipeline.
PARALLEL_ENV = "AQUA_PARALLEL"
PARALLEL_MODES = ("on", "off")
DEFAULT_PARALLEL = "on"

#: Environment knob sizing the worker pool an exchange operator may fan
#: out to.  ``auto`` resolves to ``os.cpu_count()``; an explicit integer
#: pins the pool.  The resolved value is also the capacity of the
#: process-wide shared worker budget, so nested fan-out (a pooled
#: session whose query itself shards) never multiplies threads.
PARALLEL_WORKERS_ENV = "AQUA_PARALLEL_WORKERS"
DEFAULT_PARALLEL_WORKERS = "auto"

#: Environment knob: minimum member count before an extent is worth
#: fanning out.  Small inputs pay more in worker arming (thread spawn,
#: guard/match-scope re-arming) than they save — mirrored by the
#: optimizer's exchange cost term (`EXCHANGE_WORKER_COST`).
PARALLEL_MIN_ROWS_ENV = "AQUA_PARALLEL_MIN_ROWS"
DEFAULT_PARALLEL_MIN_ROWS = 256

#: Environment knob selecting the worker kind: ``threads`` (default —
#: shares the storage caches and the cumulative budget ledger) or
#: ``processes`` (fork-based, for CPU-bound matching on multi-core
#: machines; falls back to threads when fork or pickling is
#: unavailable, counted as ``parallel_process_fallbacks``).
PARALLEL_MODE_ENV = "AQUA_PARALLEL_MODE"
PARALLEL_WORKER_KINDS = ("threads", "processes")
DEFAULT_PARALLEL_WORKER_KIND = "threads"

#: Environment knobs configuring deterministic fault injection (parsed
#: and validated by :mod:`repro.faults`, reported here so every knob
#: failure reads the same).
FAULTS_ENV = "AQUA_FAULTS"
FAULT_SEED_ENV = "AQUA_FAULT_SEED"

_local = threading.local()


def invalid_knob(knob: str, value: object, accepted: str) -> QueryError:
    """The one-line diagnostic every ``AQUA_*`` knob failure uses.

    Public so other modules that own a knob's grammar (e.g.
    :mod:`repro.faults` for ``AQUA_FAULTS``) raise the same shape of
    error the core knobs do: the knob name, the offending value, and
    what would have been accepted.
    """
    return QueryError(f"{knob}: invalid value {value!r} (accepted: {accepted})")


_bad_knob = invalid_knob


@contextmanager
def executor_scope(executor: str | None) -> Iterator[None]:
    """Arm a thread-local executor default (a Session's ``executor=``)."""
    if executor is not None and executor not in EXECUTORS:
        raise _bad_knob(EXECUTOR_ENV, executor, " | ".join(EXECUTORS))
    previous = getattr(_local, "executor", None)
    _local.executor = executor if executor is not None else previous
    try:
        yield
    finally:
        _local.executor = previous


@contextmanager
def tree_engine_scope(engine: str | None) -> Iterator[None]:
    """Arm a thread-local tree-engine default (a Session's ``engine=``)."""
    if engine is not None and engine not in TREE_ENGINES:
        raise _bad_knob(TREE_ENGINE_ENV, engine, " | ".join(TREE_ENGINES))
    previous = getattr(_local, "tree_engine", None)
    _local.tree_engine = engine if engine is not None else previous
    try:
        yield
    finally:
        _local.tree_engine = previous


def validated_executor(executor: str | None = None) -> str:
    """Resolve the executor: argument > session scope > env > default."""
    chosen = executor
    if chosen is None:
        chosen = getattr(_local, "executor", None)
    if chosen is None:
        chosen = os.environ.get(EXECUTOR_ENV)
    if chosen is None:
        return DEFAULT_EXECUTOR
    if chosen not in EXECUTORS:
        raise _bad_knob(EXECUTOR_ENV, chosen, " | ".join(EXECUTORS))
    return chosen


def validated_tree_engine(engine: str | None = None) -> str:
    """Resolve the tree engine: argument > session scope > env > default."""
    chosen = engine
    if chosen is None:
        chosen = getattr(_local, "tree_engine", None)
    if chosen is None:
        chosen = os.environ.get(TREE_ENGINE_ENV)
    if chosen is None:
        return DEFAULT_TREE_ENGINE
    if chosen not in TREE_ENGINES:
        raise _bad_knob(TREE_ENGINE_ENV, chosen, " | ".join(TREE_ENGINES))
    return chosen


@contextmanager
def columnar_scope(mode: str | None) -> Iterator[None]:
    """Arm a thread-local columnar on/off default (tests, benchmarks)."""
    if mode is not None and mode not in COLUMNAR_MODES:
        raise _bad_knob(COLUMNAR_ENV, mode, " | ".join(COLUMNAR_MODES))
    previous = getattr(_local, "columnar", None)
    _local.columnar = mode if mode is not None else previous
    try:
        yield
    finally:
        _local.columnar = previous


def validated_columnar(mode: str | None = None) -> str:
    """Resolve the columnar switch: argument > scope > env > default."""
    chosen = mode
    if chosen is None:
        chosen = getattr(_local, "columnar", None)
    if chosen is None:
        chosen = os.environ.get(COLUMNAR_ENV)
    if chosen is None:
        return DEFAULT_COLUMNAR
    if chosen not in COLUMNAR_MODES:
        raise _bad_knob(COLUMNAR_ENV, chosen, " | ".join(COLUMNAR_MODES))
    return chosen


def columnar_enabled(mode: str | None = None) -> bool:
    return validated_columnar(mode) == "on"


@contextmanager
def columnar_backend_scope(backend: str | None) -> Iterator[None]:
    """Arm a thread-local column-backend default (tests, benchmarks)."""
    if backend is not None and backend not in COLUMNAR_BACKENDS:
        raise _bad_knob(COLUMNAR_BACKEND_ENV, backend, " | ".join(COLUMNAR_BACKENDS))
    previous = getattr(_local, "columnar_backend", None)
    _local.columnar_backend = backend if backend is not None else previous
    try:
        yield
    finally:
        _local.columnar_backend = previous


def validated_columnar_backend(backend: str | None = None) -> str:
    """Resolve the backend choice: argument > scope > env > default.

    Returns one of ``auto | numpy | python`` — availability of numpy is
    resolved by :func:`repro.storage.columnar.resolve_backend`, which
    raises the same knob-shaped error when ``numpy`` is pinned but not
    installed.
    """
    chosen = backend
    if chosen is None:
        chosen = getattr(_local, "columnar_backend", None)
    if chosen is None:
        chosen = os.environ.get(COLUMNAR_BACKEND_ENV)
    if chosen is None:
        return DEFAULT_COLUMNAR_BACKEND
    if chosen not in COLUMNAR_BACKENDS:
        raise _bad_knob(COLUMNAR_BACKEND_ENV, chosen, " | ".join(COLUMNAR_BACKENDS))
    return chosen


@contextmanager
def columnar_threshold_scope(threshold: int | None) -> Iterator[None]:
    """Arm a thread-local threshold default (tests force 0 to engage)."""
    if threshold is not None and threshold < 0:
        raise _bad_knob(COLUMNAR_THRESHOLD_ENV, threshold, "an integer >= 0")
    previous = getattr(_local, "columnar_threshold", None)
    _local.columnar_threshold = threshold if threshold is not None else previous
    try:
        yield
    finally:
        _local.columnar_threshold = previous


def validated_columnar_threshold(threshold: int | None = None) -> int:
    """Resolve the engagement threshold: argument > scope > env > default."""
    chosen: int | None = threshold
    if chosen is None:
        chosen = getattr(_local, "columnar_threshold", None)
    if chosen is None:
        raw = os.environ.get(COLUMNAR_THRESHOLD_ENV)
        if raw is None:
            return DEFAULT_COLUMNAR_THRESHOLD
        try:
            chosen = int(raw)
        except ValueError:
            raise _bad_knob(
                COLUMNAR_THRESHOLD_ENV, raw, "an integer >= 0"
            ) from None
    if chosen < 0:
        raise _bad_knob(COLUMNAR_THRESHOLD_ENV, chosen, "an integer >= 0")
    return chosen


@contextmanager
def parallel_scope(mode: str | None) -> Iterator[None]:
    """Arm a thread-local parallel on/off default (a Session's ``parallel=``)."""
    if mode is not None and mode not in PARALLEL_MODES:
        raise _bad_knob(PARALLEL_ENV, mode, " | ".join(PARALLEL_MODES))
    previous = getattr(_local, "parallel", None)
    _local.parallel = mode if mode is not None else previous
    try:
        yield
    finally:
        _local.parallel = previous


def validated_parallel(mode: str | None = None) -> str:
    """Resolve the parallel switch: argument > scope > env > default."""
    chosen = mode
    if chosen is None:
        chosen = getattr(_local, "parallel", None)
    if chosen is None:
        chosen = os.environ.get(PARALLEL_ENV)
    if chosen is None:
        return DEFAULT_PARALLEL
    if chosen not in PARALLEL_MODES:
        raise _bad_knob(PARALLEL_ENV, chosen, " | ".join(PARALLEL_MODES))
    return chosen


def parallel_enabled(mode: str | None = None) -> bool:
    return validated_parallel(mode) == "on"


def _coerce_workers(knob_value: object) -> int | None:
    """``auto`` → None (resolve from the machine); else a positive int."""
    if knob_value == "auto":
        return None
    try:
        workers = int(knob_value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise _bad_knob(
            PARALLEL_WORKERS_ENV, knob_value, "auto | an integer >= 1"
        ) from None
    if workers < 1:
        raise _bad_knob(PARALLEL_WORKERS_ENV, workers, "auto | an integer >= 1")
    return workers


@contextmanager
def parallel_workers_scope(workers: int | str | None) -> Iterator[None]:
    """Arm a thread-local worker-count default (tests, benchmarks)."""
    if workers is not None:
        _coerce_workers(workers)
    previous = getattr(_local, "parallel_workers", None)
    _local.parallel_workers = workers if workers is not None else previous
    try:
        yield
    finally:
        _local.parallel_workers = previous


def validated_parallel_workers(workers: int | str | None = None) -> int:
    """Resolve the worker-pool size: argument > scope > env > default.

    Returns a concrete positive integer — ``auto`` resolves to
    ``os.cpu_count()`` (floored at 1), so callers never see the
    sentinel.
    """
    chosen: int | str | None = workers
    if chosen is None:
        chosen = getattr(_local, "parallel_workers", None)
    if chosen is None:
        chosen = os.environ.get(PARALLEL_WORKERS_ENV)
    if chosen is None:
        chosen = DEFAULT_PARALLEL_WORKERS
    resolved = _coerce_workers(chosen)
    if resolved is None:
        return max(1, os.cpu_count() or 1)
    return resolved


@contextmanager
def parallel_min_rows_scope(min_rows: int | None) -> Iterator[None]:
    """Arm a thread-local fan-out threshold (tests force 0 to engage)."""
    if min_rows is not None and min_rows < 0:
        raise _bad_knob(PARALLEL_MIN_ROWS_ENV, min_rows, "an integer >= 0")
    previous = getattr(_local, "parallel_min_rows", None)
    _local.parallel_min_rows = min_rows if min_rows is not None else previous
    try:
        yield
    finally:
        _local.parallel_min_rows = previous


def validated_parallel_min_rows(min_rows: int | None = None) -> int:
    """Resolve the fan-out threshold: argument > scope > env > default."""
    chosen: int | None = min_rows
    if chosen is None:
        chosen = getattr(_local, "parallel_min_rows", None)
    if chosen is None:
        raw = os.environ.get(PARALLEL_MIN_ROWS_ENV)
        if raw is None:
            return DEFAULT_PARALLEL_MIN_ROWS
        try:
            chosen = int(raw)
        except ValueError:
            raise _bad_knob(
                PARALLEL_MIN_ROWS_ENV, raw, "an integer >= 0"
            ) from None
    if chosen < 0:
        raise _bad_knob(PARALLEL_MIN_ROWS_ENV, chosen, "an integer >= 0")
    return chosen


@contextmanager
def parallel_worker_kind_scope(kind: str | None) -> Iterator[None]:
    """Arm a thread-local worker-kind default (``threads``/``processes``)."""
    if kind is not None and kind not in PARALLEL_WORKER_KINDS:
        raise _bad_knob(PARALLEL_MODE_ENV, kind, " | ".join(PARALLEL_WORKER_KINDS))
    previous = getattr(_local, "parallel_worker_kind", None)
    _local.parallel_worker_kind = kind if kind is not None else previous
    try:
        yield
    finally:
        _local.parallel_worker_kind = previous


def validated_parallel_worker_kind(kind: str | None = None) -> str:
    """Resolve the worker kind: argument > scope > env > default."""
    chosen = kind
    if chosen is None:
        chosen = getattr(_local, "parallel_worker_kind", None)
    if chosen is None:
        chosen = os.environ.get(PARALLEL_MODE_ENV)
    if chosen is None:
        return DEFAULT_PARALLEL_WORKER_KIND
    if chosen not in PARALLEL_WORKER_KINDS:
        raise _bad_knob(PARALLEL_MODE_ENV, chosen, " | ".join(PARALLEL_WORKER_KINDS))
    return chosen


def validated_dfa_cache_limit(limit: int | None = None) -> int:
    """Resolve the DFA cache bound: argument > env > default (≥ 1)."""
    if limit is not None:
        if limit < 1:
            raise _bad_knob(DFA_CACHE_LIMIT_ENV, limit, "an integer >= 1")
        return limit
    raw = os.environ.get(DFA_CACHE_LIMIT_ENV)
    if raw is None:
        return DEFAULT_DFA_CACHE_LIMIT
    try:
        parsed = int(raw)
    except ValueError:
        raise _bad_knob(DFA_CACHE_LIMIT_ENV, raw, "an integer >= 1") from None
    if parsed < 1:
        raise _bad_knob(DFA_CACHE_LIMIT_ENV, parsed, "an integer >= 1")
    return parsed
