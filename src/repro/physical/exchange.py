"""Morsel-driven parallel physical execution: exchange + ordered merge.

ROADMAP item 3.  The Volcano layer (PR 3) is single-threaded; this
module fans the per-member work of set-shaped operators out to a worker
pool and reassembles the results so the output is **bit-identical** to
the sequential pipeline — the paper's stability guarantee for ordered
bulk types is what makes that contract precise (§3: ``select``/``split``
preserve source order, so a parallel merge must too).

Pieces:

* :func:`morsel_bounds` — cuts the staged input into contiguous
  position ranges (*morsels*, after Leis et al., "Morsel-Driven
  Parallelism", SIGMOD 2014).  Workers pull the next morsel from a
  shared cursor, so a worker stuck behind one oversized member leaves
  the rest of the input to its siblings: skew is balanced dynamically
  rather than predicted by a partitioning hash.  Members are never
  split, so each stored tree's cached
  :class:`~repro.storage.columnar.ColumnarExtent` cut is reused by
  whichever worker evaluates it.
* :class:`ExchangeOp` — the fan-out base grafted onto a sequential
  operator (:class:`ParallelSelectFilter`, :class:`ParallelApplyMap`).
  It *gates itself per execution*, exactly like the columnar operators:
  ``AQUA_PARALLEL=off``, an input under ``AQUA_PARALLEL_MIN_ROWS``, or
  an exhausted worker budget all degrade to the inherited
  single-threaded loop bit-identically.
* :class:`OrderedMergeOp` — yields morsel results in morsel order.  A
  worker posts one message per finished morsel (its counters folded
  once per morsel, not per row), so the hand-off costs a handful of
  queue messages per execution whatever the input size; the merge
  buffers only morsels that finished ahead of an earlier one (reported
  honestly via ``note_buffered``).
* :class:`ShardGuard` / :class:`SharedSpend` — budget propagation.
  Each worker re-arms the thread-local guard
  (:func:`repro.guardrails.armed`) with a guard built from the parent
  budget's :meth:`~repro.guardrails.Budget.carve` (the deadline keeps
  its absolute end) whose cumulative counters (``max_steps``,
  ``max_nodes_scanned``) flow through one lock-guarded ledger shared by
  every sibling — a trip anywhere stops all workers, and the tripping
  worker ("shard") is attributed in the partial EXPLAIN ANALYZE.
* :class:`WorkerBudget` — the process-wide cap on live exchange
  workers.  A pooled session's query may itself fan out; both layers
  draw from this one budget, so concurrency × parallelism never
  multiplies past ``AQUA_PARALLEL_WORKERS``.  An exchange that is
  granted fewer than two slots simply runs inline.

Worker threads re-arm *all* the thread-local execution scopes the
query thread had: the guard (:func:`~repro.guardrails.armed`), the
parameter bindings, the stats activation + a private attribution frame,
and :func:`~repro.patterns.tree_memo.match_scope` — without this a bare
thread silently escaped budgets, counters and memo sharing.

``AQUA_PARALLEL_MODE=processes`` maps the same morsels over fork-based
worker processes instead (CPU-bound matching on multi-core machines;
the GIL caps thread-mode speedups at whatever share of per-member work
releases it).  Process mode is a barrier (results return when every
morsel is done), enforces the carved deadline and counter limits per
morsel rather than through a shared cumulative ledger, and falls back
to threads — counted as ``parallel_process_fallbacks`` — when fork or
result pickling is unavailable.
"""

from __future__ import annotations

import os
import queue
import sys
import threading
import time
from collections import Counter
from contextlib import ExitStack
from typing import Any, Callable, Iterator

from .. import config, guardrails, params
from ..errors import QueryCancelledError, ResourceExhaustedError
from ..guardrails import Budget, Guard
from ..patterns.tree_memo import match_scope
from ..query.metrics import PlanMetrics
from .operators import ApplyMap, SelectFilter

#: Worker guards flush their locally-batched step count to the shared
#: ledger every this many ticks — a lock acquisition per step would tax
#: the matcher's hot loop, so trips may be noticed up to
#: ``interval × workers`` steps late (the deadline already has the same
#: granularity via ``TIME_CHECK_INTERVAL``).
SHARD_FLUSH_INTERVAL = 64


class SharedSpend:
    """The cumulative budget ledger one exchange's workers share."""

    __slots__ = ("_lock", "steps", "nodes")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.steps = 0
        self.nodes = 0

    def add_steps(self, amount: int) -> int:
        with self._lock:
            self.steps += amount
            return self.steps

    def add_nodes(self, amount: int) -> int:
        with self._lock:
            self.nodes += amount
            return self.nodes


class ShardGuard(Guard):
    """A worker-side :class:`~repro.guardrails.Guard` with shared spend.

    ``max_steps`` and ``max_nodes_scanned`` are *query*-cumulative
    limits, so each worker checks the sibling-shared ledger plus
    whatever the query thread itself has spent — N shards never get N
    budgets.  The deadline comes from the carved budget (absolute end
    preserved); the cancellation token is the parent's own object, so a
    cancel fires in every worker at its next periodic check.
    """

    __slots__ = ("_shared", "_parent", "_pending")

    def __init__(
        self, budget: Budget, shared: SharedSpend, parent: Guard | None
    ) -> None:
        super().__init__(budget)
        self._shared = shared
        self._parent = parent
        self._pending = 0

    def tick(self, amount: int = 1, seam: str = "matcher step") -> None:
        self._pending += amount
        if self._pending >= SHARD_FLUSH_INTERVAL:
            self.flush(seam)

    def flush(self, seam: str = "shard flush") -> None:
        """Publish batched steps to the ledger and run the full checks."""
        pending, self._pending = self._pending, 0
        total = self._shared.add_steps(pending) if pending else self._shared.steps
        self.steps = total + (self._parent.steps if self._parent is not None else 0)
        budget = self.budget
        if budget.max_steps is not None and self.steps > budget.max_steps:
            self._trip("max_steps", budget.max_steps, self.steps, seam)
        self.check_now(seam)

    def charge_nodes(self, amount: int, seam: str = "storage scan") -> None:
        total = self._shared.add_nodes(amount)
        self.nodes_scanned = total + (
            self._parent.nodes_scanned if self._parent is not None else 0
        )
        limit = self.budget.max_nodes_scanned
        if limit is not None and self.nodes_scanned > limit:
            self._trip("max_nodes_scanned", limit, self.nodes_scanned, seam)


class WorkerBudget:
    """Process-wide cap on concurrently live exchange workers.

    ``acquire`` grants what is available (possibly zero) rather than
    blocking — an exchange that cannot get at least two slots runs its
    members inline, so progress never waits on another query's fan-out.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._outstanding = 0

    def acquire(self, requested: int, capacity: int) -> int:
        with self._lock:
            granted = max(0, min(requested, capacity - self._outstanding))
            self._outstanding += granted
            return granted

    def release(self, granted: int) -> None:
        with self._lock:
            self._outstanding -= granted

    @property
    def outstanding(self) -> int:
        with self._lock:
            return self._outstanding


#: The shared budget every exchange draws from (SessionPool composition:
#: pooled queries fanning out all land here, so the two layers are
#: jointly bounded by ``AQUA_PARALLEL_WORKERS``).
WORKER_BUDGET = WorkerBudget()


#: Morsels cut per granted worker.  More morsels balance skew more
#: finely (a slow member holds back at most its own morsel); each one
#: costs a queue hand-off, a counter fold and a buffer note, so a few
#: per worker keep the merge traffic constant in the input size.
MORSELS_PER_WORKER = 4

#: One morsel: the half-open source position range ``[start, end)``.
Morsel = tuple[int, int]


def morsel_bounds(total: int, workers: int) -> list[Morsel]:
    """Cut positions ``[0, total)`` into contiguous morsels, in order.

    ``workers × MORSELS_PER_WORKER`` of them (never more than ``total``,
    so none is empty); sizes differ by at most one.
    """
    count = max(1, min(total, workers * MORSELS_PER_WORKER))
    return [(i * total // count, (i + 1) * total // count) for i in range(count)]


def morsel_cursor(count: int) -> Callable[[], int | None]:
    """A thread-safe ``pull()`` handing out ``0 … count-1`` once each,
    in order, then ``None``."""
    indices = iter(range(count))
    lock = threading.Lock()

    def pull() -> int | None:
        with lock:
            return next(indices, None)

    return pull


class OrderedMergeOp:
    """Yields morsel results in morsel (hence source) order.

    Not a plan node: it runs *inside* the exchange operator at the
    exchange's plan path, so EXPLAIN paths keep mirroring the logical
    tree one-to-one.  Workers post one ``("morsel", index, payloads)``
    message per finished morsel and a final ``("done", error, registry,
    summary)``; :meth:`merged` yields ``(start, payloads)`` pairs in
    morsel order, buffering only the morsels that finished ahead of an
    earlier one.  A worker error is re-raised here — after every worker
    has parked, so no thread is still producing while the exception
    unwinds.
    """

    def __init__(
        self,
        morsels: list[Morsel],
        worker_count: int,
        on_buffered: Callable[[int], None],
    ) -> None:
        self.morsels = morsels
        self.worker_count = worker_count
        self.on_buffered = on_buffered
        self.registries: list[PlanMetrics] = []
        self.summaries: list[dict[str, Any]] = []
        self.error: BaseException | None = None

    def merged(self, results: "queue.Queue[tuple]") -> Iterator[tuple[int, list]]:
        next_index = 0
        pending: dict[int, list] = {}
        buffered = 0
        finished = 0
        while finished < self.worker_count:
            message = results.get()
            if message[0] == "morsel":
                _, index, payloads = message
                pending[index] = payloads
                buffered += len(payloads)
                self.on_buffered(buffered)
                while next_index in pending:
                    payloads = pending.pop(next_index)
                    buffered -= len(payloads)
                    yield self.morsels[next_index][0], payloads
                    next_index += 1
                continue
            _, exc, registry, summary = message
            if self.error is None:
                self.error = exc
            finished += 1
            self.registries.append(registry)
            self.summaries.append(summary)
        self.summaries.sort(key=lambda summary: summary["shard"])
        if self.error is not None:
            raise self.error


# -- process-mode plumbing -----------------------------------------------------
#
# Fork-based workers inherit the staged input and its morsels through
# this module global (set immediately before the pool is created,
# cleared right after), so nothing but the *results* ever crosses a
# pickle boundary — member payload functions are ordinary closures.

_PROCESS_STATE: tuple | None = None


def _process_entry(index: int) -> tuple:
    """Evaluate one morsel inside a forked worker process."""
    from ..storage.stats import Instrumentation

    member_fn, counter_name, staged, morsels, budget, stats_active = _PROCESS_STATE  # type: ignore[misc]
    sink = Instrumentation()
    start, end = morsels[index]
    produced: list[Any] = []
    usage: dict[str, Any] = {}
    trip: dict[str, Any] | None = None
    try:
        with ExitStack() as scopes:
            guard = scopes.enter_context(guardrails.guarded(budget))
            # Mirror the parent's activation: engine emits are only
            # captured (and folded parent-side) when the query thread's
            # sink would have captured them too.
            if stats_active:
                scopes.enter_context(sink.activated())
            for position in range(start, end):
                produced.append(member_fn(staged[position]))
            if guard is not None:
                usage = guard.usage()
    except ResourceExhaustedError as exc:
        # Exceptions with keyword-only constructors don't survive
        # pickling; ship the fields and rebuild parent-side.
        trip = {
            "message": str(exc),
            "limit_name": exc.limit_name,
            "limit": exc.limit,
            "spent": exc.spent,
            "seam": exc.seam,
        }
    except QueryCancelledError as exc:
        trip = {"message": str(exc)}
    if counter_name is not None:
        sink.bump(counter_name, len(produced))
    return os.getpid(), produced, sink.snapshot(), usage, trip


class ExchangeOp:
    """Fan-out mixin grafted onto a sequential set operator.

    Subclasses pair this with the operator whose per-member loop they
    parallelize and provide three hooks: :meth:`payload_fn` (the
    worker-side per-member callable, plus the counter each evaluation
    credits), :meth:`payload_cardinality` (how many output rows a
    payload contributes, for shard summaries) and :meth:`emit` (the
    main-thread, in-order reduction from payloads to output rows —
    where set dedup happens, globally, in first-seen source order).
    """

    # -- subclass hooks ------------------------------------------------------

    def payload_fn(self) -> tuple[Callable[[Any], Any], str | None]:
        """(raw per-member callable, counter to credit per evaluation).

        Workers evaluate a whole morsel with the raw callable and credit
        the counter once per morsel — a per-row bump would take the
        instrumentation lock once per member.
        """
        raise NotImplementedError

    def payload_cardinality(self, payload: Any) -> int:
        return 1

    def emit(
        self, staged: list[Any], merged: Iterator[tuple[int, list]], equality
    ) -> Iterator[Any]:
        """Reduce ``(start, payloads)`` morsels, in order, to output rows."""
        raise NotImplementedError

    # -- the gated fan-out ---------------------------------------------------

    def rows(self) -> Iterator[Any]:
        if not config.parallel_enabled():
            # Bit-identical off switch: the inherited operator runs with
            # zero buffering, exactly as if the lowering had picked it.
            yield from super().rows()
            return
        source, equality = self.set_source(self.children[0])
        self.result_equality = equality
        # Two rows at least: a single row has nothing to fan out.
        min_rows = max(2, config.validated_parallel_min_rows())
        staged: list[Any] = []
        for row in source:
            staged.append(row)
            if len(staged) >= min_rows:
                break
        if len(staged) < min_rows:
            # Undersized: run the inherited per-member loop over the
            # bounded peek buffer (≤ min_rows references, not counted as
            # a materialized buffer).
            yield from self._member_rows(iter(staged), equality)
            return
        workers = config.validated_parallel_workers()
        requested = min(workers, len(staged))
        granted = WORKER_BUDGET.acquire(requested, capacity=workers)
        try:
            if granted < 2:
                yield from self._member_rows(
                    self._chain(staged, source), equality
                )
                return
            for row in source:  # morsels are cut over the whole input
                staged.append(row)
            self.note_buffered(len(staged))
            morsels = morsel_bounds(len(staged), granted)
            stats = self.ctx.stats
            stats.bump("exchange_fanouts")
            stats.bump("exchange_shards", granted)
            if config.validated_parallel_worker_kind() == "processes":
                produced = self._run_processes(morsels, granted, staged, equality)
                if produced is not None:
                    yield from produced
                    return
                stats.bump("parallel_process_fallbacks")
            yield from self._run_threads(morsels, granted, staged, equality)
        finally:
            WORKER_BUDGET.release(granted)

    @staticmethod
    def _chain(staged: list[Any], rest: Iterator[Any]) -> Iterator[Any]:
        yield from staged
        yield from rest

    # -- thread workers ------------------------------------------------------

    def _run_threads(
        self, morsels: list[Morsel], worker_count: int, staged: list[Any], equality
    ) -> Iterator[Any]:
        ctx = self.ctx
        parent_guard = ctx.guard
        shared = SharedSpend()
        shard_budget = (
            parent_guard.budget.carve(parent_guard.elapsed())
            if parent_guard is not None
            else None
        )
        bindings = params.current_bindings()
        stats_active = ctx.stats.is_activated
        pull = morsel_cursor(len(morsels))
        results: "queue.Queue[tuple]" = queue.Queue()
        stop = threading.Event()
        workers = [
            threading.Thread(
                target=self._thread_worker,
                args=(index, pull, morsels, staged, shard_budget, shared,
                      results, stop, bindings, stats_active),
                name=f"aqua-exchange-{index}",
                daemon=True,
            )
            for index in range(worker_count)
        ]
        merge = OrderedMergeOp(
            morsels,
            worker_count,
            on_buffered=lambda frontier: self.note_buffered(len(staged) + frontier),
        )
        try:
            for worker in workers:
                worker.start()
            yield from self.emit(staged, merge.merged(results), equality)
        finally:
            stop.set()
            for worker in workers:
                worker.join()
            # In-flight exception (a worker trip, a main-thread trip, or
            # the consumer closing us early): write the workers' spend
            # back unchecked so the original error isn't masked by a
            # second trip raised from a finally block.
            checked = sys.exc_info()[0] is None
            self._write_back_spend(shared, parent_guard, checked=checked)
            self._record_shards(merge.registries, merge.summaries)

    def _thread_worker(
        self,
        index: int,
        pull: Callable[[], int | None],
        morsels: list[Morsel],
        staged: list[Any],
        shard_budget: Budget | None,
        shared: SharedSpend,
        results: "queue.Queue[tuple]",
        stop: threading.Event,
        bindings,
        stats_active: bool,
    ) -> None:
        ctx = self.ctx
        registry = PlanMetrics()
        record = registry.register(self.path, self.logical.head())
        summary: dict[str, Any] = {
            "shard": index,
            "mode": "threads",
            "members": 0,
            "rows": 0,
            "tripped": False,
            "trip": None,
        }
        guard = (
            ShardGuard(shard_budget, shared, ctx.guard)
            if shard_budget is not None
            else None
        )
        payload_fn, counter_name = self.payload_fn()
        cardinality = self.payload_cardinality
        error: BaseException | None = None
        started = time.perf_counter()
        try:
            with ExitStack() as scopes:
                # Re-arm every thread-local execution scope the query
                # thread had — a bare thread has none of them.  The
                # stats sink activates only when the query thread's was
                # (an uninstrumented run must not start recording
                # engine events just because it went parallel).
                scopes.enter_context(params.bound_params(bindings))
                scopes.enter_context(guardrails.armed(guard))
                if stats_active:
                    scopes.enter_context(ctx.stats.activated())
                scopes.enter_context(ctx.stats.attribute_to(record))
                scopes.enter_context(match_scope(ctx.db))
                while (morsel := pull()) is not None:
                    start, end = morsels[morsel]
                    payloads: list[Any] = []
                    try:
                        for position in range(start, end):
                            if stop.is_set():
                                break
                            payloads.append(payload_fn(staged[position]))
                    finally:
                        # One fold per morsel, evaluated members only
                        # (a trip or a stop leaves the morsel short).
                        if counter_name is not None and payloads:
                            ctx.stats.bump(counter_name, len(payloads))
                        summary["members"] += len(payloads)
                        summary["rows"] += sum(map(cardinality, payloads))
                    if len(payloads) < end - start:
                        break
                    results.put(("morsel", morsel, payloads))
                if guard is not None:
                    guard.flush("shard exit")
        except BaseException as exc:  # noqa: BLE001 - forwarded to the merge
            stop.set()
            if isinstance(exc, (ResourceExhaustedError, QueryCancelledError)):
                summary["tripped"] = True
                summary["trip"] = getattr(exc, "limit_name", "cancelled")
                exc.tripping_shard = index
            error = exc
        self._seal_summary(summary, record, started)
        results.put(("done", error, registry, summary))

    @staticmethod
    def _seal_summary(summary: dict[str, Any], record, started: float) -> None:
        record.wall_seconds = time.perf_counter() - started
        record.rows_out = summary["rows"]
        summary["wall_seconds"] = record.wall_seconds
        summary["counters"] = dict(record.counters)

    def _write_back_spend(
        self, shared: SharedSpend, parent_guard: Guard | None, *, checked: bool
    ) -> None:
        """Fold the workers' spend into the query guard's counters.

        Checked on the success path (a batched overshoot must still
        trip, as the sequential run would have); unchecked while an
        exception is already unwinding.
        """
        if parent_guard is None or (shared.steps == 0 and shared.nodes == 0):
            return
        if checked:
            if shared.nodes:
                parent_guard.charge_nodes(shared.nodes, "exchange write-back")
            if shared.steps:
                parent_guard.tick(shared.steps, "exchange write-back")
        else:
            parent_guard.steps += shared.steps
            parent_guard.nodes_scanned += shared.nodes

    def _record_shards(
        self, registries: list[PlanMetrics], summaries: list[dict[str, Any]]
    ) -> None:
        """Aggregate per-worker metrics into this operator's record.

        Counters roll up through :meth:`PlanMetrics.merge` with
        ``wall="max"`` — workers overlapped, so the rolled-up wall is
        the slowest worker — and the per-worker summaries are kept for
        EXPLAIN ANALYZE's shard rows.
        """
        if self.op_metrics is None or not registries:
            if self.op_metrics is not None and summaries:
                self.op_metrics.shards = summaries
            return
        rollup = PlanMetrics()
        for registry in registries:
            rollup.merge(registry, wall="max")
        aggregated = rollup.get(self.path)
        if aggregated is not None:
            self.op_metrics.counters.update(aggregated.counters)
        self.op_metrics.shards = summaries

    # -- process workers -----------------------------------------------------

    def _run_processes(
        self, morsels: list[Morsel], worker_count: int, staged: list[Any], equality
    ) -> Iterator[Any] | None:
        """Map the morsels over forked worker processes, or ``None`` to
        fall back to threads (no fork, pickling failure, …)."""
        global _PROCESS_STATE
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            return None
        ctx = self.ctx
        parent_guard = ctx.guard
        morsel_budget = None
        if parent_guard is not None:
            # Processes can't share the spend ledger, and the parent's
            # cancellation token is a forked copy the parent can't flip;
            # each morsel gets the carved budget (absolute deadline
            # preserved, per-morsel counter limits) — documented in the
            # README knob table.
            morsel_budget = parent_guard.budget.carve(parent_guard.elapsed())
        member_fn, counter_name = self.payload_fn()
        try:
            _PROCESS_STATE = (
                member_fn,
                counter_name,
                staged,
                morsels,
                morsel_budget,
                ctx.stats.is_activated,
            )
            with multiprocessing.get_context("fork").Pool(worker_count) as pool:
                # chunksize 1: each process pulls the next morsel when
                # it finishes one, as thread workers do.
                outcomes = pool.map(_process_entry, range(len(morsels)), chunksize=1)
        except Exception:
            return None
        finally:
            _PROCESS_STATE = None
        # One summary per worker process, numbered by first appearance.
        by_pid: dict[int, dict[str, Any]] = {}
        error: ResourceExhaustedError | QueryCancelledError | None = None
        for pid, produced, counters, usage, trip in outcomes:
            summary = by_pid.setdefault(pid, {
                "shard": len(by_pid),
                "mode": "processes",
                "members": 0,
                "rows": 0,
                "counters": Counter(),
                "tripped": False,
                "trip": None,
            })
            summary["members"] += len(produced)
            summary["rows"] += sum(map(self.payload_cardinality, produced))
            summary["counters"].update(counters)
            self._fold_process_counters(counters)
            if parent_guard is not None and usage:
                parent_guard.steps += int(usage.get("steps", 0))
                parent_guard.nodes_scanned += int(usage.get("nodes_scanned", 0))
            if trip is None:
                continue
            summary["tripped"] = True
            summary["trip"] = trip.get("limit_name", "cancelled")
            if error is None:
                message = trip.pop("message")
                error = (
                    ResourceExhaustedError(message, **trip)
                    if trip
                    else QueryCancelledError(message)
                )
                error.tripping_shard = summary["shard"]
        if self.op_metrics is not None:
            self.op_metrics.shards = list(by_pid.values())
        if error is not None:
            raise error
        ordered = (
            (start, produced)
            for (_, produced, *_), (start, _) in zip(outcomes, morsels)
        )
        return self.emit(staged, ordered, equality)

    def _fold_process_counters(self, counters: dict[str, int]) -> None:
        """Credit a forked worker's counters parent-side.

        The child bumped a *forked copy* of the bag, so folding here is
        the only copy — and running inside ``next()``'s attribution
        frame credits this operator, exactly as sequential would.
        """
        for name, amount in counters.items():
            if amount:
                self.ctx.stats.bump(name, amount)

    def access_path(self) -> str:
        return "exchange-capable: morsels + ordered merge, gated per execution"


class ParallelSelectFilter(ExchangeOp, SelectFilter):
    """``select(p)(S)`` with the predicate fanned out across workers."""

    name = "parallel_select_filter"

    def payload_fn(self) -> tuple[Callable[[Any], Any], str | None]:
        return self.logical.predicate, "predicate_evals"

    def payload_cardinality(self, payload: Any) -> int:
        return 1 if payload else 0

    def emit(self, staged, merged, equality) -> Iterator[Any]:
        del equality  # input already deduplicated under it
        for start, keeps in merged:
            for position, keep in enumerate(keeps, start):
                if keep:
                    yield staged[position]


class ParallelApplyMap(ExchangeOp, ApplyMap):
    """``apply(f)(S)`` with the images computed across workers.

    Dedup happens at the merge (main thread, global, first-seen in
    source order) — per-worker dedup would be wrong whenever two
    workers produce equal images.
    """

    name = "parallel_apply_map"

    def payload_fn(self) -> tuple[Callable[[Any], Any], str | None]:
        return self.logical.function, None

    def emit(self, staged, merged, equality) -> Iterator[Any]:
        del staged
        seen: set[Any] = set()
        for _start, images in merged:
            for image in images:
                key = equality.key(image)
                if key in seen:
                    continue
                seen.add(key)
                yield image
