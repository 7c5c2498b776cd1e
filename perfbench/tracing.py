"""In-process tracing: spans around each layer's entry points.

The traced run wraps the public entry points of every layer, from the
benchmark's own files, and restores them afterwards — the program under
test is never edited.  Each call becomes a :class:`Span` with a name,
start, end, parent span and request id.  Spans stay in memory and are
reduced to per-layer metrics when the run ends.

Context travels in :mod:`contextvars`; the serving layer's thread pool
does not copy contexts into its workers, so while tracing,
``ThreadPoolExecutor.submit`` runs each job inside the submitting
context.  The job itself becomes a ``serving.service`` span, and the gap
between submission and the job's start a ``serving.queue`` span.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import itertools
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "info")

    def __init__(self, name: str, start: float, parent: "Span | None", request: int | None) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.info: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._bumps = itertools.count()
        self._bump_reads = 0
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._request: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_request", default=None
        )
        self._patches: list[tuple[Any, str, Any]] = []
        self.installed = False

    def bump_total(self) -> int:
        """``Instrumentation.bump`` calls so far (the read is not counted)."""
        self._bump_reads += 1
        return next(self._bumps) - self._bump_reads + 1

    # -- spans -----------------------------------------------------------------

    def _open(self, name: str, start: float | None = None) -> tuple[Span, contextvars.Token]:
        span = Span(
            name,
            _clock() if start is None else start,
            self._current.get(),
            self._request.get(),
        )
        self.spans.append(span)
        return span, self._current.set(span)

    def _close(self, span: Span, token: contextvars.Token) -> None:
        span.end = _clock()
        self._current.reset(token)

    @contextlib.contextmanager
    def request(self, request_id: int, name: str = "request"):
        """The root span of one benchmark operation."""
        token = self._request.set(request_id)
        span, span_token = self._open(name)
        try:
            yield span
        finally:
            self._close(span, span_token)
            self._request.reset(token)

    @contextlib.contextmanager
    def span(self, name: str):
        span, token = self._open(name)
        try:
            yield span
        finally:
            self._close(span, token)

    def _wrap(self, name: str, fn: Callable, note: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span, token = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span.info = note(args, result)
                return result
            finally:
                self._close(span, token)

        return traced

    # -- installation ----------------------------------------------------------

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _patch_call(self, owner: Any, attribute: str, name: str, note: Callable | None = None) -> None:
        self._patch(owner, attribute, self._wrap(name, owner.__dict__[attribute], note))

    def install(self) -> None:
        """Wrap every layer entry point (idempotent)."""
        if self.installed:
            return
        # Modules by import path: packages re-export same-named functions
        # (``repro.physical.lower`` is also a function), so attribute
        # access could return the function instead of the module.
        aql = importlib.import_module("repro.query.aql")
        lower = importlib.import_module("repro.physical.lower")
        docstore = importlib.import_module("repro.docstore")
        path = importlib.import_module("repro.docstore.path")
        update = importlib.import_module("repro.algebra.update")
        from repro.api import Session, SessionPool
        from repro.optimizer.engine import Optimizer
        from repro.physical.base import PhysicalPlan
        from repro.physical.lower import PipelineFactory
        from repro.query.plan_cache import PlanCache
        from repro.storage.database import Database
        from repro.storage.stats import Instrumentation

        self._patch_call(Session, "query", "api.session_query")
        self._patch_call(SessionPool, "submit", "serving.submit")
        self._patch_call(SessionPool, "submit_update", "serving.submit")
        self._patch_call(aql, "parse_aql", "aql.parse")
        self._patch_call(PlanCache, "lookup", "plan_cache.lookup")
        self._patch_call(PlanCache, "lookup_alias", "plan_cache.lookup_alias")
        self._patch_call(PlanCache, "store", "plan_cache.store")
        self._patch_call(
            Optimizer, "optimize", "optimizer.optimize",
            lambda args, result: len(result[1].steps),
        )
        self._patch_call(lower, "lower_factory", "lower.lower_factory")
        self._patch_call(PipelineFactory, "instantiate", "physical.instantiate")
        self._patch_call(
            PhysicalPlan, "execute", "physical.execute",
            lambda args, result: len(result) if hasattr(result, "__len__") else 1,
        )
        self._patch_call(Database, "snapshot", "storage.snapshot")
        self._patch_call(Database, "commit_staged", "storage.commit")
        # The returned object identifies a build: a cache hit returns an
        # object seen before, a build a new one.
        self._patch_call(
            Database, "columnar_extent", "storage.columnar_extent",
            lambda args, result: result,
        )
        self._patch_call(
            Database, "tree_index", "storage.tree_index", lambda args, result: result
        )
        self._patch(update, "transaction", self._traced_transaction(update.transaction))
        self._patch_call(
            docstore, "from_html", "docstore.from_html",
            lambda args, result: len(args[0].encode("utf-8")),
        )
        self._patch_call(path, "compile_path", "docstore.compile_path")
        self._patch(Instrumentation, "bump", self._counted_bump(Instrumentation.bump))
        self._patch(ThreadPoolExecutor, "submit", self._context_submit(ThreadPoolExecutor.submit))
        self.installed = True

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
        self.installed = False

    def _traced_transaction(self, original: Callable) -> Callable:
        tracer = self

        @contextlib.contextmanager
        def transaction(db):
            with tracer.span("txn.transaction"), original(db) as txn:
                yield txn

        return transaction

    def _counted_bump(self, original: Callable) -> Callable:
        counter = self._bumps

        @functools.wraps(original)
        def bump(sink, name, amount=1):
            next(counter)
            return original(sink, name, amount)

        return bump

    def _context_submit(self, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def submit(executor, fn, /, *args, **kwargs):
            context = contextvars.copy_context()
            submitted = _clock()

            def job():
                queue, token = tracer._open("serving.queue", submitted)
                tracer._close(queue, token)
                with tracer.span("serving.service"):
                    return fn(*args, **kwargs)

            return original(executor, context.run, job)

        return submit


# -- reduction to per-layer metrics -----------------------------------------------

#: Spans that only wrap an entry point; their own time is not a layer's.
_ENTRY_SPANS = frozenset(
    {"request", "api.session_query", "serving.submit", "serving.service"}
)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    requests: set[int],
    counters: dict[str, int],
    cache: dict[str, int],
) -> dict[str, float]:
    """Per-layer metrics over the spans of ``requests``.

    ``counters`` and ``cache`` are the deltas of ``db.stats`` and
    ``PlanCache.snapshot()`` across the traced loop.  Build counts and
    times, and ingest rates, cover every span the tracer holds (set-up
    included), because set-up is where a warm benchmark builds its
    columns and indexes and loads its documents.
    """
    all_spans = tracer.spans
    ops = max(1, len(requests))
    spans = [s for s in tracer.spans if s.request in requests]
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    def total_ms(name: str) -> float:
        return sum(s.duration for s in named(name)) * 1e3

    def self_ms(name: str) -> float:
        total = 0.0
        for span in named(name):
            covered = _union_length(
                [(c.start, c.end) for c in children.get(id(span), ())]
            )
            total += span.duration - covered
        return total * 1e3

    # Builds: a call returning an object never returned before built it.
    def builds(name: str) -> tuple[int, float]:
        seen: set[int] = set()
        count, ms = 0, 0.0
        for span in all_spans:
            if span.name != name or span.info is None:
                continue
            if id(span.info) not in seen:
                seen.add(id(span.info))
                count += 1
                ms += span.duration * 1e3
        return count, ms

    columnar_builds, columnar_ms = builds("storage.columnar_extent")
    index_builds, index_ms = builds("storage.tree_index")

    # Coverage: the share of request wall time that a span below the
    # entry wrappers explains; the rest is entry-point self time plus the
    # benchmark's own loop, i.e. unattributed.
    layered: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.name not in _ENTRY_SPANS:
            layered.setdefault(span.request, []).append((span.start, span.end))
    roots = named("request")
    covered = sum(
        _union_length(
            [
                (max(start, r.start), min(end, r.end))
                for start, end in layered.get(r.request, ())
                if end > r.start and start < r.end
            ]
        )
        for r in roots
    )
    wall = sum(r.duration for r in roots)

    rows_out = sum(s.info or 0 for s in named("physical.execute"))
    # Ingest is timed wherever it happens: set-up loads documents too.
    ingests = [s for s in all_spans if s.name == "docstore.from_html"]
    ingest_kb = sum(s.info or 0 for s in ingests) / 1024
    ingest_ms = sum(s.duration for s in ingests) * 1e3
    c = counters.get
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    roots_kept, pruned = c("columnar_roots", 0), c("columnar_pruned", 0)

    return {
        "session.ms_per_op": self_ms("api.session_query") / ops,
        "serving.queue_wait_ms_p50": _median(
            [s.duration * 1e3 for s in named("serving.queue")]
        ),
        "serving.service_ms_p50": _median(
            [s.duration * 1e3 for s in named("serving.service")]
        ),
        "aql.parse_calls_per_op": len(named("aql.parse")) / ops,
        "aql.parse_ms_per_op": total_ms("aql.parse") / ops,
        "plan_cache.hit_ratio": _ratio(hits, hits + misses),
        "plan_cache.invalidations_per_kop": cache.get("invalidations", 0) * 1000 / ops,
        "plan_cache.evictions_per_kop": cache.get("evictions", 0) * 1000 / ops,
        "optimizer.calls_per_op": len(named("optimizer.optimize")) / ops,
        "optimizer.ms_per_op": total_ms("optimizer.optimize") / ops,
        "optimizer.rewrites_per_op": sum(
            s.info or 0 for s in named("optimizer.optimize")
        ) / ops,
        "lower.calls_per_op": len(named("lower.lower_factory")) / ops,
        "lower.ms_per_op": total_ms("lower.lower_factory") / ops,
        "execute.ms_per_op": total_ms("physical.execute") / ops,
        "execute.rows_out_per_op": rows_out / ops,
        "exchange.fanouts_per_op": c("exchange_fanouts", 0) / ops,
        "exchange.shards_per_op": c("exchange_shards", 0) / ops,
        "exchange.process_fallbacks": float(c("parallel_process_fallbacks", 0)),
        "patterns.backtrack_steps_per_op": c("backtrack_steps", 0) / ops,
        "patterns.memo_hit_ratio": _ratio(
            c("memo_hits", 0), c("memo_hits", 0) + c("memo_misses", 0)
        ),
        "patterns.bitmap_hit_ratio": _ratio(
            c("bitmap_hits", 0), c("bitmap_hits", 0) + c("bitmap_fills", 0)
        ),
        "patterns.dfa_hit_ratio": _ratio(
            c("dfa_cache_hits", 0), c("dfa_cache_hits", 0) + c("dfa_cache_misses", 0)
        ),
        "columnar.builds": float(columnar_builds),
        "columnar.build_ms_total": columnar_ms,
        "columnar.prune_ratio": _ratio(pruned, roots_kept + pruned),
        "index.probes_per_op": c("index_probes", 0) / ops,
        "index.candidates_per_result": _ratio(c("index_candidates", 0), rows_out),
        "tree_index.builds": float(index_builds),
        "tree_index.build_ms_total": index_ms,
        "storage.nodes_scanned_per_op": c("nodes_scanned", 0) / ops,
        "storage.predicate_evals_per_op": c("predicate_evals", 0) / ops,
        "storage.full_scans_per_op": c("full_scans", 0) / ops,
        "snapshot.ms_per_op": total_ms("storage.snapshot") / ops,
        "txn.commit_ms_p50": _median(
            [s.duration * 1e3 for s in named("storage.commit")]
        ),
        "docstore.ingest_ms_per_kb": _ratio(ingest_ms, ingest_kb),
        "docstore.compile_path_ms_per_op": total_ms("docstore.compile_path") / ops,
        "trace.coverage_frac": _ratio(covered, wall),
    }
