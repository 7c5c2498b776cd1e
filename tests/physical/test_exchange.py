"""Parallel execution: morsel-driven exchange operators + ordered merge.

The exchange contract: with ``AQUA_PARALLEL=on`` and enough input, the
per-member work of ``select``/``apply`` fans out to worker shards and
the merged output is **bit-identical** to the sequential pipeline —
member order, equality notion, dedup, counters.  Budgets propagate to
workers through re-armed shard guards sharing one cumulative ledger
(the satellite-1 regression: a bare thread silently escaped
enforcement), and per-shard metrics roll up under the exchange's plan
path.
"""

import queue
import sys
import threading
import time
from collections import Counter
from types import SimpleNamespace

import pytest

from repro import config, guardrails
from repro.api import Session
from repro.core.identity import Record
from repro.errors import QueryCancelledError, QueryError, ResourceExhaustedError
from repro.guardrails import Budget, CancellationToken, Guard, current_guard, guarded
from repro.physical import ExecutionContext, lower
from repro.physical import exchange as X
from repro.physical import operators as P
from repro.predicates import attr
from repro.query import Q
from repro.query.explain import render_analysis
from repro.query.metrics import PlanMetrics
from repro.storage import Database
from repro.workloads import by_citizen_or_name, random_family_tree


def person_db(count: int = 300) -> Database:
    db = Database()
    db.insert_many(
        [Record(name=f"p{i}", age=i % 60, city=f"C{i % 20}") for i in range(count)],
        "Person",
    )
    return db


def family_db(count: int = 300, nodes: int = 14) -> Database:
    db = Database()
    db.insert_many(
        [random_family_tree(nodes, seed=s, planted_matches=1) for s in range(count)],
        "Families",
    )
    return db


def run_plan(expr, db, *, budget=None, metrics=None):
    plan = lower(expr, db)
    with guarded(budget) as guard:
        ctx = ExecutionContext(db=db, guard=guard, metrics=metrics)
        return plan.execute(ctx)


def parallel_scopes(workers=4, min_rows=4, mode="on", kind="threads"):
    from contextlib import ExitStack

    stack = ExitStack()
    stack.enter_context(config.parallel_scope(mode))
    stack.enter_context(config.parallel_workers_scope(workers))
    stack.enter_context(config.parallel_min_rows_scope(min_rows))
    stack.enter_context(config.parallel_worker_kind_scope(kind))
    return stack


SELECT = Q.extent("Person").sselect(attr("age") > 30).build()
APPLY = Q.extent("Person").sapply(lambda p: p.age % 7).build()


class TestMorsels:
    def test_morsels_are_contiguous_and_balanced(self):
        morsels = X.morsel_bounds(1000, 3)
        assert len(morsels) == 3 * X.MORSELS_PER_WORKER
        for (_, end), (start, _) in zip(morsels, morsels[1:]):
            assert end == start  # contiguous, no gap and no overlap
        sizes = [end - start for start, end in morsels]
        assert max(sizes) - min(sizes) <= 1

    def test_morsels_cover_every_position_in_order(self):
        morsels = X.morsel_bounds(1000, 3)
        positions = [i for start, end in morsels for i in range(start, end)]
        assert positions == list(range(1000))

    def test_never_more_morsels_than_rows(self):
        assert X.morsel_bounds(3, 4) == [(0, 1), (1, 2), (2, 3)]

    def test_cursor_hands_out_each_morsel_once(self):
        # More pullers than cores, switching threads as often as the
        # interpreter allows: a lost update would hand an index out
        # twice or skip one.
        pull = X.morsel_cursor(5000)
        seen: list[int] = []

        def drain():
            while (index := pull()) is not None:
                seen.append(index)

        threads = [threading.Thread(target=drain) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(seen) == list(range(5000))

    def test_workers_pull_around_a_slow_member(self):
        # Skew: member 0 is far slower than the rest.  The worker that
        # pulled the first morsel is stuck on it; its sibling must drain
        # every other morsel meanwhile instead of waiting on a fixed
        # partition behind it — and the first morsel, finishing last,
        # must still be emitted first.
        db = person_db()

        def skewed(person):
            if person.name == "p0":
                time.sleep(0.3)
            return person.age

        expr = Q.extent("Person").sapply(skewed).build()
        with parallel_scopes(mode="off"):
            sequential = run_plan(expr, db)
        metrics = PlanMetrics()
        with parallel_scopes(workers=2):
            parallel = run_plan(expr, db, metrics=metrics)
        assert list(parallel) == list(sequential)
        members = sorted(s["members"] for s in metrics.get(()).shards)
        first_morsel = X.morsel_bounds(300, 2)[0][1]
        assert members == [first_morsel, 300 - first_morsel]


class TestOrderedParity:
    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_select_bit_identical_across_worker_counts(self, workers):
        db = person_db()
        with parallel_scopes(mode="off"):
            sequential = run_plan(SELECT, db)
        with parallel_scopes(workers=workers):
            parallel = run_plan(SELECT, db)
        assert list(sequential) == list(parallel)
        assert sequential == parallel
        assert parallel.equality is sequential.equality or (
            type(parallel.equality) is type(sequential.equality)
        )

    @pytest.mark.parametrize("workers", [2, 7])
    def test_apply_dedups_globally_in_source_order(self, workers):
        # Images collide *across* shards (age % 7 has 7 distinct
        # values over 300 members) — per-shard dedup would emit
        # duplicates; dedup must happen at the merge, first-seen in
        # source position order.
        db = person_db()
        with parallel_scopes(mode="off"):
            sequential = run_plan(APPLY, db)
        with parallel_scopes(workers=workers):
            parallel = run_plan(APPLY, db)
        assert list(sequential) == list(parallel)

    def test_off_knob_runs_the_inherited_operator_with_zero_buffering(self):
        db = person_db()
        metrics = PlanMetrics()
        with parallel_scopes(mode="off"):
            result = run_plan(SELECT, db, metrics=metrics)
        root = metrics.get(())
        assert root.counters["exchange_fanouts"] == 0
        assert root.shards is None
        # The sequential leg never stages the full input (its only
        # buffer is the dedup seen-set, bounded by rows *kept*).
        assert root.peak_buffered < 300
        assert len(result) > 0

    def test_undersized_input_stays_sequential(self):
        db = person_db()
        metrics = PlanMetrics()
        with parallel_scopes(min_rows=1000):
            result = run_plan(SELECT, db, metrics=metrics)
        with parallel_scopes(mode="off"):
            sequential = run_plan(SELECT, db)
        assert list(result) == list(sequential)
        assert metrics.get(()).counters["exchange_fanouts"] == 0

    def test_small_extents_lower_to_the_plain_operator(self):
        # The static cost gate: a 40-member extent can never repay the
        # fan-out overhead, so the lowering keeps the sequential
        # operator (and its zero staging cost) outright.
        db = person_db(40)
        plan = lower(SELECT, db)
        assert type(plan.root) is P.SelectFilter
        big = lower(SELECT, person_db(300))
        assert type(big.root) is X.ParallelSelectFilter

    def test_exchange_counters_present_only_when_engaged(self):
        db = person_db()
        metrics = PlanMetrics()
        with parallel_scopes(workers=4):
            run_plan(SELECT, db, metrics=metrics)
        root = metrics.get(())
        assert root.counters["exchange_fanouts"] == 1
        assert root.counters["exchange_shards"] >= 2


class SpyQueue(queue.Queue):
    """A result queue that counts what the workers post, by kind."""

    instances: list["SpyQueue"] = []

    def __init__(self) -> None:
        super().__init__()
        self.posted: Counter = Counter()
        SpyQueue.instances.append(self)

    def put(self, item, *args, **kwargs) -> None:
        self.posted[item[0]] += 1
        super().put(item, *args, **kwargs)


class TestHandOff:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_one_message_per_morsel_not_per_row(self, monkeypatch, workers):
        monkeypatch.setattr(X, "queue", SimpleNamespace(Queue=SpyQueue))
        SpyQueue.instances = []
        rows = 1200
        db = person_db(rows)
        with parallel_scopes(mode="off"):
            sequential = run_plan(SELECT, db)
        with parallel_scopes(workers=workers):
            parallel = run_plan(SELECT, db)
        assert list(parallel) == list(sequential)
        (spy,) = SpyQueue.instances
        morsels = len(X.morsel_bounds(rows, workers))
        assert spy.posted["morsel"] == morsels
        assert spy.posted["done"] == workers
        assert sum(spy.posted.values()) <= morsels + workers + 1
        assert sum(spy.posted.values()) < rows // 10


def no_exchange_threads_left() -> bool:
    alive = [t for t in threading.enumerate() if t.name.startswith("aqua-exchange-")]
    return not alive and X.WORKER_BUDGET.outstanding == 0


def slow_age(person):
    time.sleep(0.001)
    return person.age


class TestWorkerHygiene:
    """Every exit path joins the workers and returns their slots."""

    def test_after_a_worker_budget_trip(self):
        db = person_db()

        def hot(person):
            current_guard().tick(50, "test payload")
            return person.age

        expr = Q.extent("Person").sapply(hot).build()
        with parallel_scopes():
            with pytest.raises(ResourceExhaustedError):
                run_plan(expr, db, budget=Budget(max_steps=2000))
        assert no_exchange_threads_left()

    def test_after_a_main_thread_trip(self):
        # max_results is checked on the query thread as it pulls the
        # exchange's output — the trip happens while workers still run.
        db = person_db()
        expr = Q.extent("Person").sapply(slow_age).build()
        with parallel_scopes():
            with pytest.raises(ResourceExhaustedError) as excinfo:
                run_plan(expr, db, budget=Budget(max_results=3))
        assert excinfo.value.limit_name == "max_results"
        assert no_exchange_threads_left()

    def test_after_the_consumer_closes_the_stream_early(self):
        db = person_db()
        plan = lower(Q.extent("Person").sapply(slow_age).build(), db)
        with parallel_scopes():
            plan.root.open(ExecutionContext(db=db))
            first = plan.root.next()
            plan.root.close()
        assert first == 0  # p0's age: the merge yields in source order
        assert no_exchange_threads_left()


class TestWorkerBudget:
    def test_acquire_grants_at_most_capacity(self):
        budget = X.WorkerBudget()
        assert budget.acquire(4, 4) == 4
        assert budget.acquire(4, 4) == 0
        budget.release(4)
        assert budget.acquire(2, 4) == 2
        budget.release(2)

    def test_exhausted_budget_degrades_to_sequential_bit_identically(self):
        db = person_db()
        with parallel_scopes(mode="off"):
            sequential = run_plan(SELECT, db)
        held = X.WORKER_BUDGET.acquire(4, 4)
        try:
            metrics = PlanMetrics()
            with parallel_scopes(workers=4):
                parallel = run_plan(SELECT, db, metrics=metrics)
            assert list(sequential) == list(parallel)
            assert metrics.get(()).counters["exchange_fanouts"] == 0
        finally:
            X.WORKER_BUDGET.release(held)

    def test_concurrent_exchanges_never_exceed_the_shared_capacity(self):
        # Two queries fanning out at once (the SessionPool composition
        # case) must jointly stay within the worker capacity.
        db = person_db(600)
        peak = {"outstanding": 0}
        lock = threading.Lock()
        original = X.WorkerBudget.acquire

        def tracking(self, requested, capacity):
            granted = original(self, requested, capacity)
            with lock:
                peak["outstanding"] = max(peak["outstanding"], self.outstanding)
            return granted

        X.WorkerBudget.acquire = tracking
        try:
            errors = []

            def client():
                try:
                    with parallel_scopes(workers=4):
                        run_plan(SELECT, db)
                except Exception as exc:  # pragma: no cover - fail loud
                    errors.append(exc)

            threads = [threading.Thread(target=client) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            assert peak["outstanding"] <= 4
        finally:
            X.WorkerBudget.acquire = original
        assert X.WORKER_BUDGET.outstanding == 0


class TestBudgetPropagation:
    """Satellite 1: the silent-unbudgeted-worker gap and its fix."""

    def test_bare_thread_has_no_guard_documenting_the_gap(self):
        seen = {}
        with guarded(Budget(max_steps=5)):

            def worker():
                seen["guard"] = current_guard()

            t = threading.Thread(target=worker)
            t.start()
            t.join()
        # guarded() is thread-local: a bare worker thread runs with NO
        # guard — this is the enforcement gap armed() exists to close.
        assert seen["guard"] is None

    def test_armed_installs_replaces_and_restores(self):
        outer = Guard(Budget(max_steps=100))
        inner = Guard(Budget(max_steps=5))
        with guardrails.armed(outer):
            assert current_guard() is outer
            with guardrails.armed(inner):
                assert current_guard() is inner
            assert current_guard() is outer
        assert current_guard() is None
        with guardrails.armed(None):
            assert current_guard() is None

    def test_armed_worker_thread_honors_the_budget(self):
        outcome = {}

        def worker():
            guard = Guard(Budget(max_steps=5))
            with guardrails.armed(guard):
                try:
                    for _ in range(10):
                        current_guard().tick(1, "worker step")
                    outcome["tripped"] = False
                except ResourceExhaustedError as exc:
                    outcome["tripped"] = True
                    outcome["limit"] = exc.limit_name

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert outcome == {"tripped": True, "limit": "max_steps"}

    def test_parallel_workers_honor_max_steps(self):
        db = person_db()

        def hot(person):
            guard = current_guard()
            assert guard is not None, "worker ran without an armed guard"
            guard.tick(50, "test payload")
            return person.age

        expr = Q.extent("Person").sapply(hot).build()
        with parallel_scopes():
            with pytest.raises(ResourceExhaustedError) as excinfo:
                run_plan(expr, db, budget=Budget(max_steps=2000))
        exc = excinfo.value
        assert exc.limit_name == "max_steps"
        assert getattr(exc, "tripping_shard", None) is not None

    def test_parallel_workers_honor_max_nodes_scanned(self):
        db = person_db()

        def scanning(person):
            current_guard().charge_nodes(10, "test scan")
            return person.age

        expr = Q.extent("Person").sapply(scanning).build()
        with parallel_scopes():
            with pytest.raises(ResourceExhaustedError) as excinfo:
                # Staging scans all 300 members (300 nodes); workers
                # then charge 10 per member, crossing 1000 quickly.
                run_plan(expr, db, budget=Budget(max_nodes_scanned=1000))
        assert excinfo.value.limit_name == "max_nodes_scanned"

    def test_parallel_workers_honor_cancellation(self):
        db = person_db()
        token = CancellationToken()

        def slow(person):
            token.cancel()  # first worker call cancels everyone
            guard = current_guard()
            if guard is not None:
                guard.tick(100, "test payload")
            return person.age

        expr = Q.extent("Person").sapply(slow).build()
        with parallel_scopes():
            with pytest.raises(QueryCancelledError):
                run_plan(expr, db, budget=Budget(token=token))

    def test_tripping_shard_attributed_in_partial_metrics(self):
        db = family_db()
        from repro.algebra.tree_ops import split_pieces

        def pieces(tree):
            return len(
                split_pieces(
                    "Brazil(!?* USA !?*)", tree, resolver=by_citizen_or_name
                )
            )

        expr = Q.extent("Families").sapply(pieces).build()
        metrics = PlanMetrics()
        with parallel_scopes():
            with pytest.raises(ResourceExhaustedError) as excinfo:
                run_plan(expr, db, budget=Budget(max_steps=2000), metrics=metrics)
        exc = excinfo.value
        shard = getattr(exc, "tripping_shard", None)
        assert shard is not None
        summaries = exc.metrics.get(()).shards
        assert summaries is not None
        by_id = {s["shard"]: s for s in summaries}
        assert by_id[shard]["tripped"]
        assert by_id[shard]["trip"] == "max_steps"

    def test_worker_spend_is_written_back_to_the_query_guard(self):
        db = person_db()

        def hot(person):
            current_guard().tick(10, "test payload")
            return person.age

        expr = Q.extent("Person").sapply(hot).build()
        plan_metrics = PlanMetrics()
        plan = lower(expr, db)
        with parallel_scopes():
            with guarded(Budget(max_steps=10**9)) as guard:
                plan.execute(
                    ExecutionContext(db=db, guard=guard, metrics=plan_metrics)
                )
                # 300 members x 10 ticks each, all flushed back into
                # the one query guard on the success path.
                assert guard.steps >= 3000

    def test_unbudgeted_parallel_run_works(self):
        db = person_db()
        with parallel_scopes():
            result = run_plan(SELECT, db)
        with parallel_scopes(mode="off"):
            sequential = run_plan(SELECT, db)
        assert list(result) == list(sequential)


class TestMetricsAndExplain:
    def test_counters_match_the_sequential_run(self):
        db = person_db()
        seq_metrics, par_metrics = PlanMetrics(), PlanMetrics()
        with parallel_scopes(mode="off"):
            run_plan(SELECT, db, metrics=seq_metrics)
        with parallel_scopes():
            run_plan(SELECT, db, metrics=par_metrics)
        sequential = dict(seq_metrics.get(()).counters)
        parallel = {
            name: value
            for name, value in par_metrics.get(()).counters.items()
            if not name.startswith(("exchange_", "parallel_"))
        }
        assert sequential == parallel

    def test_per_shard_summaries_partition_the_input(self):
        db = person_db()
        metrics = PlanMetrics()
        with parallel_scopes():
            result = run_plan(SELECT, db, metrics=metrics)
        summaries = metrics.get(()).shards
        assert summaries is not None
        assert sum(s["members"] for s in summaries) == 300
        assert sum(s["rows"] for s in summaries) == len(result)
        assert [s["shard"] for s in summaries] == sorted(s["shard"] for s in summaries)
        assert not any(s["tripped"] for s in summaries)

    def test_staged_input_is_an_honest_buffer(self):
        db = person_db()
        metrics = PlanMetrics()
        with parallel_scopes():
            run_plan(SELECT, db, metrics=metrics)
        # The exchange stages the full input before sharding; that
        # buffer must be reported, not hidden.
        assert metrics.get(()).peak_buffered >= 300

    def test_explain_analyze_renders_per_shard_rows(self):
        db = person_db()
        metrics = PlanMetrics()
        with parallel_scopes():
            run_plan(SELECT, db, metrics=metrics)
        report = render_analysis(SELECT, db, metrics, timings=False)
        assert "· shard 0" in report
        assert "[threads]" in report
        assert "members=" in report

    def test_merge_rolls_shard_registries_into_the_exchange_record(self):
        db = person_db()
        metrics = PlanMetrics()
        with parallel_scopes():
            run_plan(SELECT, db, metrics=metrics)
        root = metrics.get(())
        # Worker-side predicate evaluations were folded into the
        # exchange operator's own counters (once, not per shard twice).
        assert root.counters["predicate_evals"] == 300


class TestProcessMode:
    def test_process_parity_and_summaries(self):
        db = person_db()
        with parallel_scopes(mode="off"):
            sequential = run_plan(SELECT, db)
        metrics = PlanMetrics()
        with parallel_scopes(kind="processes"):
            parallel = run_plan(SELECT, db, metrics=metrics)
        assert list(sequential) == list(parallel)
        summaries = metrics.get(()).shards
        assert summaries and all(s["mode"] == "processes" for s in summaries)
        assert metrics.get(()).counters["predicate_evals"] == 300
        assert metrics.get(()).counters["parallel_process_fallbacks"] == 0

    def test_unpicklable_results_fall_back_to_threads(self):
        db = person_db()

        def unpicklable(person):
            return lambda: person.age  # lambdas cannot cross the pickle boundary

        expr = Q.extent("Person").sapply(unpicklable).build()
        metrics = PlanMetrics()
        with parallel_scopes(kind="processes"):
            result = run_plan(expr, db, metrics=metrics)
        assert len(result) > 0
        root = metrics.get(())
        assert root.counters["parallel_process_fallbacks"] == 1
        assert all(s["mode"] == "threads" for s in root.shards)

    def test_process_budget_trip_is_attributed(self):
        db = person_db()

        def hot(person):
            guard = current_guard()
            if guard is not None:
                guard.tick(50, "test payload")
            return person.age

        expr = Q.extent("Person").sapply(hot).build()
        with parallel_scopes(kind="processes"):
            with pytest.raises(ResourceExhaustedError) as excinfo:
                run_plan(expr, db, budget=Budget(max_steps=1000))
        assert excinfo.value.limit_name == "max_steps"
        assert getattr(excinfo.value, "tripping_shard", None) is not None


class TestSessionKnobs:
    def test_session_validates_parallel_naming_the_knob(self):
        with pytest.raises(QueryError, match=config.PARALLEL_ENV):
            Session(Database(), parallel="turbo")

    def test_session_validates_workers_naming_the_knob(self):
        with pytest.raises(QueryError, match=config.PARALLEL_WORKERS_ENV):
            Session(Database(), parallel_workers="many")
        with pytest.raises(QueryError, match=config.PARALLEL_WORKERS_ENV):
            Session(Database(), parallel_workers=0)

    def test_session_parallel_matches_sequential(self):
        db = person_db()
        on = Session(db, parallel="on", parallel_workers=4)
        off = Session(db, parallel="off")
        query = Q.extent("Person").sselect(attr("age") > 30)
        with config.parallel_min_rows_scope(4):
            assert list(on.query(query)) == list(off.query(query))

    def test_per_call_knob_beats_session_knob(self):
        db = person_db()
        session = Session(db, parallel="off")
        query = Q.extent("Person").sselect(attr("age") > 30)
        with config.parallel_min_rows_scope(4):
            _, metrics = session.query_with_metrics(
                query, parallel="on", parallel_workers=4
            )
        assert metrics.get(()).counters["exchange_fanouts"] == 1

    def test_snapshot_inherits_parallel_knobs(self):
        session = Session(person_db(), parallel="on", parallel_workers=2)
        snap = session.snapshot()
        assert snap.parallel == "on"
        assert snap.parallel_workers == 2
