"""The AQUA engine benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tree_scan --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time (median of
five set-ups), throughput and read latency of a closed loop of
``--seconds`` seconds with tracing off, and peak memory.  Throughput
and the read percentiles are medians over five equal windows of the
loop, so a stretch of a run in which the host lends the process less
processor moves them less.  ``--trace 1``
sets up once with tracing on, runs the loop untraced and then traced
(half of ``--seconds`` each), and reports the per-layer metrics of the traced
loop plus the tracing overhead.  Every answer is checked against the
reference configuration (columnar off, exchange off, plan cache
bypassed) outside the timed region.  After the loop, each of the
workload's probes (shapes known to fail today) runs once, untimed; its
outcomes are checked too and reported apart from the loop's operations,
so ``attempted`` and ``failed`` count the loop alone.

The second-to-last line of standard output is a JSON report holding the
environment record, every end-to-end metric that applies to the
workload (write latency, ``read_p99_ms`` where a run has at least 1000
reads, ``error_rate`` and its structured/unstructured split), per-class
latencies, the probes' outcomes and error rate, and the metrics
tracing cannot measure from outside.  The last
line is the result object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: What an infinite latency percentile (one that lands on failed
#: operations) reads as in the result line, which must be strict JSON.
FAILED_LATENCY_MS = 1e12
#: ``read_p99_ms`` needs ten samples beyond it.
P99_MIN_READS = 1000
#: Equal windows of the timed loop; throughput and the read p50/p90 are
#: the medians of their values in each window.
WINDOWS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
    "read_p99_ms": "ms",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "error_rate": "fraction",
    "peak_rss_mb": "MB",
}

#: What the per-layer run cannot see from outside the program.
NOT_MEASURED = {
    "execute.per_operator_ms": "operators run inside PhysicalPlan.execute; "
    "only the whole pipeline is wrapped",
    "columnar.column_build_ms": "per-predicate columns build lazily inside "
    "the scan operators; only columnar_extent builds are timed",
    "exchange.shard_ms": "exchange shards run on threads the exchange starts "
    "itself; their spans carry no request",
}


def _clear_knobs() -> list[str]:
    """Drop inherited ``AQUA_*`` variables so the defaults are measured."""
    cleared = sorted(name for name in os.environ if name.startswith("AQUA_"))
    for name in cleared:
        del os.environ[name]
    return cleared


def environment(cleared: list[str]) -> dict:
    from repro import config, guardrails
    from repro.storage.columnar import resolve_backend

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    budget = guardrails.Budget.from_env()
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "columnar_backend": resolve_backend(),
        "cpu_count": os.cpu_count(),
        "recursion_limit": sys.getrecursionlimit(),
        "knobs": {
            "AQUA_EXECUTOR": config.validated_executor(),
            "AQUA_TREE_ENGINE": config.validated_tree_engine(),
            "AQUA_COLUMNAR": config.validated_columnar(),
            "AQUA_COLUMNAR_BACKEND": config.validated_columnar_backend(),
            "AQUA_COLUMNAR_THRESHOLD": config.validated_columnar_threshold(),
            "AQUA_PARALLEL": config.validated_parallel(),
            "AQUA_PARALLEL_WORKERS": config.validated_parallel_workers(),
            "AQUA_PARALLEL_MIN_ROWS": config.validated_parallel_min_rows(),
            "AQUA_PARALLEL_MODE": config.validated_parallel_worker_kind(),
            "AQUA_DFA_CACHE_LIMIT": config.validated_dfa_cache_limit(),
            "AQUA_FAULTS": os.environ.get(config.FAULTS_ENV),
            "budget": None if budget is None else repr(budget),
        },
        "cleared_inherited_knobs": cleared,
    }


# -- the closed loop --------------------------------------------------------------


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile; failed operations enter as +inf."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


class Loop:
    """The outcome of one timed closed loop."""

    def __init__(self) -> None:
        self.records: list[tuple] = []  # (op, ok, outcome, start, end)
        self.requests: set[int] = set()
        self.elapsed = 0.0

    @property
    def completed(self) -> int:
        return sum(1 for record in self.records if record[1])

    @property
    def throughput(self) -> float:
        return self.completed / self.elapsed if self.elapsed else 0.0

    def windows(self, count: int) -> list["Loop"]:
        """The loop cut into ``count`` equal spans of time; an operation
        belongs to the span in which it ended."""
        width = self.elapsed / count
        parts = [Loop() for _ in range(count)]
        first = self.records[0][3] if self.records else 0.0
        for record in self.records:
            index = min(count - 1, int((record[4] - first) / width)) if width else 0
            parts[index].records.append(record)
        for part in parts:
            part.elapsed = width
        return parts

    def latencies_ms(self, kind: str | None = None, cls: str | None = None) -> list[float]:
        return [
            (end - start) * 1e3 if ok else math.inf
            for op, ok, _, start, end in self.records
            if (kind is None or op.kind == kind) and (cls is None or op.cls == cls)
        ]


def closed_loop(workload, seconds: float, seed: int, base, tracer=None, ids=None) -> Loop:
    """``workload.clients`` callers, each sending its next operation only
    after the previous one returned, for ``seconds`` seconds of timed work.

    Each client reduces its answer to a digest after the operation's
    end was taken, so the run holds no answers and its memory does not
    grow with the number of operations.  A lone client digests with the
    clock paused (the time is taken off the recorded times and the
    deadline moved).  With several clients the clock runs on: digesting
    is this client's work between requests, as a real client handles
    what it got back, and is short next to a request.
    """
    from digest import Digester

    loop = Loop()
    ids = ids if ids is not None else itertools.count()
    lock = threading.Lock()
    inline = workload.clients == 1
    paused = 0.0
    deadline = time.perf_counter() + seconds

    def client(index: int) -> None:
        nonlocal paused, deadline
        operations = workload.operations(random.Random(seed * 7919 + index))
        local = []
        while time.perf_counter() < deadline:
            op = next(operations)
            request = next(ids)
            start = time.perf_counter()
            try:
                if tracer is None:
                    outcome = workload.execute(op)
                else:
                    with tracer.request(request):
                        outcome = workload.execute(op)
                ok = True
            except Exception as exc:  # counted as a failure, never hidden
                outcome, ok = exc.with_traceback(None), False
            end = time.perf_counter()
            workload.settle(op)
            shift = paused
            if ok and op.kind == "read":
                outcome = Digester(base).digest(outcome)
            if inline:
                pause = time.perf_counter() - end
                paused += pause
                deadline += pause
            local.append((op, ok, outcome, start - shift, end - shift))
            loop.requests.add(request)
        with lock:
            loop.records.extend(local)

    if inline:
        client(0)
    else:
        threads = [
            threading.Thread(target=client, args=(index,), name=f"perfbench-client-{index}")
            for index in range(workload.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    loop.records.sort(key=lambda record: record[3])
    if loop.records:
        loop.elapsed = max(r[4] for r in loop.records) - loop.records[0][3]
    return loop


def run_probes(workload, base) -> list[tuple]:
    """Each of the workload's probes once, untimed: ``(op, ok, outcome)``
    records with answers digested, as the loop keeps them."""
    from digest import Digester

    records = []
    for op in workload.probes:
        try:
            outcome, ok = Digester(base).digest(workload.execute(op)), True
        except Exception as exc:  # counted as a probe failure, never hidden
            outcome, ok = exc.with_traceback(None), False
        workload.settle(op)
        records.append((op, ok, outcome))
    return records


def probe_detail(probes: list[tuple]) -> dict:
    if not probes:
        return {}
    structured, unstructured = error_split(probes)
    return {
        "probe.ops": len(probes),
        "probe.error_rate": (structured + unstructured) / max(1, len(probes)),
        "probe.errors.structured": structured,
        "probe.errors.unstructured": unstructured,
        "probe.outcomes": {
            op.source: "ok" if ok else f"{type(outcome).__name__}: {outcome}"[:200]
            for op, ok, outcome in probes
        },
    }


def error_split(records: list[tuple]) -> tuple[int, int]:
    from repro.errors import AquaError

    structured = unstructured = 0
    for record in records:
        if not record[1]:
            if isinstance(record[2], AquaError):
                structured += 1
            else:
                unstructured += 1
    return structured, unstructured


def end_to_end(loop: Loop, setup_s: float) -> dict[str, float]:
    reads = loop.latencies_ms("read")
    writes = loop.latencies_ms("write")
    failed = sum(1 for record in loop.records if not record[1])
    windows = [window for window in loop.windows(WINDOWS) if window.latencies_ms("read")]
    metrics = {
        "setup_s": setup_s,
        "throughput_ops_s": statistics.median(w.throughput for w in windows),
        "read_p50_ms": statistics.median(
            percentile(w.latencies_ms("read"), 0.50) for w in windows),
        "read_p90_ms": statistics.median(
            percentile(w.latencies_ms("read"), 0.90) for w in windows),
    }
    if len(reads) >= P99_MIN_READS:
        metrics["read_p99_ms"] = percentile(reads, 0.99)
    if writes:
        metrics["write_p50_ms"] = percentile(writes, 0.50)
        metrics["write_p90_ms"] = percentile(writes, 0.90)
    metrics["error_rate"] = failed / max(1, len(loop.records))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def per_class(workload, loop: Loop) -> dict[str, float]:
    """Each class's median latency, operation count and share of the
    loop's busy time (the shares the workload's class counts state)."""
    out = {}
    busy = {name: 0.0 for name in workload.class_names}
    for op, _, _, start, end in loop.records:
        busy[op.cls] += end - start
    total = sum(busy.values()) or 1.0
    for name in workload.class_names:
        values = loop.latencies_ms(cls=name)
        if values:
            prefix = f"class.{workload.name}.{name}"
            out[f"{prefix}.p50_ms"] = percentile(values, 0.50)
            out[f"{prefix}.ops"] = len(values)
            out[f"{prefix}.time_share"] = busy[name] / total
    return out


def _reset_between_setups(workload) -> None:
    from repro.query.plan_cache import DEFAULT_CACHE

    workload.discard()
    # Each set-up starts as a fresh process would: no plans cached.
    DEFAULT_CACHE.clear()
    gc.collect()


# -- the two run kinds ------------------------------------------------------------


def timed_run(workload, seconds: float, seed: int) -> tuple[dict, dict, list[tuple], Any]:
    setups = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            _reset_between_setups(workload)
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    base = workload.primed_digester()
    loop = closed_loop(workload, seconds, seed, base)
    metrics = end_to_end(loop, sorted(setups)[len(setups) // 2])
    probes = run_probes(workload, base)
    structured, unstructured = error_split(loop.records)
    extra = {
        "setup_s_each": setups,
        "throughput_ops_s_whole_loop": loop.throughput,
        "throughput_ops_s_each_window": [w.throughput for w in loop.windows(WINDOWS)],
        "reads": len(loop.latencies_ms("read")),
        "writes": len(loop.latencies_ms("write")),
        "errors.structured": structured,
        "errors.unstructured": unstructured,
        **probe_detail(probes),
        **per_class(workload, loop),
    }
    return metrics, extra, loop.records, probes, base


def traced_run(workload, seconds: float, seed: int) -> tuple[dict, dict, list[tuple], Any]:
    from repro.query.plan_cache import DEFAULT_CACHE

    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    base = workload.primed_digester()
    ids = itertools.count()
    untraced = closed_loop(workload, seconds / 2, seed, base, ids=ids)

    stats_before = workload.db.stats.snapshot()
    cache_before = DEFAULT_CACHE.snapshot()
    bumps_before = tracer.bump_total()
    tracer.install()
    try:
        traced = closed_loop(workload, seconds / 2, seed, base, tracer=tracer, ids=ids)
    finally:
        tracer.uninstall()
    bumps = tracer.bump_total() - bumps_before
    stats_after = workload.db.stats.snapshot()
    cache_after = DEFAULT_CACHE.snapshot()

    counters = {k: v - stats_before.get(k, 0) for k, v in stats_after.items()}
    cache = {k: v - cache_before.get(k, 0) for k, v in cache_after.items()}
    ops = max(1, len(traced.records))
    metrics = layer_metrics(tracer, traced.requests, counters, cache)
    probes = run_probes(workload, base)
    # The error counts take in the probes: they are where today's known
    # failures show.
    structured, unstructured = error_split(traced.records + probes)
    metrics["stats.bumps_per_op"] = bumps / ops
    metrics["errors.structured"] = float(structured)
    metrics["errors.unstructured"] = float(unstructured)
    metrics["trace.overhead_frac"] = (
        1.0 - traced.throughput / untraced.throughput if untraced.throughput else 0.0
    )
    extra = {
        "untraced_throughput_ops_s": untraced.throughput,
        "traced_throughput_ops_s": traced.throughput,
        "traced_ops": len(traced.records),
        "spans": len(tracer.spans),
        "counters": counters,
        "plan_cache": cache,
        **probe_detail(probes),
        **per_class(workload, traced),
    }
    return metrics, extra, untraced.records + traced.records, probes, base


# -- entry point ------------------------------------------------------------------


def _finite(value: Any) -> Any:
    """The report as strict JSON: an infinite latency prints as "inf"."""
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite(item) for item in value]
    return value


def _strict(value: float) -> float:
    return FAILED_LATENCY_MS if math.isinf(value) else value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no engine source at {SOURCE}; run from a full checkout",
              file=sys.stderr)
        return 2
    cleared = _clear_knobs()
    if cleared:
        print(f"perfbench: cleared inherited knobs {cleared} to measure the defaults",
              file=sys.stderr)
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"
    ]
    units = {**END_TO_END_UNITS, **{m["name"]: m["unit"] for m in declared}}
    env = environment(cleared)
    workload = WORKLOADS[args.workload](args.seed)
    run = traced_run if args.trace else timed_run
    try:
        metrics, extra, records, probes, base = run(workload, args.seconds, args.seed)
    finally:
        workload.teardown()
    problems = workload.check(
        [(op, ok, outcome) for op, ok, outcome, _, _ in records] + probes, base
    )
    failed = sum(1 for record in records if not record[1])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in metrics.items()},
        "detail": extra,
        "not_measured": NOT_MEASURED if args.trace else {},
        "check_problems": problems[:20],
    }
    print(json.dumps({"report": _finite(report)}))
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": _strict(metrics[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(result, allow_nan=False))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
