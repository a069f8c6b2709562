"""A6 — ablation: compiled execution fast path vs. interpreted AST walk.

Regenerates: the cost of interpreting expression trees per tuple.  The
same two workloads run twice each — once on an engine built with
``tier="interpreted"`` and fed tuple-by-tuple through
:meth:`Engine.push` (the interpreted baseline: AST walks for every
predicate, full clock advancement and stream lookup per record), and once
on the default compiled engine fed through :meth:`Engine.run_trace`
(closure-compiled predicates, per-subscription operator dispatch, fused
batch ingestion).

Workloads:

* **quality** — Example 6's four-stream SEQ with a tagid equality chain
  (hoisted to ``partition_by`` in both arms, so the speedup isolates the
  runtime fast path rather than guard compilation).
* **dedup** — Example 1's windowed ``NOT EXISTS`` duplicate filter,
  where the residual predicate really is interpreted vs. compiled.

Expected shape: identical result rows in both arms, and compiled
throughput at least ``MIN_RATIO`` times the interpreted throughput
(typically 2x or better on both workloads).  Results are also written to
``BENCH_compiled_vs_interpreted.json`` via :class:`repro.bench.BenchReport`
for the perf-trajectory archive.

Methodology notes: the two arms are interleaved within each repetition
(so thermal/background drift hits both equally), the timed region runs
with GC disabled, and each arm's best (minimum) time across repetitions
is what's compared — the standard way to reject scheduler noise when
benchmarking CPython.
"""

from __future__ import annotations

import gc
import os
import time

from repro.bench import BenchReport, ResultTable
from repro.rfid import (
    build_dedup,
    build_quality_check,
    dedup_workload,
    quality_check_workload,
)

# Repetitions for best-of-N timing; override with REPRO_BENCH_REPS for
# quick smoke runs (CI uses 3).
REPS = int(os.environ.get("REPRO_BENCH_REPS", "7"))

# Conservative floor for the assertion: measured ratios sit around 2x,
# but a loaded CI box deserves headroom before the run goes red.
MIN_RATIO = 1.4


def _run_interpreted(build, workload):
    """Seed-style execution: AST walks + per-record Engine.push."""
    scn = build(workload, tier="interpreted")
    push = scn.engine.push
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        for stream_name, values, ts in workload.trace:
            push(stream_name, values, ts)
        scn.engine.flush()
        elapsed = time.perf_counter() - started
    finally:
        gc.enable()
    return scn.rows(), elapsed


def _run_compiled(build, workload):
    """Fast path: compiled expressions + batched trace ingestion."""
    scn = build(workload)
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        scn.engine.run_trace(workload.trace)
        scn.engine.flush()
        elapsed = time.perf_counter() - started
    finally:
        gc.enable()
    return scn.rows(), elapsed, scn


def _sample_latencies(build, workload):
    """Per-tuple delivery latencies (seconds) on the compiled path.

    Times each record individually through the same ingester closures
    ``run_trace`` uses; a separate pass from the throughput runs so the
    per-record clock reads never pollute the batch timing.
    """
    scn = build(workload)
    engine = scn.engine
    ingesters = {}
    get = engine.streams.get
    advance = engine.clock.advance_if_due
    clock = time.perf_counter
    latencies = []
    append = latencies.append
    for stream_name, values, ts in workload.trace:
        ingest = ingesters.get(stream_name)
        if ingest is None:
            ingest = ingesters[stream_name] = get(stream_name).batch_ingester()
        started = clock()
        advance(ts)
        ingest(values, ts)
        append(clock() - started)
    engine.flush()
    return latencies


def _measure(build, workload):
    """Interleaved best-of-REPS comparison of the two arms."""
    best_interp = float("inf")
    best_comp = float("inf")
    last_scn = None
    for _ in range(REPS):
        rows_i, secs_i = _run_interpreted(build, workload)
        rows_c, secs_c, last_scn = _run_compiled(build, workload)
        assert rows_c == rows_i, (
            "compiled and interpreted paths disagree: "
            f"{len(rows_c)} vs {len(rows_i)} rows"
        )
        best_interp = min(best_interp, secs_i)
        best_comp = min(best_comp, secs_c)
    return best_interp, best_comp, len(rows_i), last_scn


def test_compiled_vs_interpreted(table_printer):
    table = ResultTable(
        "A6  Compiled fast path vs interpreted AST walk",
        ["workload", "tuples", "rows", "interp_ms", "compiled_ms", "speedup"],
    )
    report = BenchReport(
        "compiled_vs_interpreted",
        meta={"reps": REPS, "best_of": True, "gc_disabled": True},
    )

    cases = [
        (
            "quality_seq",
            build_quality_check,
            quality_check_workload(n_products=400, seed=122),
        ),
        (
            "dedup_exists",
            build_dedup,
            dedup_workload(n_tags=60, presences_per_tag=4, dwell=1.0, seed=72),
        ),
    ]

    ratios = {}
    for label, build, workload in cases:
        n_tuples = len(workload.trace)
        secs_i, secs_c, n_rows, scn = _measure(build, workload)
        latencies = _sample_latencies(build, workload)
        operator = getattr(scn.handle, "operator", None)
        state = operator.state_size if operator is not None else None
        ratio = secs_i / secs_c if secs_c > 0 else float("inf")
        ratios[label] = ratio
        table.add(
            label, n_tuples, n_rows, secs_i * 1000, secs_c * 1000, ratio
        )
        report.add_experiment(
            f"{label}:interpreted",
            n_tuples=n_tuples,
            seconds=secs_i,
            params={"tier": "interpreted", "ingestion": "push"},
            rows=n_rows,
        )
        report.add_experiment(
            f"{label}:compiled",
            n_tuples=n_tuples,
            seconds=secs_c,
            latencies_s=latencies,
            state_size=state,
            params={"tier": "vector", "ingestion": "run_trace"},
            rows=n_rows,
            speedup_vs_interpreted=ratio,
        )

    path = report.write()
    table_printer(table)
    print(f"wrote {path}")

    for label, ratio in ratios.items():
        assert ratio >= MIN_RATIO, (
            f"{label}: compiled path only {ratio:.2f}x faster than "
            f"interpreted (floor {MIN_RATIO}x)"
        )
