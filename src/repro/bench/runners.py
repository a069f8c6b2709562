"""Named benchmark runners shared by the CLI and ``benchmarks/`` scripts.

Each runner builds its own workload, measures, and returns a
:class:`BenchReport`; callers decide where to write it.  The registry maps
the public benchmark name (as used by ``python -m repro bench <name>``)
to its runner, so the CLI, CI smoke jobs, and the pytest wrappers under
``benchmarks/`` all execute exactly the same measurement code.
"""

from __future__ import annotations

import gc
import os
import random
import time
from typing import Any, Callable, Mapping, Sequence

from .harness import (
    BenchReport,
    effective_cpu_count,
    standard_meta,
)


def active_execution_tier(tier: str = "vector") -> str:
    """The tier an Engine capped at *tier* actually runs at, so bench
    metadata records what was measured, not just what was requested."""
    from ..dsms.lowering import execution_tier

    return execution_tier(tier)["active"]


def _timed_feed(
    make_scenario: Callable[[], Any], reps: int, keep: bool = False
) -> tuple[float, list[dict], Any]:
    """Best-of-*reps* wall-clock seconds for feeding one fresh scenario.

    Every rep builds a fresh engine (sharded reps spawn fresh worker
    processes, so startup cost is outside the timed region: the clock
    starts at the first push).  Returns ``(best_seconds, rows, scenario)``
    where *scenario* is the last rep's fed scenario when ``keep`` is set
    (so callers can read operator statistics) and None otherwise — kept
    scenarios are not closed; the caller owns them.
    """
    best = float("inf")
    rows: list[dict] = []
    scenario = None
    for rep in range(reps):
        scenario = make_scenario()
        gc.disable()
        try:
            start = time.perf_counter()
            scenario.feed()
            seconds = time.perf_counter() - start
        finally:
            gc.enable()
        rows = scenario.rows()
        best = min(best, seconds)
        if keep and rep == reps - 1:
            break
        close = getattr(scenario.engine, "close", None)
        if close is not None:
            close()
    return best, rows, scenario if keep else None


# ---------------------------------------------------------------------------
# sharded_scaling — weak scaling of ShardedEngine on Example 6
# ---------------------------------------------------------------------------


def run_sharded_scaling(
    *,
    n_products: int = 150,
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    executor: str = "parallel",
    batch_size: int = 512,
    reps: int | None = None,
    seed: int = 122,
) -> BenchReport:
    """Example 6 SEQ weak-scaling across shard counts, with correctness.

    Each arm processes ``n_products * n_shards`` products — the workload
    grows with the shard count, so an arm always has enough tuples to
    amortize process hand-off (a fixed 298-tuple trace across 8 shards
    measured dispatch overhead, not scaling).  Under ideal weak scaling
    the wall-clock stays flat as shards grow; ``weak_efficiency`` is the
    smallest arm's seconds over this arm's seconds.

    Every arm is also timed against a single :class:`~repro.dsms.engine.
    Engine` on the *same* workload (``speedup_vs_single``), and the merged
    sharded output must equal the single-engine output row for row — a
    wrong-but-fast shard is a bug, not a result.  Arms with more shards
    than available CPUs are tagged ``cpu_limited`` so a flat-to-negative
    point on a starved host isn't read as a real regression.
    """
    from ..rfid import build_quality_check, build_quality_check_sharded
    from ..rfid import quality_check_workload

    if reps is None:
        reps = int(os.environ.get("REPRO_BENCH_REPS", "3"))
    cpus = effective_cpu_count()
    shard_counts = tuple(shard_counts)

    report = BenchReport(
        "sharded_scaling",
        meta=standard_meta(
            execution_tier=active_execution_tier(),
            pairing_tier=active_execution_tier(),
            workload="example6-quality",
            scaling_mode="weak",
            n_products_per_shard=n_products,
            executor=executor,
            batch_size=batch_size,
            reps=reps,
            cpu_limited=cpus < max(shard_counts),
            note=(
                "weak scaling: each arm feeds n_products_per_shard * "
                "n_shards products, so ideal scaling holds seconds flat "
                "as shards grow; arms with n_shards > cpu_count are "
                "tagged cpu_limited"
            ),
        ),
    )

    baseline_seconds: float | None = None
    for n_shards in shard_counts:
        workload = quality_check_workload(
            n_products=n_products * n_shards, seed=seed
        )
        n_tuples = len(workload.trace)
        single_seconds, reference_rows, _ = _timed_feed(
            lambda w=workload: build_quality_check(w), reps
        )
        sharded_seconds, rows, _ = _timed_feed(
            lambda w=workload, n=n_shards: build_quality_check_sharded(
                w, n_shards=n, executor=executor, batch_size=batch_size
            ),
            reps,
        )
        if rows != reference_rows:
            raise AssertionError(
                f"sharded output diverged from single engine at "
                f"{n_shards} shards ({len(rows)} vs {len(reference_rows)} rows)"
            )
        if baseline_seconds is None:
            baseline_seconds = sharded_seconds
        report.add_experiment(
            f"single-{n_shards}x",
            n_tuples=n_tuples,
            seconds=single_seconds,
            params={"engine": "Engine", "n_products": n_products * n_shards},
        )
        report.add_experiment(
            f"sharded-{n_shards}",
            n_tuples=n_tuples,
            seconds=sharded_seconds,
            shards=n_shards,
            params={
                "engine": "ShardedEngine",
                "executor": executor,
                "n_products": n_products * n_shards,
            },
            speedup_vs_single=(
                single_seconds / sharded_seconds if sharded_seconds else 0.0
            ),
            weak_efficiency=(
                baseline_seconds / sharded_seconds if sharded_seconds else 0.0
            ),
            cpu_limited=n_shards > cpus,
        )
    return report


def scaling_speedup(report: BenchReport, shards: int) -> float | None:
    """Speedup at *shards*: the arm's single-engine speedup for weak-scaling
    reports, or the curve point for (older) strong-scaling reports."""
    for entry in report.experiments:
        if entry.get("kind") == "scaling_curve":
            for point in entry["curve"]:
                if point["shards"] == shards:
                    return point["speedup"]
        elif entry.get("shards") == shards and "speedup_vs_single" in entry:
            return entry["speedup_vs_single"]
    return None


def weak_efficiency(report: BenchReport, shards: int) -> float | None:
    """Weak-scaling efficiency at *shards* (1.0 = perfectly flat)."""
    for entry in report.experiments:
        if entry.get("shards") == shards and "weak_efficiency" in entry:
            return entry["weak_efficiency"]
    return None


# ---------------------------------------------------------------------------
# vector_admission — columnar batch admission vs the scalar tuple path
# ---------------------------------------------------------------------------

_ADMISSION_SCHEMA = "tag_id int, pressure float, loc str"


def _admission_workload(
    n_rows: int, batch_rows: int, seed: int
) -> tuple[Any, list, list]:
    """A uniform-pressure readings trace, pre-shaped for every arm.

    Returns ``(schema, column_batches, row_records)`` where the batches
    and the flat ``(values, ts)`` record list carry identical rows —
    pressures are uniform on [0, 1), so a ``pressure < T`` filter admits
    a T fraction of them.  Shaping happens here, outside any timed
    region: the benchmark measures admission, not input marshalling.
    """
    import random

    from ..dsms.columns import ColumnBatch
    from ..dsms.schema import Schema

    rng = random.Random(seed)
    schema = Schema.parse(_ADMISSION_SCHEMA)
    locations = ("dock", "yard", "belt", "gate")
    rows = [
        (
            (index % 10_000, rng.random(), locations[index % 4]),
            float(index),
        )
        for index in range(n_rows)
    ]
    batches = [
        ColumnBatch.from_rows(schema, rows[start:start + batch_rows])
        for start in range(0, n_rows, batch_rows)
    ]
    return schema, batches, rows


def run_vectorized_admission(
    *,
    n_rows: int = 100_000,
    batch_rows: int = 512,
    selectivities: Sequence[float] = (0.01, 0.10, 0.50),
    reps: int | None = None,
    seed: int = 7,
) -> BenchReport:
    """Columnar vectorized admission vs the scalar compiled path.

    Both headline arms consume the *same* pre-built
    :class:`~repro.dsms.columns.ColumnBatch` stream through a compiled
    filter query; the only difference is the Engine's ``tier``:

    * ``scalar-*`` — ``tier="closure"``: every row materializes a
      ``Tuple`` and the compiled WHERE closure runs per tuple.
    * ``vectorized-*`` — ``tier="vector"``: the WHERE conjuncts evaluate
      once per batch over whole column arrays and only surviving rows
      materialize.

    A third ``rows-*`` arm feeds the identical records through the
    per-record ``push_batch`` path for context (what callers paid before
    batches stayed columnar).  Selectivity is the filter threshold itself
    (pressures are uniform on [0, 1)): at 1% the vectorized arm skips
    materializing ~99% of rows, which is where the win concentrates; at
    50% materialization dominates and the gap narrows.  Reps interleave
    across arms, and each selectivity asserts exact output equality
    between all three arms — same values, same timestamps, same order.
    """
    from ..dsms.engine import Engine

    if reps is None:
        reps = int(os.environ.get("REPRO_BENCH_REPS", "3"))
    selectivities = tuple(selectivities)
    _schema, batches, rows = _admission_workload(n_rows, batch_rows, seed)

    report = BenchReport(
        "vector_admission",
        meta=standard_meta(
            execution_tier=active_execution_tier(),
            pairing_tier=active_execution_tier(),
            workload="uniform-pressure-filter",
            n_rows=n_rows,
            batch_rows=batch_rows,
            selectivities=list(selectivities),
            reps=reps,
            note=(
                "single process; scalar and vectorized arms consume "
                "identical pre-built ColumnBatches through the same "
                "compiled filter query, differing only in the Engine's "
                "tier (closure vs vector); the rows arm is the "
                "per-record push_batch path for context"
            ),
        ),
    )

    def _make(tier: str, threshold: float) -> tuple[Any, Any]:
        engine = Engine(tier=tier)
        engine.create_stream("readings", _ADMISSION_SCHEMA)
        handle = engine.query(
            "SELECT tag_id, pressure FROM readings AS R "
            f"WHERE R.pressure < {threshold!r}"
        )
        return engine, handle

    arms = (
        ("scalar", "closure", "columns"),
        ("vectorized", "vector", "columns"),
        ("rows", "closure", "records"),
    )
    speedups: dict[float, float] = {}
    for threshold in selectivities:
        pct = f"{threshold * 100:g}pct"
        arm_seconds = {label: float("inf") for label, _, _ in arms}
        arm_rows: dict[str, list] = {}
        for _ in range(reps):
            for label, tier, shape in arms:
                engine, handle = _make(tier, threshold)
                gc.disable()
                try:
                    start = time.perf_counter()
                    if shape == "columns":
                        for batch in batches:
                            engine.push_columns("readings", batch)
                    else:
                        engine.push_batch("readings", rows)
                    seconds = time.perf_counter() - start
                finally:
                    gc.enable()
                arm_seconds[label] = min(arm_seconds[label], seconds)
                arm_rows[label] = [
                    (tup.values, tup.ts) for tup in handle.results
                ]
        reference = arm_rows["scalar"]
        for label, tier, shape in arms:
            if arm_rows[label] != reference:
                raise AssertionError(
                    f"{label} output diverged at selectivity {threshold} "
                    f"({len(arm_rows[label])} vs {len(reference)} rows)"
                )
            report.add_experiment(
                f"{label}-{pct}",
                n_tuples=n_rows,
                seconds=arm_seconds[label],
                params={
                    "selectivity": threshold,
                    "tier": tier,
                    "input_shape": shape,
                },
                rows_admitted=len(arm_rows[label]),
            )
        speedups[threshold] = (
            arm_seconds["scalar"] / arm_seconds["vectorized"]
            if arm_seconds["vectorized"]
            else 0.0
        )
    report.meta["speedup_vectorized_vs_scalar"] = speedups[selectivities[0]]
    report.meta["speedup_vectorized_vs_scalar_by_selectivity"] = {
        f"{threshold:g}": value for threshold, value in speedups.items()
    }
    return report


def vectorized_speedup(
    report: BenchReport, selectivity: float
) -> float | None:
    """Vectorized-over-scalar speedup at *selectivity*, if measured."""
    by_sel = report.meta.get("speedup_vectorized_vs_scalar_by_selectivity", {})
    value = by_sel.get(f"{selectivity:g}")
    return float(value) if value is not None else None


# ---------------------------------------------------------------------------
# pairing_kernels — vectorized masks on the SEQ match-enumeration path
# ---------------------------------------------------------------------------

_PAIRING_ARMS = (
    # (label, Engine tier).  The interpreted arm is the byte-identity
    # reference; "scalar" is the compiled-closure pairing loop (the
    # pre-mask hot path); "vector" adds the Python columnar stage masks.
    ("interpreted", "interpreted"),
    ("scalar", "closure"),
    ("vector", "vector"),
)


def _pairing_seq_workload(
    n_rows: int, batch_rows: int, rereads: int, tags: int, seed: int
) -> list[tuple[str, Any]]:
    """Dense re-read quality-SEQ trace: interleaved a/b ColumnBatches.

    Every logical reading is emitted *rereads* times (the RFID re-read
    burst of a tag sitting on a checkpoint reader) and tag cardinality
    is kept low, so each partition's history — and therefore every
    anchor's candidate slice — grows long enough that match enumeration,
    not admission, dominates the run.
    """
    from ..dsms.columns import ColumnBatch
    from ..dsms.schema import Schema

    rng = random.Random(seed)
    schema_a = Schema.parse("tag_id str, v float")
    schema_b = Schema.parse("tag_id str, w float")
    per_stream = n_rows // 2
    batches: list[tuple[str, Any]] = []
    ts = 0.0
    remaining = per_stream
    while remaining:
        count = min(batch_rows, remaining)
        block: dict[str, list[tuple[dict, float]]] = {"a": [], "b": []}
        for stream, field in (("a", "v"), ("b", "w")):
            rows = block[stream]
            while len(rows) < count:
                tag = f"t{rng.randrange(tags)}"
                base = rng.random()
                for _ in range(min(rereads, count - len(rows))):
                    # Re-reads jitter the measured value slightly, as a
                    # real reader would; timestamps stay strictly
                    # increasing across the whole trace (the a-block
                    # precedes its b-block, matching the push order).
                    value = min(1.0, base + rng.random() * 0.02)
                    rows.append(({"tag_id": tag, field: value}, ts))
                    ts += 1.0
        batches.append(("a", ColumnBatch.from_rows(schema_a, block["a"])))
        batches.append(("b", ColumnBatch.from_rows(schema_b, block["b"])))
        remaining -= count
    return batches


def run_pairing_kernels(
    *,
    n_rows: int = 20_000,
    batch_rows: int = 512,
    rereads: int = 3,
    tags: int = 8,
    window_s: float = 2_000.0,
    threshold: float = 0.85,
    reps: int | None = None,
    seed: int = 11,
) -> BenchReport:
    """Pairing-mask tiers on the SEQ match-enumeration hot path.

    All three arms consume identical pre-built ColumnBatches through the
    same windowed quality-SEQ query; only the Engine ``tier`` differs.  The
    query hash-partitions on the tag equality, leaving ``Y.w - X.v >
    threshold`` as the sole cross conjunct — deliberately *not*
    hoistable to admission, so every arm pays for it at pairing time:
    the scalar arm once per candidate (dict store + closure tree per
    row), the vector arm once per anchor as a columnar mask over the
    partition's history mirror.  Masks only prune; survivors re-run the
    scalar check, and every arm must produce the interpreted arm's rows
    byte-identically or the runner raises.
    """
    from ..dsms.engine import Engine

    if reps is None:
        reps = int(os.environ.get("REPRO_BENCH_REPS", "3"))

    report = BenchReport(
        "pairing_kernels",
        meta=standard_meta(
            execution_tier=active_execution_tier(),
            pairing_tier=active_execution_tier(),
            workload="dense-reread-quality-seq",
            n_rows=n_rows,
            batch_rows=batch_rows,
            rereads=rereads,
            tags=tags,
            window_s=window_s,
            threshold=threshold,
            reps=reps,
            cpu_limited=effective_cpu_count() < 2,
            note=(
                "single process; all arms consume identical pre-built "
                "ColumnBatches; the cross conjunct cannot hoist to "
                "admission, so the measured gap is the pairing loop "
                "itself"
            ),
        ),
    )

    batches = _pairing_seq_workload(n_rows, batch_rows, rereads, tags, seed)
    query = (
        "SELECT X.tag_id, X.v, Y.w FROM a AS X, b AS Y "
        f"WHERE SEQ(X, Y) OVER [{window_s:g} SECONDS PRECEDING Y] "
        "AND X.tag_id = Y.tag_id "
        f"AND Y.w - X.v > {threshold!r}"
    )

    results: dict[str, Any] = {}
    for _ in range(reps):
        for label, tier in _PAIRING_ARMS:
            engine = Engine(tier=tier)
            engine.create_stream("a", "tag_id str, v float")
            engine.create_stream("b", "tag_id str, w float")
            handle = engine.query(query)
            gc.disable()
            try:
                start = time.perf_counter()
                for stream, batch in batches:
                    engine.push_columns(stream, batch)
                seconds = time.perf_counter() - start
            finally:
                gc.enable()
            rows = [(tup.values, tup.ts) for tup in handle.results]
            best = results.get(label)
            if best is None or seconds < best[0]:
                results[label] = (seconds, rows)
            else:
                results[label] = (best[0], rows)
    reference = results["interpreted"][1]
    for label, (_s, rows) in results.items():
        if rows != reference:
            raise AssertionError(
                f"{label} output diverged "
                f"({len(rows)} vs {len(reference)} rows)"
            )
    for label, (seconds, rows) in results.items():
        report.add_experiment(
            f"{label}-pairing",
            n_tuples=n_rows,
            seconds=seconds,
            params={"workload": "dense-reread-quality-seq", "tier": label},
            rows_admitted=len(rows),
        )
    scalar_s = results["scalar"][0]
    report.meta["speedup_vector_vs_scalar_pairing"] = (
        scalar_s / results["vector"][0] if results["vector"][0] else 0.0
    )
    return report


def pairing_speedup(report: BenchReport) -> float | None:
    """Pairing speedup of the vector arm over scalar, if measured."""
    value = report.meta.get("speedup_vector_vs_scalar_pairing")
    return float(value) if value is not None else None


# ---------------------------------------------------------------------------
# fault_tolerance — checkpoint overhead and crash-recovery latency
# ---------------------------------------------------------------------------


def run_fault_tolerance(
    *,
    n_products: int = 1500,
    n_shards: int = 2,
    batch_size: int = 64,
    checkpoint_intervals: Sequence[float] = (1.0, 10.0),
    reps: int | None = None,
    seed: int = 99,
) -> BenchReport:
    """Cost and latency of the fault-tolerance layer on Example 6.

    Two questions, one workload (the quality-check trace, hash-sharded by
    tagid over persistent pipe workers):

    **What does protection cost when nothing fails?**  Four arms feed the
    identical trace: ``fail-fast`` (flag off — the pre-existing hot path
    and the overhead baseline), ``ft-off`` (``fault_tolerance="restart"``
    with replay logging but no checkpoints), and one ``ft-<interval>s``
    arm per entry of *checkpoint_intervals* (periodic stream-time shard
    checkpoints; the trace's stream time is normalized to a 60 s span, so
    the 1 s arm cuts ~60 checkpoints and the 10 s arm ~6 — aggressive
    and relaxed cadences over the same records).
    Checkpointing drains the pipeline before cutting state, so tight
    intervals surrender exactly the latency hiding the transport buys;
    the per-arm overhead ratio quantifies that trade.

    **How long does a crash cost?**  A ``FaultPlan`` SIGTERMs one worker
    mid-trace under ``restart``; the run is timed end to end and the
    supervisor's recovery latency (respawn + checkpoint restore + replay)
    is read from :meth:`~repro.ShardedEngine.fault_stats`.  One recovery
    arm replays from the trace start (no checkpoints), one restores the
    latest periodic checkpoint first.

    Every arm — faulted or not — must produce the single-engine reference
    rows exactly; divergence raises.  Wall-clock ratios on hosts without
    ``n_shards + 1`` free cores are tagged ``cpu_limited``: there the
    drain stalls of tight checkpointing don't cost extra (the pipeline
    never overlapped to begin with), so overhead reads optimistic.
    """
    from ..dsms.faults import FaultPlan
    from ..rfid import build_quality_check, build_quality_check_sharded
    from ..rfid import quality_check_workload

    if reps is None:
        reps = int(os.environ.get("REPRO_BENCH_REPS", "3"))
    cpus = effective_cpu_count()
    checkpoint_intervals = tuple(checkpoint_intervals)
    # Normalize stream time to a fixed span so the checkpoint intervals
    # mean the same cadence at every workload size: 60 s of stream time
    # makes the 1 s arm checkpoint ~60 times (aggressive) and the 10 s
    # arm ~6 times (relaxed).  Scaling every ts/tagtime by one monotone
    # factor preserves SEQ order, ties, and hash routing exactly.
    raw = quality_check_workload(n_products=n_products, seed=seed)
    span = raw.trace[-1][2] - raw.trace[0][2]
    scale = 60.0 / span if span else 1.0
    workload = type(raw)(
        [
            (stream, dict(values, tagtime=values["tagtime"] * scale),
             ts * scale)
            for stream, values, ts in raw.trace
        ],
        raw.truth,
    )
    n_tuples = len(workload.trace)
    span = workload.trace[-1][2] - workload.trace[0][2]
    # A sliding window bounds operator state (products complete in well
    # under 5 s of normalized stream time), so a checkpoint's cost is
    # O(window contents), not O(everything seen so far) — matching how a
    # long-running deployment would actually run.
    window_s = 5.0

    report = BenchReport(
        "fault_tolerance",
        meta=standard_meta(
            execution_tier=active_execution_tier(),
            pairing_tier=active_execution_tier(),
            workload="example6-quality",
            n_products=n_products,
            n_shards=n_shards,
            batch_size=batch_size,
            checkpoint_intervals=list(checkpoint_intervals),
            stream_time_span_s=span,
            reps=reps,
            cpu_limited=cpus < n_shards + 1,
            note=(
                "checkpoint overhead: identical trace, fault_tolerance "
                "and checkpoint_interval vary, zero faults injected; "
                "recovery: one worker SIGTERMed mid-trace, latency is "
                "the supervisor's respawn+restore+replay time; every "
                "arm's merged rows must equal the single-engine "
                "reference"
            ),
        ),
    )

    def _build(**kwargs: Any) -> Any:
        # Fixed-size batches keep the per-shard frame count deterministic,
        # so the kill trigger (counted in data frames) lands at the same
        # trace position every rep.
        return build_quality_check_sharded(
            workload,
            n_shards=n_shards,
            executor="parallel",
            batch_size=batch_size,
            adaptive_batch=False,
            window_minutes=window_s / 60.0,
            **kwargs,
        )

    single_seconds, reference_rows, _ = _timed_feed(
        lambda: build_quality_check(workload, window_minutes=window_s / 60.0),
        reps,
    )
    report.add_experiment(
        "single",
        n_tuples=n_tuples,
        seconds=single_seconds,
        params={"engine": "Engine"},
    )

    overhead_arms: list[tuple[str, dict[str, Any]]] = [
        ("fail-fast", {}),
        ("ft-off", {"fault_tolerance": "restart"}),
    ]
    for interval in checkpoint_intervals:
        overhead_arms.append((
            f"ft-{interval:g}s",
            {"fault_tolerance": "restart", "checkpoint_interval": interval},
        ))

    arm_seconds = {label: float("inf") for label, _ in overhead_arms}
    arm_stats: dict[str, dict[str, Any]] = {}
    for _ in range(reps):
        for label, kwargs in overhead_arms:
            scenario = _build(**kwargs)
            engine = scenario.engine.start()
            gc.disable()
            try:
                start = time.perf_counter()
                scenario.feed()
                seconds = time.perf_counter() - start
            finally:
                gc.enable()
            rows = scenario.rows()
            arm_stats[label] = engine.fault_stats()
            engine.close()
            if rows != reference_rows:
                raise AssertionError(
                    f"{label} output diverged from single engine "
                    f"({len(rows)} vs {len(reference_rows)} rows)"
                )
            arm_seconds[label] = min(arm_seconds[label], seconds)

    baseline = arm_seconds["fail-fast"]
    overheads: dict[str, float] = {}
    for label, kwargs in overhead_arms:
        stats = arm_stats[label]
        overhead = (
            arm_seconds[label] / baseline - 1.0 if baseline else 0.0
        )
        overheads[label] = overhead
        report.add_experiment(
            f"overhead-{label}",
            n_tuples=n_tuples,
            seconds=arm_seconds[label],
            shards=n_shards,
            params={
                "engine": "ShardedEngine",
                "fault_tolerance": kwargs.get("fault_tolerance", "fail_fast"),
                "checkpoint_interval": kwargs.get("checkpoint_interval"),
            },
            overhead_vs_fail_fast=overhead,
            checkpoints=stats["checkpoints"],
            cpu_limited=cpus < n_shards + 1,
        )

    recovery_arms: list[tuple[str, float | None]] = [
        ("replay-from-start", None),
        (f"restore-{checkpoint_intervals[-1]:g}s", checkpoint_intervals[-1]),
    ]
    victim = n_shards - 1
    # Land the kill mid-trace: roughly half the data frames a shard will
    # see (records hash-split across shards, one frame per full batch).
    kill_after = max(1, n_tuples // (n_shards * batch_size) // 2)
    for label, interval in recovery_arms:
        best_seconds = float("inf")
        latencies: list[float] = []
        recoveries = 0
        for _ in range(reps):
            plan = FaultPlan().kill_worker(victim, after_batches=kill_after)
            scenario = _build(
                fault_tolerance="restart",
                checkpoint_interval=interval,
                fault_plan=plan,
            )
            engine = scenario.engine.start()
            gc.disable()
            try:
                start = time.perf_counter()
                scenario.feed()
                seconds = time.perf_counter() - start
            finally:
                gc.enable()
            rows = scenario.rows()
            stats = engine.fault_stats()
            engine.close()
            if rows != reference_rows:
                raise AssertionError(
                    f"{label} output diverged after recovery "
                    f"({len(rows)} vs {len(reference_rows)} rows)"
                )
            if stats["recoveries"] < 1:
                raise AssertionError(
                    f"{label}: injected kill never triggered a recovery "
                    f"(events: {stats['events']})"
                )
            recoveries += stats["recoveries"]
            latencies.extend(
                event["latency_s"]
                for event in stats["events"]
                if event.get("action") == "recovered"
            )
            best_seconds = min(best_seconds, seconds)
        report.add_experiment(
            f"recovery-{label}",
            n_tuples=n_tuples,
            seconds=best_seconds,
            shards=n_shards,
            params={
                "engine": "ShardedEngine",
                "fault_tolerance": "restart",
                "checkpoint_interval": interval,
                "kill_after_batches": kill_after,
                "victim_shard": victim,
            },
            recoveries=recoveries,
            recovery_latency_s=min(latencies),
            recovery_latency_mean_s=sum(latencies) / len(latencies),
            cpu_limited=cpus < n_shards + 1,
        )

    report.meta["overhead_by_arm"] = overheads
    report.meta["checkpoint_overhead"] = overheads[
        f"ft-{checkpoint_intervals[-1]:g}s"
    ]
    return report


def checkpoint_overhead(report: BenchReport, interval: float) -> float | None:
    """Wall-clock overhead ratio of the ``ft-<interval>s`` arm over the
    ``fail-fast`` baseline, if measured."""
    value = report.meta.get("overhead_by_arm", {}).get(f"ft-{interval:g}s")
    return float(value) if value is not None else None


# ---------------------------------------------------------------------------
# multi_query — shared registry execution vs one engine per query
# ---------------------------------------------------------------------------


def run_multi_query(
    *,
    query_counts: Sequence[int] = (1_000, 10_000, 100_000),
    n_rows: int = 2_000,
    naive_at: int = 1_000,
    verify_sample: int = 25,
    dedup_queries: int = 1_000,
    reps: int | None = None,
    seed: int = 11,
) -> BenchReport:
    """Shared multi-query execution vs one plain Engine per query.

    The workload is the paper's deployment shape: N registered continuous
    queries (one per tag of interest) over one RFID ``readings`` stream.
    Every arm feeds the identical trace and the harness asserts that a
    sample of subscriptions is byte-identical — same values, same
    timestamps, same order — to an independent single-engine run of the
    same query text, plus an exact answer-count check across *all*
    subscriptions.

    * ``shared-N`` — one Engine + QueryRegistry with N registered
      queries.  Tag-equality predicates hoist into the router's hash
      index, so per-tuple dispatch cost is one lookup, independent of N.
    * ``naive-N`` — the baseline: N plain Engines built here, one query
      each, every tuple pushed N times (only run up to *naive_at*
      queries; beyond that it is pointless to wait for).

    Registration (parse + compile, once per query) is timed separately
    and reported as ``register_seconds`` — the headline arm seconds
    measure steady-state feed throughput only, which is what a running
    deployment pays per tuple.

    A final pair of ``dedup-*`` arms registers *dedup_queries* identical
    SEQ queries: sub-plan dedup collapses them onto one operator
    (``shared_plans == 1``), against the distinct-filter arm where every
    plan is unique.

    Both arms are single-process and single-threaded, so the measured
    speedup does not depend on free cores; ``cpu_limited`` is always
    False for this report.
    """
    from ..dsms.engine import Engine
    from ..dsms.multi_engine import MultiQueryEngine

    if reps is None:
        reps = int(os.environ.get("REPRO_BENCH_REPS", "3"))
    query_counts = tuple(query_counts)
    max_queries = max(query_counts)

    schema = "reader_id str, tag_id str, read_time float"

    def query_text(i: int) -> str:
        return (
            "SELECT reader_id, tag_id, read_time FROM readings "
            f"WHERE tag_id = 't{i:06d}'"
        )

    # Rows cycle the registered tag universe with a coprime stride, so
    # matches spread across queries: each row answers exactly one query.
    rng = random.Random(seed)
    stride = 7919  # prime, coprime with the power-of-ten query counts
    rows = [
        (
            (f"r{rng.randrange(8)}", f"t{(j * stride) % max_queries:06d}", float(j)),
            float(j),
        )
        for j in range(n_rows)
    ]

    def rows_for(count: int, offset: float) -> list:
        # Re-key tags into [0, count) so every scale sees the same match
        # density (one query answered per row), and shift timestamps so
        # one engine can replay the trace across reps monotonically.
        return [
            ((reader, f"t{int(tag[1:]) % count:06d}", ts), ts + offset)
            for (reader, tag, ts), _ in rows
        ]

    report = BenchReport(
        "multi_query",
        meta=standard_meta(
            execution_tier=active_execution_tier(),
            pairing_tier=active_execution_tier(),
            workload="per-tag filter queries over one readings stream",
            query_counts=list(query_counts),
            n_rows=n_rows,
            naive_at=naive_at,
            reps=reps,
            verify_sample=verify_sample,
            cpu_limited=False,
            note=(
                "single process, single thread in every arm; arm seconds "
                "are steady-state feed time only — per-query compile cost "
                "is reported separately as register_seconds"
            ),
        ),
    )

    def _verify(subs: list, count: int, trace: list) -> None:
        expected: dict[str, int] = {}
        for (_reader, tag, _rt), _ts in trace:
            expected[tag] = expected.get(tag, 0) + 1
        for i, sub in enumerate(subs):
            want = expected.get(f"t{i:06d}", 0)
            if len(sub.results) != want:
                raise AssertionError(
                    f"query {i} of {count}: {len(sub.results)} answers, "
                    f"expected {want}"
                )
        sample = range(0, count, max(1, count // verify_sample))
        for i in sample:
            engine = Engine()
            engine.create_stream("readings", schema)
            handle = engine.query(query_text(i))
            engine.push_batch("readings", trace)
            reference = [(tup.values, tup.ts) for tup in handle.results]
            got = [(tup.values, tup.ts) for tup in subs[i].results]
            if got != reference:
                raise AssertionError(
                    f"query {i} of {count} diverged from a single-engine "
                    f"run ({len(got)} vs {len(reference)} rows)"
                )

    speedups: dict[int, float] = {}
    shared_seconds: dict[int, float] = {}
    for count in query_counts:
        mq = MultiQueryEngine()
        mq.create_stream("readings", schema)
        start = time.perf_counter()
        subs = [mq.register(query_text(i)) for i in range(count)]
        register_seconds = time.perf_counter() - start
        best = float("inf")
        for rep in range(reps):
            trace = rows_for(count, offset=rep * (n_rows + 1.0))
            gc.disable()
            try:
                start = time.perf_counter()
                mq.push_batch("readings", trace)
                seconds = time.perf_counter() - start
            finally:
                gc.enable()
            best = min(best, seconds)
            if rep == 0:
                _verify(subs, count, trace)
            for sub in subs:
                sub.clear()
        stats = mq.stats()
        mq.close()
        shared_seconds[count] = best
        report.add_experiment(
            f"shared-{count}",
            n_tuples=n_rows,
            seconds=best,
            params={"queries": count, "mode": "shared"},
            register_seconds=register_seconds,
            indexed_entries=stats["indexed_entries"],
            residual_entries=stats["residual_entries"],
            deliveries=stats["deliveries"],
        )

        if count > naive_at:
            continue
        engines = []
        handles = []
        start = time.perf_counter()
        for i in range(count):
            engine = Engine()
            engine.create_stream("readings", schema)
            handles.append(engine.query(query_text(i)))
            engines.append(engine)
        register_seconds = time.perf_counter() - start
        best = float("inf")
        for rep in range(reps):
            trace = rows_for(count, offset=rep * (n_rows + 1.0))
            gc.disable()
            try:
                start = time.perf_counter()
                for engine in engines:
                    engine.push_batch("readings", trace)
                seconds = time.perf_counter() - start
            finally:
                gc.enable()
            best = min(best, seconds)
            if rep == 0:
                _verify(handles, count, trace)
            for handle in handles:
                handle.clear()
        report.add_experiment(
            f"naive-{count}",
            n_tuples=n_rows,
            seconds=best,
            params={"queries": count, "mode": "naive"},
            register_seconds=register_seconds,
        )
        speedups[count] = best / shared_seconds[count] if shared_seconds[count] else 0.0

    # Sub-plan dedup: identical SEQ queries collapse onto one operator.
    seq_text = (
        "SELECT S.tag_id, E.read_time FROM readings AS S, readings AS E "
        "WHERE SEQ(S, E) OVER [60 SECONDS PRECEDING E] "
        "AND S.tag_id = E.tag_id AND S.reader_id = 'r0'"
    )
    mq = MultiQueryEngine()
    mq.create_stream("readings", schema)
    subs = [mq.register(seq_text) for _ in range(dedup_queries)]
    dedup_plans = mq.stats()["shared_plans"]
    best = float("inf")
    for rep in range(reps):
        trace = rows_for(max(dedup_queries, 1), offset=rep * (n_rows + 1.0))
        gc.disable()
        try:
            start = time.perf_counter()
            mq.push_batch("readings", trace)
            seconds = time.perf_counter() - start
        finally:
            gc.enable()
        best = min(best, seconds)
        if rep == 0:
            engine = Engine()
            engine.create_stream("readings", schema)
            handle = engine.query(seq_text)
            engine.push_batch("readings", trace)
            reference = [(tup.values, tup.ts) for tup in handle.results]
            for sub in subs[:verify_sample]:
                if [(tup.values, tup.ts) for tup in sub.results] != reference:
                    raise AssertionError("dedup fan-out diverged")
        for sub in subs:
            sub.clear()
    mq.close()
    if dedup_plans != 1:
        raise AssertionError(
            f"{dedup_queries} identical queries produced {dedup_plans} plans"
        )
    report.add_experiment(
        f"dedup-seq-{dedup_queries}",
        n_tuples=n_rows,
        seconds=best,
        params={"queries": dedup_queries, "mode": "shared-dedup"},
        shared_plans=dedup_plans,
    )

    headline = min(speedups) if speedups else None
    report.meta["speedup_shared_vs_naive"] = (
        speedups[headline] if headline is not None else None
    )
    report.meta["speedup_shared_vs_naive_by_queries"] = {
        str(count): value for count, value in speedups.items()
    }
    return report


def multi_query_speedup(report: BenchReport, queries: int) -> float | None:
    """Shared-over-naive speedup at *queries* registered queries, if run."""
    by_count = report.meta.get("speedup_shared_vs_naive_by_queries", {})
    value = by_count.get(str(queries))
    return float(value) if value is not None else None


BENCH_RUNNERS: Mapping[str, Callable[..., BenchReport]] = {
    "sharded_scaling": run_sharded_scaling,
    "vector_admission": run_vectorized_admission,
    "pairing_kernels": run_pairing_kernels,
    "fault_tolerance": run_fault_tolerance,
    "multi_query": run_multi_query,
}
