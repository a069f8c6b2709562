"""Named benchmark runners shared by the CLI and ``benchmarks/`` scripts.

Each runner is a workload, a query, a table of labelled arms and the
report rows built from them; the measurement loop itself lives once, in
:func:`run_arms`.  The registry maps the public benchmark name (as used
by ``python -m repro bench <name>``) to its runner, so the CLI, CI smoke
jobs, and the pytest wrappers under ``benchmarks/`` all execute exactly
the same measurement code.

These two are ablations of this implementation's own layers; the paper
queries are timed end to end by ``benchmarks/e2e/run.py``.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Any, Callable, Mapping, Sequence

from .harness import (
    BenchReport,
    effective_cpu_count,
    standard_meta,
)

#: ``start(label, spec)`` builds one fresh arm outside the timed region
#: and returns ``(feed, finish)``.
ArmStart = Callable[[str, Any], "tuple[Callable[[], Any], Callable[[], list]]"]


def _reps(reps: int | None) -> int:
    """Explicit *reps*, else ``REPRO_BENCH_REPS`` (default 3)."""
    if reps is None:
        return int(os.environ.get("REPRO_BENCH_REPS", "3"))
    return reps


def run_arms(
    arms: Mapping[str, Any],
    start: ArmStart,
    *,
    reps: int,
    reference: str,
) -> dict[str, tuple[float, list]]:
    """Time every labelled arm; returns ``{label: (best_seconds, rows)}``.

    *arms* maps each label to whatever spec ``start(label, spec)`` needs
    to build that arm fresh; ``feed()`` is the timed region (GC off) and
    ``finish()`` returns the arm's output rows and releases the arm.
    Arms are interleaved inside each rep, so thermal and background drift
    hits all of them equally, and the best (minimum) seconds across reps
    is kept — the standard way to reject scheduler noise in CPython.
    A fast arm with different rows is a bug, not a result: any arm whose
    rows differ from the *reference* arm's raises.
    """
    best = {label: float("inf") for label in arms}
    rows: dict[str, list] = {}
    for _ in range(reps):
        for label, spec in arms.items():
            feed, finish = start(label, spec)
            gc.disable()
            try:
                started = time.perf_counter()
                feed()
                seconds = time.perf_counter() - started
            finally:
                gc.enable()
            rows[label] = finish()
            best[label] = min(best[label], seconds)
    expected = rows[reference]
    for label, got in rows.items():
        if got != expected:
            raise AssertionError(
                f"{label} output diverged from {reference} "
                f"({len(got)} vs {len(expected)} rows)"
            )
    return {label: (best[label], rows[label]) for label in arms}


def _scenario_arm(
    scenario: Any,
) -> tuple[Callable[[], Any], Callable[[], list]]:
    """``(feed, finish)`` for an :mod:`repro.rfid` scenario.

    Sharded engines spawn their worker processes here, before the clock
    starts, and are closed once their rows have been read.
    """
    engine = scenario.engine
    if hasattr(engine, "start"):
        engine.start()

    def finish() -> list:
        rows = scenario.rows()
        if hasattr(engine, "close"):
            engine.close()
        return rows

    return scenario.feed, finish


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

    Each shard count processes ``n_products * n_shards`` products — the
    workload grows with the shard count, so an arm always has enough
    tuples to amortize process hand-off (a fixed 298-tuple trace across 8
    shards measured dispatch overhead, not scaling).  Under ideal weak
    scaling the wall-clock stays flat as shards grow; ``weak_efficiency``
    is the smallest arm's seconds over this arm's seconds.

    Every sharded arm is paired with a single :class:`~repro.dsms.engine.
    Engine` arm on the *same* workload (``speedup_vs_single``), which is
    also its row-for-row reference.  Arms with more shards than available
    CPUs are tagged ``cpu_limited`` so a flat-to-negative point on a
    starved host isn't read as a real regression.
    """
    from ..rfid import build_quality_check, build_quality_check_sharded
    from ..rfid import quality_check_workload

    reps = _reps(reps)
    cpus = effective_cpu_count()
    shard_counts = tuple(shard_counts)

    report = BenchReport(
        "sharded_scaling",
        meta=standard_meta(
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

    def start(_label: str, arm: tuple[Any, int | None]) -> Any:
        workload, shards = arm
        if shards is None:
            return _scenario_arm(build_quality_check(workload))
        return _scenario_arm(build_quality_check_sharded(
            workload, n_shards=shards, executor=executor,
            batch_size=batch_size,
        ))

    baseline_seconds: float | None = None
    for n_shards in shard_counts:
        workload = quality_check_workload(
            n_products=n_products * n_shards, seed=seed
        )
        single, sharded = f"single-{n_shards}x", f"sharded-{n_shards}"
        results = run_arms(
            {single: (workload, None), sharded: (workload, n_shards)},
            start, reps=reps, reference=single,
        )
        single_seconds = results[single][0]
        sharded_seconds = results[sharded][0]
        if baseline_seconds is None:
            baseline_seconds = sharded_seconds
        n_tuples = len(workload.trace)
        report.add_experiment(
            single,
            n_tuples=n_tuples,
            seconds=single_seconds,
            params={"engine": "Engine", "n_products": n_products * n_shards},
        )
        report.add_experiment(
            sharded,
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


def weak_efficiency(report: BenchReport, shards: int) -> float | None:
    """Weak-scaling efficiency at *shards* (1.0 = perfectly flat)."""
    for entry in report.experiments:
        if entry.get("shards") == shards and "weak_efficiency" in entry:
            return entry["weak_efficiency"]
    return None


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

    reps = _reps(reps)
    cpu_limited = effective_cpu_count() < n_shards + 1
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
    window_minutes = 5.0 / 60.0

    report = BenchReport(
        "fault_tolerance",
        meta=standard_meta(
            workload="example6-quality",
            n_products=n_products,
            n_shards=n_shards,
            batch_size=batch_size,
            checkpoint_intervals=list(checkpoint_intervals),
            stream_time_span_s=span,
            reps=reps,
            cpu_limited=cpu_limited,
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

    # label -> ShardedEngine keyword arguments (None: the single Engine).
    restart = {"fault_tolerance": "restart"}
    relaxed = checkpoint_intervals[-1]
    arms: dict[str, dict[str, Any] | None] = {
        "single": None,
        "overhead-fail-fast": {},
        "overhead-ft-off": restart,
    }
    for interval in checkpoint_intervals:
        arms[f"overhead-ft-{interval:g}s"] = {
            **restart, "checkpoint_interval": interval,
        }
    arms["recovery-replay-from-start"] = restart
    arms[f"recovery-restore-{relaxed:g}s"] = {
        **restart, "checkpoint_interval": relaxed,
    }
    victim = n_shards - 1
    # Land the kill mid-trace: roughly half the data frames a shard will
    # see (records hash-split across shards, one frame per full batch).
    kill_after = max(1, n_tuples // (n_shards * batch_size) // 2)
    stats: dict[str, list[dict[str, Any]]] = {label: [] for label in arms}

    def start(label: str, kwargs: dict[str, Any] | None) -> Any:
        if kwargs is None:
            return _scenario_arm(
                build_quality_check(workload, window_minutes=window_minutes)
            )
        if label.startswith("recovery-"):
            # Faults are one-shot, so every rep needs its own plan.
            kwargs = dict(kwargs, fault_plan=FaultPlan().kill_worker(
                victim, after_batches=kill_after
            ))
        # Fixed-size batches keep the per-shard frame count deterministic,
        # so the kill trigger (counted in data frames) lands at the same
        # trace position every rep.
        scenario = build_quality_check_sharded(
            workload,
            n_shards=n_shards,
            executor="parallel",
            batch_size=batch_size,
            adaptive_batch=False,
            window_minutes=window_minutes,
            **kwargs,
        )
        feed, finish = _scenario_arm(scenario)

        def finish_with_stats() -> list:
            rows = finish()
            stats[label].append(scenario.engine.fault_stats())
            return rows

        return feed, finish_with_stats

    results = run_arms(arms, start, reps=reps, reference="single")

    report.add_experiment(
        "single",
        n_tuples=n_tuples,
        seconds=results["single"][0],
        params={"engine": "Engine"},
    )
    baseline = results["overhead-fail-fast"][0]
    overheads: dict[str, float] = {}
    for label, kwargs in arms.items():
        seconds = results[label][0]
        if label.startswith("overhead-"):
            overhead = seconds / baseline - 1.0 if baseline else 0.0
            overheads[label[len("overhead-"):]] = overhead
            report.add_experiment(
                label,
                n_tuples=n_tuples,
                seconds=seconds,
                shards=n_shards,
                params={
                    "engine": "ShardedEngine",
                    "fault_tolerance": kwargs.get(
                        "fault_tolerance", "fail_fast"
                    ),
                    "checkpoint_interval": kwargs.get("checkpoint_interval"),
                },
                overhead_vs_fail_fast=overhead,
                checkpoints=stats[label][-1]["checkpoints"],
                cpu_limited=cpu_limited,
            )
        elif label.startswith("recovery-"):
            for rep_stats in stats[label]:
                if rep_stats["recoveries"] < 1:
                    raise AssertionError(
                        f"{label}: injected kill never triggered a "
                        f"recovery (events: {rep_stats['events']})"
                    )
            latencies = [
                event["latency_s"]
                for rep_stats in stats[label]
                for event in rep_stats["events"]
                if event.get("action") == "recovered"
            ]
            report.add_experiment(
                label,
                n_tuples=n_tuples,
                seconds=seconds,
                shards=n_shards,
                params={
                    "engine": "ShardedEngine",
                    "fault_tolerance": "restart",
                    "checkpoint_interval": kwargs.get("checkpoint_interval"),
                    "kill_after_batches": kill_after,
                    "victim_shard": victim,
                },
                recoveries=sum(s["recoveries"] for s in stats[label]),
                recovery_latency_s=min(latencies),
                recovery_latency_mean_s=sum(latencies) / len(latencies),
                cpu_limited=cpu_limited,
            )

    report.meta["overhead_by_arm"] = overheads
    report.meta["checkpoint_overhead"] = overheads[f"ft-{relaxed:g}s"]
    return report


def checkpoint_overhead(report: BenchReport, interval: float) -> float | None:
    """Wall-clock overhead ratio of the ``ft-<interval>s`` arm over the
    ``fail-fast`` baseline, if measured."""
    value = report.meta.get("overhead_by_arm", {}).get(f"ft-{interval:g}s")
    return float(value) if value is not None else None


BENCH_RUNNERS: Mapping[str, Callable[..., BenchReport]] = {
    "sharded_scaling": run_sharded_scaling,
    "fault_tolerance": run_fault_tolerance,
}
