"""Named benchmark runners shared by the CLI and ``benchmarks/`` scripts.

Each runner is a workload, a query, a table of labelled arms and the
report rows built from them; the measurement loop itself lives once, in
:func:`run_arms`.  The registry maps the public benchmark name (as used
by ``python -m repro bench <name>``) to its runner, so the CLI, CI smoke
jobs, and the pytest wrappers under ``benchmarks/`` all execute exactly
the same measurement code.

This one is an ablation of this implementation's own sharding layer; the
paper queries are timed end to end by ``benchmarks/e2e/run.py``.
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


BENCH_RUNNERS: Mapping[str, Callable[..., BenchReport]] = {
    "sharded_scaling": run_sharded_scaling,
}
