"""Benchmark harness: consistent row/series printing and JSON reports.

The paper has no measurement tables of its own (it is a language-design
paper), so the harness defines the house format every experiment reports
in: a named experiment, parameter columns, and measured columns — printed
as an aligned text table so ``pytest benchmarks/ --benchmark-only -s``
reads like an evaluation section.

For tracking performance over time, :class:`BenchReport` writes the same
measurements machine-readably as ``BENCH_<name>.json`` in the repository
root (or a caller-chosen directory): per-experiment seconds and
throughput in tuples/s, plus free-form parameters.  CI archives these
files so perf trajectories survive across runs.
"""

from __future__ import annotations

import json
import os
import platform
from typing import Any, Mapping, Sequence

from .metrics import throughput


def effective_cpu_count() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def standard_meta(**extra: Any) -> dict[str, Any]:
    """The uniform meta keys every :class:`BenchReport` carries.

    Pins the house keys — ``effective_cpu_count`` (affinity-aware),
    ``cpu_count`` (legacy alias, same value) and ``python`` — and merges
    runner-specific keys on top.
    """
    cpus = effective_cpu_count()
    meta: dict[str, Any] = {
        "effective_cpu_count": cpus,
        "cpu_count": cpus,
        "python": platform.python_version(),
    }
    meta.update(extra)
    return meta


class ResultTable:
    """An aligned text table accumulated row by row."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: list[list[str]] = []

    def add(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append([_format(value) for value in values])

    def render(self) -> str:
        widths = [len(col) for col in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [f"== {self.title} =="]
        header = "  ".join(
            col.ljust(widths[index]) for index, col in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("  ".join("-" * width for width in widths))
        for row in self.rows:
            lines.append(
                "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row))
            )
        return "\n".join(lines)

    def print(self) -> None:
        print()
        print(self.render())


def _format(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


class BenchReport:
    """Accumulates experiments and writes them as ``BENCH_<name>.json``.

    Each experiment is one measured configuration: a label, its
    parameters, its best wall-clock seconds and the throughput
    (tuples/s) they imply, plus whatever extra columns the runner adds.
    """

    SCHEMA_VERSION = 1

    def __init__(self, name: str, meta: Mapping[str, Any] | None = None) -> None:
        self.name = name
        self.meta = dict(meta or {})
        self.experiments: list[dict[str, Any]] = []

    def add_experiment(
        self,
        label: str,
        *,
        n_tuples: int,
        seconds: float,
        shards: int | None = None,
        params: Mapping[str, Any] | None = None,
        **extra: Any,
    ) -> dict[str, Any]:
        """Record one configuration; returns the entry (already appended).

        ``shards`` marks a sharded-engine run so trajectory tooling can
        group one benchmark's scaling arms without parsing labels.
        """
        entry: dict[str, Any] = {
            "label": label,
            "n_tuples": int(n_tuples),
            "seconds": float(seconds),
            "throughput_tuples_per_s": throughput(n_tuples, seconds),
        }
        if shards is not None:
            entry["shards"] = int(shards)
        if params:
            entry["params"] = dict(params)
        entry.update(extra)
        self.experiments.append(entry)
        return entry

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.SCHEMA_VERSION,
            "name": self.name,
            "meta": self.meta,
            "experiments": self.experiments,
        }

    def write(self, directory: str | None = None) -> str:
        """Write ``BENCH_<name>.json`` into *directory* (default: cwd)."""
        payload = self.as_dict()
        target = os.path.join(directory or os.getcwd(), f"BENCH_{self.name}.json")
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=False)
            handle.write("\n")
        return target
