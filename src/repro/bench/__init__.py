"""Benchmark support: metrics and the shared result-table harness."""

from .harness import (
    BenchReport,
    ResultTable,
    standard_meta,
)
from .metrics import (
    Accuracy,
    containment_accuracy,
    throughput,
)
from .runners import (
    BENCH_RUNNERS,
    checkpoint_overhead,
    effective_cpu_count,
    run_arms,
    run_fault_tolerance,
    run_sharded_scaling,
    weak_efficiency,
)

__all__ = [
    "Accuracy",
    "BENCH_RUNNERS",
    "BenchReport",
    "ResultTable",
    "checkpoint_overhead",
    "containment_accuracy",
    "effective_cpu_count",
    "run_arms",
    "run_fault_tolerance",
    "run_sharded_scaling",
    "standard_meta",
    "throughput",
    "weak_efficiency",
]
