"""E5 — Example 5: lab workflow exception detection.

Regenerates: violation detection across injected violation mixes with
EXCEPTION_SEQ OVER [1 HOURS FOLLOWING A1]; confirms the CLEVEL_SEQ
formulation is equivalent (the paper asserts the two queries are the same);
and breaks detections down by exception reason.

Expected shape: alerts == injected violations at every rate; clean runs
raise nothing; the three violation kinds map to the three paper scenarios
(wrong extension / wrong start / window expiration).
"""

from repro.bench import ResultTable
from repro.core.operators import ExceptionReason
from repro.rfid import build_lab_workflow, lab_workflow_workload


def test_violation_detection_table(table_printer):
    table = ResultTable(
        "E5  Example 5: EXCEPTION_SEQ(A1,A2,A3) OVER [1 HOURS FOLLOWING A1]",
        ["violation_rate", "runs", "injected", "alerts", "wrong_tuple",
         "wrong_start", "expired", "exact"],
    )
    for rate in (0.0, 0.2, 0.5, 0.8):
        workload = lab_workflow_workload(
            n_runs=60, violation_rate=rate, seed=111
        )
        scenario = build_lab_workflow(workload).feed()
        by_reason = scenario.handle.operator.reason_counts
        alerts = len(scenario.rows())
        injected = workload.truth["violations"]
        table.add(
            rate, 60, injected, alerts,
            by_reason[ExceptionReason.WRONG_TUPLE],
            by_reason[ExceptionReason.WRONG_START],
            by_reason[ExceptionReason.WINDOW_EXPIRED],
            alerts == injected,
        )
        assert alerts == injected
    table_printer(table)


def test_clevel_equivalence():
    workload = lab_workflow_workload(n_runs=50, violation_rate=0.4, seed=112)
    via_exception = build_lab_workflow(workload).feed()
    # Rebuild the same workload for an independent engine.
    workload2 = lab_workflow_workload(n_runs=50, violation_rate=0.4, seed=112)
    via_clevel = build_lab_workflow(workload2, use_clevel=True).feed()
    assert len(via_exception.rows()) == len(via_clevel.rows())


def test_workflow_throughput(benchmark):
    workload = lab_workflow_workload(n_runs=150, violation_rate=0.3, seed=113)

    def run():
        scenario = build_lab_workflow(workload)
        scenario.feed()
        return len(scenario.rows())

    alerts = benchmark(run)
    assert alerts == workload.truth["violations"]
