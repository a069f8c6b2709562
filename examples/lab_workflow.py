#!/usr/bin/env python3
"""Clinic laboratory workflow enforcement (paper Example 5).

A staff member must perform operations A, B, C in order within one hour.
This script simulates runs with injected violations — wrong order, wrong
start, and timeouts — and shows EXCEPTION_SEQ catching every one, with the
timeout detected by *Active Expiration* (a timer, not a tuple).

It also runs the equivalent CLEVEL_SEQ query to show the two formulations
agree, and prints the per-violation breakdown against the simulator's
ground truth.

Run:  python examples/lab_workflow.py
"""

from repro import Engine
from repro.core.operators import ExceptionReason
from repro.rfid import lab_workflow_workload

EXCEPTION_QUERY = """
    SELECT A1.tagid, A2.tagid, A3.tagid
    FROM A1, A2, A3
    WHERE EXCEPTION_SEQ(A1, A2, A3)
    OVER [1 HOURS FOLLOWING A1]
"""

CLEVEL_QUERY = """
    SELECT A1.tagid, A2.tagid, A3.tagid
    FROM A1, A2, A3
    WHERE (CLEVEL_SEQ(A1, A2, A3)
    OVER [1 HOURS FOLLOWING A1]) < 3
"""


def build(query: str) -> tuple[Engine, object]:
    engine = Engine()
    for name in ("a1", "a2", "a3"):
        engine.create_stream(name, "tagid str, tagtime float")
    return engine, engine.query(query, name="lab")


def main() -> None:
    workload = lab_workflow_workload(n_runs=24, violation_rate=0.45, seed=3)
    counts = workload.truth["counts"]
    print("Injected runs:",
          ", ".join(f"{kind}={count}" for kind, count in counts.items()))

    engine, handle = build(EXCEPTION_QUERY)
    engine.run_trace(workload.trace)
    engine.flush()  # fire remaining deadline timers (end of shift)

    operator = handle.operator
    print(f"\nEXCEPTION_SEQ raised {len(handle.rows())} alerts "
          f"(ground truth: {workload.truth['violations']} violations).")
    print("Breakdown by detected reason:")
    for reason, count in sorted(
        (reason.value, count)
        for reason, count in operator.reason_counts.items()
        if count and reason is not ExceptionReason.COMPLETED
    ):
        print(f"  {reason:<16} {count}")

    print("\nAlert rows (NULL = the stage never happened):")
    for row in handle.rows()[:6]:
        print(f"  A1={row['tagid']!r:10} A2={row['tagid_2']!r:10} "
              f"A3={row['tagid_3']!r}")
    if len(handle.rows()) > 6:
        print(f"  ... and {len(handle.rows()) - 6} more")

    # The CLEVEL formulation is equivalent (paper section 3.1.3).
    engine2, handle2 = build(CLEVEL_QUERY)
    engine2.run_trace(workload.trace)
    engine2.flush()
    print(f"\nCLEVEL_SEQ(...) < 3 raised {len(handle2.rows())} alerts "
          f"(equivalent by construction: "
          f"{len(handle2.rows()) == len(handle.rows())}).")


if __name__ == "__main__":
    main()
