"""A5 — ablation: compiled ESL-EV vs. direct operator API.

Regenerates: the cost of the language layer.  The same Figure 1
containment detection runs three ways — verbatim ESL-EV text, the operator
API with an equivalent Python guard, and the operator API with hoisted
``max_gap`` (what the compiler produces for the `previous` constraint).

Expected shape: identical detections in all three; the compiled query's
per-tuple overhead stays within a small factor of the hand-built operator
(the compiler wires the same runtime; the extra cost is the compiled
guard expressions run per extension).
"""

import time

from repro.bench import ResultTable
from repro.core.operators import PairingMode, SeqArg, make_sequence_operator
from repro.dsms import Engine
from repro.rfid import CONTAINMENT_QUERY, packing_workload


def run_sql(workload):
    engine = Engine()
    engine.create_stream("r1", "readerid str, tagid str, tagtime float")
    engine.create_stream("r2", "readerid str, tagid str, tagtime float")
    handle = engine.query(CONTAINMENT_QUERY)
    started = time.perf_counter()
    engine.run_trace(workload.trace)
    elapsed = time.perf_counter() - started
    return len(handle.rows()), elapsed


def run_operator(workload, hoisted_gap: bool):
    engine = Engine()
    engine.create_stream("r1", "readerid str, tagid str, tagtime float")
    engine.create_stream("r2", "readerid str, tagid str, tagtime float")

    def guard(bindings):
        run = bindings.get("r1")
        case = bindings.get("r2")
        if isinstance(run, list) and run and case is not None and not isinstance(
            case, list
        ):
            if case["tagtime"] - run[-1]["tagtime"] > 5.0:
                return False
        if not hoisted_gap and isinstance(run, list) and len(run) >= 2:
            if run[-1]["tagtime"] - run[-2]["tagtime"] > 1.0:
                return False
        return True

    args = [
        SeqArg("r1", starred=True, max_gap=1.0 if hoisted_gap else None),
        SeqArg("r2"),
    ]
    operator = make_sequence_operator(
        engine, args, mode=PairingMode.CHRONICLE, guard=guard
    )
    started = time.perf_counter()
    engine.run_trace(workload.trace)
    elapsed = time.perf_counter() - started
    return operator.matches_emitted, elapsed


def test_language_overhead_table(table_printer):
    table = ResultTable(
        "A5  Language overhead: compiled ESL-EV vs direct operator API",
        ["cases", "sql_detections", "api_detections", "sql_ms", "api_ms",
         "overhead"],
    )
    for n_cases in (20, 60, 120):
        workload = packing_workload(n_cases=n_cases, seed=191)
        sql_count, sql_s = run_sql(workload)
        api_count, api_s = run_operator(workload, hoisted_gap=True)
        assert sql_count == api_count == n_cases
        table.add(
            n_cases, sql_count, api_count, sql_s * 1000, api_s * 1000,
            sql_s / api_s if api_s else float("inf"),
        )
    table_printer(table)


def test_guard_vs_hoisted_gap_equivalent():
    """The compiler's gap hoisting is behaviour-preserving: checking the
    `previous` constraint inside the guard finds the same containment."""
    workload = packing_workload(n_cases=40, seed=192)
    hoisted_count, __ = run_operator(workload, hoisted_gap=True)
    guarded_count, __ = run_operator(workload, hoisted_gap=False)
    assert hoisted_count == guarded_count == 40


def test_sql_containment_benchmark(benchmark):
    workload = packing_workload(n_cases=40, seed=193)

    def run():
        count, __ = run_sql(workload)
        return count

    assert benchmark(run) == 40


def test_api_containment_benchmark(benchmark):
    workload = packing_workload(n_cases=40, seed=193)

    def run():
        count, __ = run_operator(workload, hoisted_gap=True)
        return count

    assert benchmark(run) == 40
