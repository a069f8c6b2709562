"""ADMIT — columnar vectorized admission vs the scalar compiled path.

Regenerates: the selectivity sweep of
:func:`repro.bench.run_vectorized_admission`.  Both headline arms
consume the *same* pre-built ``ColumnBatch`` stream through the same
compiled filter query; the only difference is the Engine's ``tier``
(``"closure"`` vs ``"vector"``), so the gap is the admission tier itself —
whole-column predicate evaluation plus survivor-only ``Tuple``
materialization versus materialize-then-check per row.  A third ``rows``
arm feeds identical records through the per-record ``push_batch`` path
for context.  Correctness is part of the measurement: every arm must
produce byte-identical output (values, timestamps, order) or the runner
raises.

Expected shape: the vectorized arm wins biggest at low selectivity
(at 1% it skips materializing ~99% of rows) and the gap narrows as the
filter passes more rows and materialization dominates both arms.  The
speedup floor is asserted unconditionally — the benchmark is single
process, so there is no CPU-count gate.

Writes ``BENCH_vector_admission.json`` to the repository root.
"""

import os

from repro.bench import (
    ResultTable,
    run_vectorized_admission,
    vectorized_speedup,
)

REPS = int(os.environ.get("REPRO_BENCH_REPS", "3"))
N_ROWS = int(os.environ.get("REPRO_BENCH_ADMISSION_ROWS", "100000"))
SELECTIVITIES = (0.01, 0.10, 0.50)
MIN_VECTORIZED_VS_SCALAR = 2.0


def test_vectorized_admission_ablation(table_printer):
    report = run_vectorized_admission(
        n_rows=N_ROWS,
        selectivities=SELECTIVITIES,
        reps=REPS,
    )

    table = ResultTable(
        "ADMIT  vectorized admission ablation (uniform-pressure filter)",
        ["config", "selectivity", "tuples", "seconds", "tuples/s",
         "admitted"],
    )
    for entry in report.experiments:
        table.add(
            entry["label"],
            f"{entry['params']['selectivity'] * 100:g}%",
            entry["n_tuples"],
            entry["seconds"],
            entry["throughput_tuples_per_s"],
            entry["rows_admitted"],
        )
    table_printer(table)

    path = report.write(os.path.join(os.path.dirname(__file__), ".."))
    assert os.path.exists(path)

    # Report shape: every arm ran at every selectivity and admitted the
    # expected fraction; reaching here at all means all three arms
    # produced byte-identical outputs.
    assert report.meta["effective_cpu_count"] >= 1
    for threshold in SELECTIVITIES:
        pct = f"{threshold * 100:g}pct"
        for arm in ("scalar", "vectorized", "rows"):
            (entry,) = [
                e for e in report.experiments
                if e["label"] == f"{arm}-{pct}"
            ]
            admitted = entry["rows_admitted"]
            # Uniform pressures: the admitted fraction tracks the
            # threshold (generous tolerance — it's a sanity check on the
            # workload, not a statistics test).
            assert abs(admitted / entry["n_tuples"] - threshold) < 0.02

    # The headline claim: vectorized admission >= 2x over the scalar
    # compiled path at 1% selectivity, single process — no CPU gate.
    speedup = vectorized_speedup(report, min(SELECTIVITIES))
    assert speedup is not None
    assert speedup >= MIN_VECTORIZED_VS_SCALAR, (
        f"expected vectorized admission >= {MIN_VECTORIZED_VS_SCALAR}x "
        f"over the scalar compiled path at {min(SELECTIVITIES):.0%} "
        f"selectivity, got {speedup:.2f}x"
    )
