"""NATIVE — C admission kernels vs the closure and interpreted tiers.

Regenerates: the three-arm ablation of
:func:`repro.bench.run_native_codegen`.  All arms consume the *same*
pre-built ``ColumnBatch`` streams; the only difference is the Engine's
``tier``.  Where a predicate lowers to C the native arm never consults
the vector masks beneath it, so the measured gap is C kernel vs Python
closure.
Correctness is part of the measurement: every arm must produce
byte-identical output (values, timestamps, order) or the runner raises.

Three workloads:

* the uniform-pressure filter selectivity sweep (mirrors
  ``BENCH_vector_admission`` so the native and vector tiers are
  directly comparable),
* the quality SEQ pairing workload (lenient masks feeding a temporal
  operator — admission is only part of the work, so the gap narrows),
* the paper's Example 1 dedup query, whose NOT EXISTS subquery cannot
  lower to C — this arm pins the fallback chain at closure parity.

The speedup floor self-gates: it is only asserted when a C compiler is
present (otherwise the native arm legitimately degrades to the vector
tier) and the host has more than one effective CPU (``cpu_limited``
runs are recorded but not gated — a shared single core makes best-of
timings too noisy for a hard floor).

Writes ``BENCH_native_codegen.json`` to the repository root.
"""

import os

from repro.bench import ResultTable, native_speedup, run_native_codegen

REPS = int(os.environ.get("REPRO_BENCH_REPS", "3"))
N_ROWS = int(os.environ.get("REPRO_BENCH_ADMISSION_ROWS", "100000"))
SELECTIVITIES = (0.01, 0.10, 0.50)
MIN_NATIVE_VS_CLOSURE = 1.5


def test_native_codegen_ablation(table_printer):
    report = run_native_codegen(
        n_rows=N_ROWS,
        selectivities=SELECTIVITIES,
        reps=REPS,
    )

    table = ResultTable(
        "NATIVE  codegen tier ablation (filter sweep / SEQ / dedup)",
        ["config", "workload", "tuples", "seconds", "tuples/s",
         "admitted", "kernels"],
    )
    for entry in report.experiments:
        params = entry["params"]
        workload = params["workload"]
        if "selectivity" in params:
            workload = f"filter {params['selectivity'] * 100:g}%"
        native = entry.get("native") or {}
        table.add(
            entry["label"],
            workload,
            entry["n_tuples"],
            entry["seconds"],
            entry["throughput_tuples_per_s"],
            entry["rows_admitted"],
            native.get("active_kernels", 0),
        )
    table_printer(table)

    path = report.write(os.path.join(os.path.dirname(__file__), ".."))
    assert os.path.exists(path)

    # Uniform meta: the report says what it ran on and at which tier.
    assert report.meta["effective_cpu_count"] >= 1
    assert report.meta["execution_tier"] in ("native", "closure")

    # Report shape: every arm ran every workload, and the admitted
    # fraction of the filter sweep tracks the selectivity.  Reaching
    # here at all means every arm produced byte-identical output.
    for threshold in SELECTIVITIES:
        pct = f"{threshold * 100:g}pct"
        for arm in ("interpreted", "closure", "native"):
            (entry,) = [
                e for e in report.experiments
                if e["label"] == f"{arm}-{pct}"
            ]
            admitted = entry["rows_admitted"]
            assert abs(admitted / entry["n_tuples"] - threshold) < 0.02
    for suffix in ("seq", "dedup"):
        labels = {e["label"] for e in report.experiments}
        for arm in ("interpreted", "closure", "native"):
            assert f"{arm}-{suffix}" in labels

    # With a compiler present the native filter arms must actually have
    # run kernels (the dedup arm must NOT have: its predicate is a
    # subquery and stays on the closure path by design).
    has_compiler = report.meta["compiler"] is not None
    if has_compiler:
        for threshold in SELECTIVITIES:
            pct = f"{threshold * 100:g}pct"
            (entry,) = [
                e for e in report.experiments
                if e["label"] == f"native-{pct}"
            ]
            assert entry["native"]["masked_batches"] > 0
        (dedup,) = [
            e for e in report.experiments if e["label"] == "native-dedup"
        ]
        assert dedup["native"]["active_kernels"] == 0

    # The headline claim: native kernels >= 1.5x over the compiled
    # Python closure at 1% selectivity.  Self-gated on compiler
    # presence and on having a whole CPU to time on.
    speedup = native_speedup(report, min(SELECTIVITIES))
    assert speedup is not None
    if has_compiler and not report.meta["cpu_limited"]:
        assert speedup >= MIN_NATIVE_VS_CLOSURE, (
            f"expected native kernels >= {MIN_NATIVE_VS_CLOSURE}x over "
            f"the closure tier at {min(SELECTIVITIES):.0%} selectivity, "
            f"got {speedup:.2f}x"
        )
