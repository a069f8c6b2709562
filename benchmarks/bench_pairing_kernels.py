"""PAIRING — mask tiers on the SEQ match-enumeration hot path.

Regenerates: the two-arm ablation of
:func:`repro.bench.run_pairing_kernels` on the dense re-read
quality-SEQ workload.  Both arms consume the *same* pre-built
``ColumnBatch`` streams through the same windowed SEQ query; only the
Engine's ``tier`` differs:

* ``scalar`` — compiled closures, one pairing check per candidate (the
  pre-mask hot path), the byte-identity reference,
* ``vector`` — per-anchor columnar masks over each partition's history
  mirror (Python lists).

The query hash-partitions on the tag equality, leaving ``Y.w - X.v >
threshold`` as the only cross conjunct — deliberately not hoistable to
admission, so every arm pays for it at match-enumeration time.  Masks
only prune: survivors re-run the scalar pairing check, and the vector
arm must produce byte-identical output (values, timestamps, order) or
the runner raises.

The speedup floor needs more than one effective CPU (``cpu_limited``
runs are recorded but not gated — a shared single core makes best-of
timings too noisy for a hard floor).

Writes ``BENCH_pairing_kernels.json`` to the repository root.
"""

import os

from repro.bench import ResultTable, pairing_speedup, run_pairing_kernels

REPS = int(os.environ.get("REPRO_BENCH_REPS", "3"))
N_ROWS = int(os.environ.get("REPRO_BENCH_PAIRING_ROWS", "20000"))
MIN_VECTOR_VS_SCALAR = 2.0


def test_pairing_kernels_ablation(table_printer):
    report = run_pairing_kernels(n_rows=N_ROWS, reps=REPS)

    table = ResultTable(
        "PAIRING  mask tier ablation (dense re-read quality SEQ)",
        ["config", "tuples", "seconds", "tuples/s", "matches"],
    )
    for entry in report.experiments:
        table.add(
            entry["label"],
            entry["n_tuples"],
            entry["seconds"],
            entry["throughput_tuples_per_s"],
            entry["rows_admitted"],
        )
    table_printer(table)

    path = report.write(os.path.join(os.path.dirname(__file__), ".."))
    assert os.path.exists(path)

    # Uniform meta: the one tier cap (admission and pairing share it).
    assert report.meta["effective_cpu_count"] >= 1
    assert report.meta["tier"] == "vector"

    # Report shape: every arm ran, with identical match counts (reaching
    # here at all means byte-identical output — the runner raises on
    # divergence, this re-checks the recorded counts).
    labels = {e["label"] for e in report.experiments}
    assert labels == {
        f"{arm}-pairing"
        for arm in ("scalar", "vector")
    }
    counts = {e["rows_admitted"] for e in report.experiments}
    assert len(counts) == 1 and counts.pop() > 0

    # The headline claim: columnar pairing masks >= 2x over the scalar
    # per-candidate loop on the dense workload.  Self-gated as described
    # in the module docstring.
    vector = pairing_speedup(report)
    assert vector is not None
    if not report.meta["cpu_limited"]:
        assert vector >= MIN_VECTOR_VS_SCALAR, (
            f"expected vectorized pairing >= {MIN_VECTOR_VS_SCALAR}x over "
            f"scalar, got {vector:.2f}x"
        )
