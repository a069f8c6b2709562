"""A2 — ablation: SEQ vs the join-based baseline (footnote 3).

Regenerates: the cost argument for native temporal operators.  The join
formulation examines history-product many candidates per arrival, where
SEQ's greedy modes do near-constant work; and the join needs unbounded
history unless the author adds a window by hand.

Expected shape:

* identical output between UNRESTRICTED SEQ and the join baseline (same
  retention) — the equivalence that makes the comparison fair;
* join probe count grows super-linearly with trace length; RECENT SEQ
  match attempts stay linear;
* wall-clock: RECENT SEQ beats the unbounded join increasingly with n.
"""

import time

from repro.baselines import JoinSequenceBaseline
from repro.bench import ResultTable
from repro.core.operators import PairingMode, SeqArg, make_sequence_operator
from repro.dsms import Engine
from repro.rfid import uniform_sequence_workload

STREAMS = ["s0", "s1", "s2"]


def build_engine():
    engine = Engine()
    for name in STREAMS:
        engine.create_stream(name, "tagid str, tagtime float")
    return engine


def run_seq(workload, mode):
    engine = build_engine()
    op = make_sequence_operator(
        engine, [SeqArg(s) for s in STREAMS], mode=mode
    )
    started = time.perf_counter()
    engine.run_trace(workload.trace)
    elapsed = time.perf_counter() - started
    return op, elapsed


def run_join(workload, retention=None):
    engine = build_engine()
    baseline = JoinSequenceBaseline(
        engine, STREAMS, retention=retention, store_matches=False
    )
    started = time.perf_counter()
    engine.run_trace(workload.trace)
    elapsed = time.perf_counter() - started
    return baseline, elapsed


def test_equivalence_and_cost_table(table_printer):
    table = ResultTable(
        "A2  SEQ vs n-way join (3 streams, random trace)",
        ["tuples", "matches", "join_probes", "join_ms", "seq_recent_ms",
         "speedup"],
    )
    probes = {}
    for n_tuples in (100, 200, 400):
        workload = uniform_sequence_workload(
            n_streams=3, n_tuples=n_tuples, seed=171
        )
        seq_op, __ = run_seq(workload, PairingMode.UNRESTRICTED)
        join, join_s = run_join(workload)
        assert seq_op.matches_emitted == join.matches_emitted
        recent_op, recent_s = run_seq(workload, PairingMode.RECENT)
        probes[n_tuples] = join.join_probes
        table.add(
            n_tuples, join.matches_emitted, join.join_probes,
            join_s * 1000, recent_s * 1000,
            join_s / recent_s if recent_s else float("inf"),
        )
    table_printer(table)
    # Super-linear probe growth: 4x tuples -> far more than 4x probes.
    assert probes[400] > 8 * probes[100]


def test_windowed_join_still_heavier(table_printer):
    table = ResultTable(
        "A2b  Join with explicit retention window vs RECENT SEQ",
        ["retention_s", "join_probes", "join_state", "recent_state"],
    )
    workload = uniform_sequence_workload(n_streams=3, n_tuples=600, seed=172)
    recent_op, __ = run_seq(workload, PairingMode.RECENT)
    for retention in (10.0, 60.0, 300.0):
        join, __ = run_join(workload, retention=retention)
        table.add(retention, join.join_probes, join.state_size,
                  recent_op.state_size)
        assert recent_op.state_size < max(join.state_size, 10)
    table_printer(table)


def test_join_throughput(benchmark):
    workload = uniform_sequence_workload(n_streams=3, n_tuples=400, seed=173)

    def run():
        baseline, __ = run_join(workload, retention=60.0)
        return baseline.matches_emitted

    benchmark(run)


def test_seq_recent_throughput(benchmark):
    workload = uniform_sequence_workload(n_streams=3, n_tuples=400, seed=173)

    def run():
        op, __ = run_seq(workload, PairingMode.RECENT)
        return op.matches_emitted

    benchmark(run)
