"""E6b — the section 3.1.1 worked example, reproduced as a table.

Regenerates: the paper's only fully worked result — the joint tuple
history ``[t1:C1, t2:C1, t3:C2, t4:C3, t5:C3, t6:C2, t7:C4]`` evaluated
under all four Tuple Pairing Modes.

Expected (from the paper, verbatim):

* UNRESTRICTED -> 4 events
* RECENT       -> 1 event  (t2, t3, t5, t7)
* CHRONICLE    -> 1 event  (t1, t3, t4, t7)
* CONSECUTIVE  -> 0 events

Also characterizes per-mode event counts and state on a longer random
trace, quantifying the paper's "generation of large amounts of composite
events, many of which are not useful" argument.
"""

from repro.bench import ResultTable
from repro.core.operators import PairingMode, SeqArg, make_sequence_operator
from repro.dsms import Engine
from repro.rfid import uniform_sequence_workload

PAPER_TRACE = [
    ("c1", 1.0), ("c1", 2.0), ("c2", 3.0), ("c3", 4.0),
    ("c3", 5.0), ("c2", 6.0), ("c4", 7.0),
]

EXPECTED_EVENTS = {
    PairingMode.UNRESTRICTED: 4,
    PairingMode.RECENT: 1,
    PairingMode.CHRONICLE: 1,
    PairingMode.CONSECUTIVE: 0,
}

EXPECTED_CHAINS = {
    PairingMode.RECENT: [(2.0, 3.0, 5.0, 7.0)],
    PairingMode.CHRONICLE: [(1.0, 3.0, 4.0, 7.0)],
}


def run_paper_trace(mode):
    engine = Engine()
    for name in ("c1", "c2", "c3", "c4"):
        engine.create_stream(name, "tagid str, tagtime float")
    matches = []
    make_sequence_operator(
        engine, [SeqArg(n) for n in ("c1", "c2", "c3", "c4")], mode=mode,
        on_match=matches.append,
    )
    for stream, ts in PAPER_TRACE:
        engine.push(stream, {"tagid": "x", "tagtime": ts}, ts=ts)
    return matches


def test_worked_example_table(table_printer):
    table = ResultTable(
        "E6b  Section 3.1.1 worked example "
        "[t1:C1 t2:C1 t3:C2 t4:C3 t5:C3 t6:C2 t7:C4]",
        ["mode", "events", "paper_says", "chains"],
    )
    for mode in PairingMode:
        matches = run_paper_trace(mode)
        chains = [
            tuple(t.ts for t in m.all_tuples()) for m in matches
        ]
        table.add(
            mode.value.upper(), len(matches), EXPECTED_EVENTS[mode],
            " ".join(str(c) for c in chains) or "-",
        )
        assert len(matches) == EXPECTED_EVENTS[mode]
        if mode in EXPECTED_CHAINS:
            assert chains == EXPECTED_CHAINS[mode]
    table_printer(table)


def test_mode_event_explosion(table_printer):
    """UNRESTRICTED event counts explode on unstructured traces; the
    restricted modes stay linear — the paper's motivation for pairing
    modes."""
    table = ResultTable(
        "E6b+  Event counts per mode, random 3-stream trace",
        ["tuples", "unrestricted", "recent", "chronicle", "consecutive"],
    )
    for n_tuples in (100, 200, 400):
        counts = {}
        for mode in PairingMode:
            engine = Engine()
            for index in range(3):
                engine.create_stream(f"s{index}", "tagid str, tagtime float")
            op = make_sequence_operator(
                engine, [SeqArg(f"s{i}") for i in range(3)], mode=mode,
            )
            workload = uniform_sequence_workload(
                n_streams=3, n_tuples=n_tuples, seed=131
            )
            engine.run_trace(workload.trace)
            counts[mode] = op.matches_emitted
        table.add(n_tuples, counts[PairingMode.UNRESTRICTED],
                  counts[PairingMode.RECENT], counts[PairingMode.CHRONICLE],
                  counts[PairingMode.CONSECUTIVE])
        anchors_bound = n_tuples  # no mode can exceed one event per anchor...
        assert counts[PairingMode.RECENT] <= anchors_bound
        assert counts[PairingMode.CHRONICLE] <= anchors_bound
        assert counts[PairingMode.CONSECUTIVE] <= anchors_bound
        # ...while UNRESTRICTED explodes combinatorially.
        assert counts[PairingMode.UNRESTRICTED] >= 5 * counts[PairingMode.RECENT]
    table_printer(table)


def test_unrestricted_throughput(benchmark):
    workload = uniform_sequence_workload(n_streams=4, n_tuples=300, seed=132)

    def run():
        engine = Engine()
        for index in range(4):
            engine.create_stream(f"s{index}", "tagid str, tagtime float")
        op = make_sequence_operator(
            engine, [SeqArg(f"s{i}") for i in range(4)],
            mode=PairingMode.RECENT,
        )
        engine.run_trace(workload.trace)
        return op.matches_emitted

    benchmark(run)
