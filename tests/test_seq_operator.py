"""Unit tests for the star-free SEQ operator and its pairing modes."""

import pytest

from repro.core.operators import (
    OperatorWindow,
    PairingMode,
    SeqArg,
    SeqOperator,
    make_sequence_operator,
)
from repro.dsms import Engine
from repro.dsms.errors import EslSemanticError


def build(engine, streams, mode, **kw):
    for name in streams:
        if name not in engine.streams:
            engine.create_stream(name, "tagid str, tagtime float")
    args = [SeqArg(name) for name in streams]
    got = []
    kw.setdefault("on_match", got.append)
    return make_sequence_operator(engine, args, mode=mode, **kw), got


def feed(engine, trace):
    for stream, ts in trace:
        engine.push(stream, {"tagid": "x", "tagtime": ts}, ts=ts)


def feed_tagged(engine, trace):
    for stream, tag, ts in trace:
        engine.push(stream, {"tagid": tag, "tagtime": ts}, ts=ts)


PAPER_TRACE = [
    ("c1", 1.0), ("c1", 2.0), ("c2", 3.0), ("c3", 4.0),
    ("c3", 5.0), ("c2", 6.0), ("c4", 7.0),
]


def chains(matches):
    return [[t.ts for t in m.all_tuples()] for m in matches]


class TestPaperWorkedExample:
    """Section 3.1.1's joint history [t1:C1 ... t7:C4] — the paper's own
    expected outputs for each mode."""

    def run(self, mode):
        engine = Engine()
        __, got = build(engine, ["c1", "c2", "c3", "c4"], mode)
        feed(engine, PAPER_TRACE)
        return got

    def test_unrestricted_four_events(self):
        got = self.run(PairingMode.UNRESTRICTED)
        assert sorted(chains(got)) == [
            [1.0, 3.0, 4.0, 7.0],
            [1.0, 3.0, 5.0, 7.0],
            [2.0, 3.0, 4.0, 7.0],
            [2.0, 3.0, 5.0, 7.0],
        ]

    def test_recent_single_event(self):
        got = self.run(PairingMode.RECENT)
        assert chains(got) == [[2.0, 3.0, 5.0, 7.0]]

    def test_chronicle_single_event(self):
        got = self.run(PairingMode.CHRONICLE)
        assert chains(got) == [[1.0, 3.0, 4.0, 7.0]]

    def test_consecutive_no_event(self):
        got = self.run(PairingMode.CONSECUTIVE)
        assert chains(got) == []


class TestBasicSemantics:
    def test_requires_two_args(self):
        engine = Engine()
        engine.create_stream("a", "tagid str")
        with pytest.raises(EslSemanticError):
            SeqOperator(engine, [SeqArg("a")])

    def test_duplicate_aliases_rejected(self):
        engine = Engine()
        engine.create_stream("a", "tagid str")
        with pytest.raises(EslSemanticError):
            SeqOperator(engine, [SeqArg("a"), SeqArg("a")])

    def test_same_stream_twice_with_aliases(self):
        engine = Engine()
        engine.create_stream("a", "tagid str, tagtime float")
        got = []
        make_sequence_operator(
            engine, [SeqArg("a", alias="x"), SeqArg("a", alias="y")],
            on_match=got.append,
        )
        feed(engine, [("a", 1.0), ("a", 2.0)])
        assert chains(got) == [[1.0, 2.0]]

    def test_no_self_match_on_equal_ts(self):
        engine = Engine()
        engine.create_stream("a", "tagid str, tagtime float")
        got = []
        make_sequence_operator(
            engine, [SeqArg("a", alias="x"), SeqArg("a", alias="y")],
            on_match=got.append,
        )
        feed(engine, [("a", 1.0)])
        assert got == []  # a tuple cannot follow itself

    def test_strict_order_required(self):
        engine = Engine()
        op, got = build(engine, ["a", "b"], PairingMode.UNRESTRICTED)
        feed(engine, [("b", 1.0), ("a", 2.0)])  # wrong order
        assert got == []

    def test_star_args_rejected_here(self):
        engine = Engine()
        engine.create_stream("a", "tagid str")
        engine.create_stream("b", "tagid str")
        with pytest.raises(EslSemanticError):
            SeqOperator(engine, [SeqArg("a", starred=True), SeqArg("b")])

    def test_on_match_callback(self):
        engine = Engine()
        got = []
        op, unused = build(
            engine, ["a", "b"], PairingMode.RECENT, on_match=got.append
        )
        feed(engine, [("a", 1.0), ("b", 2.0)])
        assert chains(got) == [[1.0, 2.0]] and unused == []
        assert op.matches_emitted == 1

    def test_stop_detaches(self):
        engine = Engine()
        op, got = build(engine, ["a", "b"], PairingMode.RECENT)
        op.stop()
        feed(engine, [("a", 1.0), ("b", 2.0)])
        assert got == []


class TestGuard:
    def make(self, mode):
        engine = Engine()
        guard = lambda b: all(
            t1["tagid"] == t2["tagid"]
            for t1 in b.values() for t2 in b.values()
        )
        __, got = build(engine, ["a", "b"], mode, guard=guard)
        return engine, got

    def test_guard_filters_unrestricted(self):
        engine, got = self.make(PairingMode.UNRESTRICTED)
        feed_tagged(engine, [("a", "t1", 1.0), ("a", "t2", 2.0), ("b", "t1", 3.0)])
        assert chains(got) == [[1.0, 3.0]]

    def test_guard_steers_recent_selection(self):
        # Most recent *qualifying* tuple: t2@2 does not qualify for b:t1.
        engine, got = self.make(PairingMode.RECENT)
        feed_tagged(engine, [("a", "t1", 1.0), ("a", "t2", 2.0), ("b", "t1", 3.0)])
        assert chains(got) == [[1.0, 3.0]]

    def test_guard_steers_chronicle_selection(self):
        engine, got = self.make(PairingMode.CHRONICLE)
        feed_tagged(engine, [("a", "t2", 1.0), ("a", "t1", 2.0), ("b", "t1", 3.0)])
        assert chains(got) == [[2.0, 3.0]]


class TestChronicleConsumption:
    def test_tuples_used_once(self):
        engine = Engine()
        op, got = build(engine, ["a", "b"], PairingMode.CHRONICLE)
        feed(engine, [("a", 1.0), ("b", 2.0), ("b", 3.0)])
        # The second b finds no remaining a.
        assert chains(got) == [[1.0, 2.0]]

    def test_earliest_pairing(self):
        engine = Engine()
        op, got = build(engine, ["a", "b"], PairingMode.CHRONICLE)
        feed(engine, [("a", 1.0), ("a", 2.0), ("b", 3.0), ("b", 4.0)])
        assert chains(got) == [[1.0, 3.0], [2.0, 4.0]]


class TestRecentPurging:
    def test_recent_state_stays_small(self):
        engine = Engine()
        op, got = build(engine, ["a", "b", "c"], PairingMode.RECENT)
        for i in range(100):
            feed(engine, [("a", float(3 * i)), ("b", float(3 * i + 1))])
        # Dominated tuples are purged: only a bounded frontier remains.
        assert op.state_size <= 4

    def test_unrestricted_state_grows(self):
        engine = Engine()
        op, got = build(engine, ["a", "b", "c"], PairingMode.UNRESTRICTED)
        for i in range(50):
            feed(engine, [("a", float(3 * i)), ("b", float(3 * i + 1))])
        assert op.state_size == 100

    def test_purge_keeps_needed_history(self):
        """The worked example's C2:t3 must survive the arrival of C2:t6."""
        engine = Engine()
        op, got = build(engine, ["c1", "c2", "c3", "c4"], PairingMode.RECENT)
        feed(engine, PAPER_TRACE[:-1])  # everything up to t6
        feed(engine, [("c4", 7.0)])
        assert chains(got) == [[2.0, 3.0, 5.0, 7.0]]


class TestConsecutive:
    def test_adjacent_run_matches(self):
        engine = Engine()
        op, got = build(engine, ["a", "b", "c"], PairingMode.CONSECUTIVE)
        feed(engine, [("a", 1.0), ("b", 2.0), ("c", 3.0)])
        assert chains(got) == [[1.0, 2.0, 3.0]]

    def test_interloper_resets(self):
        engine = Engine()
        op, got = build(engine, ["a", "b", "c"], PairingMode.CONSECUTIVE)
        feed(engine, [("a", 1.0), ("c", 2.0), ("b", 3.0), ("c", 4.0)])
        assert got == []

    def test_interloper_can_restart(self):
        engine = Engine()
        op, got = build(engine, ["a", "b"], PairingMode.CONSECUTIVE)
        feed(engine, [("a", 1.0), ("a", 2.0), ("b", 3.0)])
        # Second a interrupts the first but starts a new run.
        assert chains(got) == [[2.0, 3.0]]

    def test_back_to_back_sequences(self):
        engine = Engine()
        op, got = build(engine, ["a", "b"], PairingMode.CONSECUTIVE)
        feed(engine, [("a", 1.0), ("b", 2.0), ("a", 3.0), ("b", 4.0)])
        assert chains(got) == [[1.0, 2.0], [3.0, 4.0]]

    def test_state_bounded(self):
        engine = Engine()
        op, got = build(engine, ["a", "b", "c"], PairingMode.CONSECUTIVE)
        for i in range(100):
            feed(engine, [("a", float(2 * i)), ("b", float(2 * i + 1))])
        assert op.state_size <= 2


class TestWindows:
    def test_preceding_window_rejects_slow_sequences(self):
        engine = Engine()
        window = OperatorWindow(10.0, 1, "preceding")
        op, got = build(engine, ["a", "b"], PairingMode.UNRESTRICTED, window=window)
        feed(engine, [("a", 0.0), ("b", 5.0), ("a", 20.0), ("b", 50.0)])
        assert chains(got) == [[0.0, 5.0]]

    def test_window_evicts_history(self):
        engine = Engine()
        window = OperatorWindow(10.0, 1, "preceding")
        op, got = build(engine, ["a", "b"], PairingMode.UNRESTRICTED, window=window)
        for i in range(100):
            feed(engine, [("a", float(i * 5))])
        assert op.state_size <= 3  # only the last ~10s of a-tuples retained

    def test_following_window(self):
        engine = Engine()
        window = OperatorWindow(10.0, 0, "following")
        op, got = build(engine, ["a", "b"], PairingMode.UNRESTRICTED, window=window)
        feed(engine, [("a", 0.0), ("b", 5.0), ("b", 20.0)])
        assert chains(got) == [[0.0, 5.0]]


class TestPartitioning:
    def test_partition_by_tag(self):
        engine = Engine()
        op, got = build(
            engine, ["a", "b"], PairingMode.CONSECUTIVE,
            partition_by=lambda t: t["tagid"],
        )
        # Interleaved tags would break a global CONSECUTIVE run; per-tag
        # partitions keep each run adjacent.
        feed_tagged(engine, [
            ("a", "t1", 1.0), ("a", "t2", 2.0), ("b", "t1", 3.0), ("b", "t2", 4.0),
        ])
        assert sorted(chains(got)) == [[1.0, 3.0], [2.0, 4.0]]

    def test_partitions_isolated(self):
        engine = Engine()
        op, got = build(
            engine, ["a", "b"], PairingMode.CHRONICLE,
            partition_by=lambda t: t["tagid"],
        )
        feed_tagged(engine, [("a", "t1", 1.0), ("b", "t2", 2.0)])
        assert got == []


class TestWindowedStateBounded:
    """A window bounds history even for partitions that stop receiving
    tuples: the amortized cross-partition sweep must evict idle tags, or
    UNRESTRICTED mode leaks one history per tag forever."""

    def run_idle_tags(self, n_tags, window):
        engine = Engine()
        op, got = build(
            engine, ["a", "b"], PairingMode.UNRESTRICTED, window=window,
            partition_by=lambda t: t["tagid"],
        )
        # Every tag emits one 'a' and never completes; virtual time keeps
        # moving, so old tags slide entirely out of the window.
        for i in range(n_tags):
            engine.push("a", {"tagid": f"t{i}", "tagtime": float(i)}, ts=float(i))
        return op

    def test_unrestricted_window_state_is_bounded(self):
        window = OperatorWindow(10.0, 1, "preceding")
        op = self.run_idle_tags(300, window)
        # Only tags within the last window (plus at most one sweep period
        # of lag) may retain history; the other ~280 must be gone.
        assert op.state_size <= 2 * window.duration + 2
        assert len(op._partitions) <= 2 * window.duration + 2

    def test_windowed_matches_survive_sweep(self):
        engine = Engine()
        window = OperatorWindow(10.0, 1, "preceding")
        op, got = build(
            engine, ["a", "b"], PairingMode.UNRESTRICTED, window=window,
            partition_by=lambda t: t["tagid"],
        )
        feed_tagged(engine, [
            ("a", "t1", 1.0),
            ("a", "t2", 2.0),                        # never completes
            ("b", "t1", 5.0),                        # in-window pair
            ("a", "t3", 40.0), ("b", "t3", 45.0),    # later pair, after sweep
        ])
        assert sorted(chains(got)) == [[1.0, 5.0], [40.0, 45.0]]
        assert "t2" not in op._partitions
