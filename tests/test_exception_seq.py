"""Unit tests for EXCEPTION_SEQ / CLEVEL_SEQ and completion levels."""

import pytest

from repro.core.operators import (
    ExceptionReason,
    ExceptionSeqOperator,
    OperatorWindow,
    PairingMode,
    SeqArg,
)
from repro.dsms import Engine
from repro.dsms.errors import EslSemanticError


def build(engine, streams=("a", "b", "c"), **kw):
    for name in streams:
        if name not in engine.streams:
            engine.create_stream(name, "tagid str, tagtime float")
    got = []
    op = ExceptionSeqOperator(
        engine, [SeqArg(s) for s in streams], on_outcome=got.append, **kw
    )
    return op, got


def feed(engine, trace, tag="x"):
    for stream, ts in trace:
        engine.push(stream, {"tagid": tag, "tagtime": ts}, ts=ts)


def reasons(outcomes):
    return [o.reason for o in outcomes]


def levels(outcomes):
    return [o.level for o in outcomes]


class TestConstruction:
    def test_trailing_star_rejected(self):
        engine = Engine()
        engine.create_stream("a", "x")
        engine.create_stream("b", "x")
        with pytest.raises(EslSemanticError, match="trailing star"):
            ExceptionSeqOperator(
                engine, [SeqArg("a"), SeqArg("b", starred=True)]
            )

    def test_non_trailing_star_accepted(self):
        engine = Engine()
        engine.create_stream("a", "x")
        engine.create_stream("b", "x")
        op = ExceptionSeqOperator(
            engine, [SeqArg("a", starred=True), SeqArg("b")]
        )
        assert op.args[0].starred

    def test_unrestricted_mode_rejected(self):
        engine = Engine()
        engine.create_stream("a", "x")
        engine.create_stream("b", "x")
        with pytest.raises(EslSemanticError):
            ExceptionSeqOperator(
                engine, [SeqArg("a"), SeqArg("b")],
                mode=PairingMode.UNRESTRICTED,
            )


class TestCompletion:
    def test_clean_sequence_completes(self):
        engine = Engine()
        op, got = build(engine)
        feed(engine, [("a", 1.0), ("b", 2.0), ("c", 3.0)])
        assert reasons(got) == [ExceptionReason.COMPLETED]
        assert levels(got) == [3]
        assert op.completions_emitted == 1
        assert op.exceptions_emitted == 0

    def test_repeated_clean_sequences(self):
        engine = Engine()
        op, got = build(engine)
        feed(engine, [("a", 1.0), ("b", 2.0), ("c", 3.0),
                      ("a", 4.0), ("b", 5.0), ("c", 6.0)])
        assert levels(got) == [3, 3]

    def test_completion_binding_lookup(self):
        engine = Engine()
        op, got = build(engine)
        feed(engine, [("a", 1.0), ("b", 2.0), ("c", 3.0)])
        outcome = got[0]
        assert outcome.tuple_for("a").ts == 1.0
        assert outcome.tuple_for("c").ts == 3.0
        assert not outcome.is_exception


class TestWrongTuple:
    def test_skipped_stage(self):
        engine = Engine()
        op, got = build(engine)
        feed(engine, [("a", 1.0), ("c", 2.0)])
        assert reasons(got) == [ExceptionReason.WRONG_TUPLE]
        assert levels(got) == [1]
        assert got[0].expected == "b"
        assert got[0].offending.ts == 2.0

    def test_partial_preserved_in_outcome(self):
        engine = Engine()
        op, got = build(engine)
        feed(engine, [("a", 1.0), ("b", 2.0), ("a", 3.0)])
        outcome = got[0]
        assert outcome.level == 2
        assert [t.ts for t in outcome.partial] == [1.0, 2.0]
        assert outcome.tuple_for("c") is None  # never bound

    def test_consecutive_recovery_restarts(self):
        engine = Engine()
        op, got = build(engine, mode=PairingMode.CONSECUTIVE)
        # a then c (exception), then a,b,c should complete.
        feed(engine, [("a", 1.0), ("c", 2.0),
                      ("a", 3.0), ("b", 4.0), ("c", 5.0)])
        assert reasons(got) == [
            ExceptionReason.WRONG_TUPLE, ExceptionReason.COMPLETED,
        ]

    def test_recent_repeat_replaces_binding(self):
        """The paper's RECENT scenario: (A, B) + B raises an exception and
        the second B replaces the first."""
        engine = Engine()
        op, got = build(engine, mode=PairingMode.RECENT)
        feed(engine, [("a", 1.0), ("b", 2.0), ("b", 3.0), ("c", 4.0)])
        assert reasons(got) == [
            ExceptionReason.WRONG_TUPLE, ExceptionReason.COMPLETED,
        ]
        completed = got[1]
        assert completed.tuple_for("b").ts == 3.0  # the replacement

    def test_recent_nonmember_dropped_partial_survives(self):
        engine = Engine()
        op, got = build(engine, mode=PairingMode.RECENT)
        feed(engine, [("a", 1.0), ("c", 2.0), ("b", 3.0), ("c", 4.0)])
        # c@2 raises; (a) survives; b@3 extends; c@4 completes.
        assert reasons(got) == [
            ExceptionReason.WRONG_TUPLE, ExceptionReason.COMPLETED,
        ]


class TestWrongStart:
    def test_level_zero_exception(self):
        engine = Engine()
        op, got = build(engine)
        feed(engine, [("b", 1.0)])
        assert reasons(got) == [ExceptionReason.WRONG_START]
        assert levels(got) == [0]

    def test_paper_scenario_after_completion(self):
        """(A,B,C) completes, then a lone C cannot start: level-0."""
        engine = Engine()
        op, got = build(engine)
        feed(engine, [("a", 1.0), ("b", 2.0), ("c", 3.0), ("c", 4.0)])
        assert reasons(got) == [
            ExceptionReason.COMPLETED, ExceptionReason.WRONG_START,
        ]

    def test_wrong_start_reporting_can_be_disabled(self):
        engine = Engine()
        op, got = build(engine, report_wrong_start=False)
        feed(engine, [("b", 1.0)])
        assert got == []


class TestActiveExpiration:
    def window(self, anchor=0):
        return OperatorWindow(3600.0, anchor, "following")

    def test_timeout_fires_without_arrivals(self):
        engine = Engine()
        op, got = build(engine, window=self.window())
        feed(engine, [("a", 0.0), ("b", 10.0)])
        engine.advance_time(5000.0)  # heartbeat only — no tuples
        assert reasons(got) == [ExceptionReason.WINDOW_EXPIRED]
        assert levels(got) == [2]

    def test_completion_cancels_timer(self):
        engine = Engine()
        op, got = build(engine, window=self.window())
        feed(engine, [("a", 0.0), ("b", 1.0), ("c", 2.0)])
        engine.advance_time(10000.0)
        assert reasons(got) == [ExceptionReason.COMPLETED]
        assert engine.clock.pending_timers() == 0

    def test_timeout_fires_before_late_tuple(self):
        engine = Engine()
        op, got = build(engine, window=self.window())
        feed(engine, [("a", 0.0), ("b", 10.0)])
        feed(engine, [("c", 4000.0)])  # arrives after the deadline
        # The expiration is detected first; the late c is then a wrong start.
        assert reasons(got) == [
            ExceptionReason.WINDOW_EXPIRED, ExceptionReason.WRONG_START,
        ]

    def test_window_anchored_mid_sequence(self):
        """OVER [d FOLLOWING A2]: the timer arms when stage 2 binds."""
        engine = Engine()
        op, got = build(engine, window=OperatorWindow(100.0, 1, "following"))
        feed(engine, [("a", 0.0)])
        engine.advance_time(1000.0)  # no timer yet: anchor is stage 1
        assert got == []
        feed(engine, [("b", 1000.0)])
        engine.advance_time(2000.0)
        assert reasons(got) == [ExceptionReason.WINDOW_EXPIRED]

    def test_preceding_window_checked_at_completion(self):
        engine = Engine()
        op, got = build(engine, window=OperatorWindow(5.0, 2, "preceding"))
        feed(engine, [("a", 0.0), ("b", 1.0), ("c", 100.0)])
        assert reasons(got) == [ExceptionReason.WINDOW_EXPIRED]

    def test_timer_generation_guard(self):
        """A reset partial must not be killed by its predecessor's timer."""
        engine = Engine()
        op, got = build(engine, window=self.window())
        feed(engine, [("a", 0.0), ("b", 1.0), ("c", 2.0)])   # completes
        feed(engine, [("a", 3599.0), ("b", 3599.5)])          # new run
        engine.advance_time(3601.0)  # first run's deadline passes
        assert reasons(got) == [ExceptionReason.COMPLETED]
        feed(engine, [("c", 3602.0)])
        assert reasons(got) == [
            ExceptionReason.COMPLETED, ExceptionReason.COMPLETED,
        ]


class TestPartitioning:
    def test_per_tag_automata(self):
        engine = Engine()
        op, got = build(engine, partition_by=lambda t: t["tagid"])
        for stream, tag, ts in [
            ("a", "t1", 1.0), ("a", "t2", 2.0),
            ("b", "t1", 3.0), ("b", "t2", 4.0),
            ("c", "t1", 5.0), ("c", "t2", 6.0),
        ]:
            engine.push(stream, {"tagid": tag, "tagtime": ts}, ts=ts)
        assert levels(got) == [3, 3]

    def test_guard_rejection_is_exception(self):
        engine = Engine()
        op, got = build(
            engine,
            guard=lambda b: len({t["tagid"] for t in b.values()}) == 1,
        )
        feed(engine, [("a", 1.0)], tag="t1")
        feed(engine, [("b", 2.0)], tag="t2")  # guard fails: wrong tuple
        assert reasons(got) == [ExceptionReason.WRONG_TUPLE]


class TestBookkeeping:
    def test_exceptions_helper(self):
        engine = Engine()
        op, got = build(engine)
        feed(engine, [("a", 1.0), ("b", 2.0), ("c", 3.0), ("b", 4.0)])
        assert [o.is_exception for o in got] == [False, True]

    def test_stop_cancels_timers(self):
        engine = Engine()
        op, got = build(engine, window=OperatorWindow(100.0, 0, "following"))
        feed(engine, [("a", 0.0)])
        op.stop()
        assert engine.clock.pending_timers() == 0
        engine.advance_time(1000.0)
        assert got == []

    def test_state_size(self):
        engine = Engine()
        op, got = build(engine)
        feed(engine, [("a", 1.0), ("b", 2.0)])
        assert op.state_size == 2


class TestStarStages:
    """Starred stages in EXCEPTION_SEQ — the extension the paper mentions
    but leaves undetailed ("EXCEPTION_SEQ can also allow repeating star
    sequences")."""

    def build_star(self, engine, max_gap=None, **kw):
        for name in ("a", "b", "c"):
            if name not in engine.streams:
                engine.create_stream(name, "tagid str, tagtime float")
        got = []
        op = ExceptionSeqOperator(
            engine,
            [SeqArg("a"), SeqArg("b", starred=True, max_gap=max_gap),
             SeqArg("c")],
            on_outcome=got.append,
            **kw,
        )
        return op, got

    def test_repeated_middle_stage_completes(self):
        engine = Engine()
        op, got = self.build_star(engine)
        feed(engine, [("a", 1.0), ("b", 2.0), ("b", 3.0), ("b", 4.0),
                      ("c", 5.0)])
        assert reasons(got) == [ExceptionReason.COMPLETED]
        done = got[0]
        assert len(done.run_for("b")) == 3
        assert done.tuple_for("b").ts == 4.0

    def test_level_counts_entered_stages(self):
        engine = Engine()
        op, got = self.build_star(engine)
        feed(engine, [("a", 1.0), ("b", 2.0), ("b", 3.0), ("a", 4.0)])
        # a@4 is a wrong extension while (A, B+) is open: level 2.
        assert reasons(got) == [ExceptionReason.WRONG_TUPLE]
        assert levels(got) == [2]

    def test_gap_violation_is_wrong_tuple(self):
        engine = Engine()
        op, got = self.build_star(engine, max_gap=1.0)
        feed(engine, [("a", 1.0), ("b", 2.0), ("b", 10.0)])  # gap 8 > 1
        assert reasons(got) == [ExceptionReason.WRONG_TUPLE]
        assert levels(got) == [2]

    def test_consecutive_recovery_after_star_break(self):
        engine = Engine()
        op, got = self.build_star(engine)
        feed(engine, [("a", 1.0), ("b", 2.0), ("a", 3.0),   # breaks, restarts
                      ("b", 4.0), ("c", 5.0)])
        assert reasons(got) == [
            ExceptionReason.WRONG_TUPLE, ExceptionReason.COMPLETED,
        ]

    def test_timer_arms_on_first_star_tuple(self):
        engine = Engine()
        op, got = self.build_star(
            engine,
            window=OperatorWindow(100.0, 1, "following"),
        )
        feed(engine, [("a", 0.0), ("b", 10.0), ("b", 20.0)])
        engine.advance_time(1000.0)
        assert reasons(got) == [ExceptionReason.WINDOW_EXPIRED]
        # The deadline keyed off the FIRST b tuple (10.0 + 100.0).
        assert got[0].ts == 110.0

    def test_state_size_counts_run_tuples(self):
        engine = Engine()
        op, got = self.build_star(engine)
        feed(engine, [("a", 1.0), ("b", 2.0), ("b", 3.0)])
        assert op.state_size == 3

    def test_star_query_through_language(self):
        engine = Engine()
        for name in ("a1", "a2", "a3"):
            engine.create_stream(name, "tagid str, tagtime float")
        handle = engine.query(
            "SELECT A1.tagid, COUNT(A2*) AS reps FROM a1, a2, a3 "
            "WHERE EXCEPTION_SEQ(A1, A2*, A3)"
        )
        for stream, ts in [("a1", 1.0), ("a2", 2.0), ("a2", 3.0),
                           ("a1", 4.0)]:
            engine.push(stream, {"tagid": "s", "tagtime": ts}, ts=ts)
        rows = handle.rows()
        assert len(rows) == 1
        assert rows[0]["reps"] == 2  # the broken partial had two A2 tuples
