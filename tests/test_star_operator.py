"""Unit tests for star-sequence operators (paper section 3.1.2)."""

import pytest

from repro.core.operators import (
    OperatorWindow,
    PairingMode,
    SeqArg,
    StarSeqOperator,
    make_sequence_operator,
)
from repro.dsms import Engine
from repro.dsms.errors import EslSemanticError


def build(engine, args, mode=PairingMode.CHRONICLE, **kw):
    for arg in args:
        if arg.stream not in engine.streams:
            engine.create_stream(arg.stream, "tagid str, tagtime float")
    got = []
    op = make_sequence_operator(
        engine, args, mode=mode, on_match=got.append, **kw
    )
    return op, got


def feed(engine, trace):
    for stream, ts in trace:
        engine.push(stream, {"tagid": f"{stream}@{ts:g}", "tagtime": ts}, ts=ts)


class TestConstruction:
    def test_needs_a_star(self):
        engine = Engine()
        engine.create_stream("a", "x")
        engine.create_stream("b", "x")
        with pytest.raises(EslSemanticError):
            StarSeqOperator(engine, [SeqArg("a"), SeqArg("b")])

    def test_factory_dispatch(self):
        engine = Engine()
        engine.create_stream("a", "x")
        engine.create_stream("b", "x")
        op = make_sequence_operator(
            engine, [SeqArg("a", starred=True), SeqArg("b")]
        )
        assert isinstance(op, StarSeqOperator)

    def test_star_followed_by_same_stream_rejected(self):
        engine = Engine()
        engine.create_stream("a", "x")
        with pytest.raises(EslSemanticError):
            StarSeqOperator(
                engine,
                [SeqArg("a", alias="x", starred=True), SeqArg("a", alias="y")],
            )

    def test_gap_on_plain_arg_rejected(self):
        with pytest.raises(EslSemanticError):
            SeqArg("a", max_gap=1.0)


class TestLongestMatch:
    def test_only_longest_run_emits(self):
        engine = Engine()
        op, got = build(engine, [SeqArg("e1", starred=True), SeqArg("e2")])
        feed(engine, [("e1", 1.0), ("e1", 2.0), ("e1", 3.0), ("e2", 4.0)])
        assert len(got) == 1
        assert got[0].count("e1") == 3

    def test_first_last_count(self):
        engine = Engine()
        op, got = build(engine, [SeqArg("e1", starred=True), SeqArg("e2")])
        feed(engine, [("e1", 1.0), ("e1", 2.0), ("e2", 3.0)])
        match = got[0]
        assert match.first("e1").ts == 1.0
        assert match.last("e1").ts == 2.0
        assert match.count("e1") == 2
        assert match.tuple_for("e2").ts == 3.0

    def test_star_requires_at_least_one_tuple(self):
        engine = Engine()
        op, got = build(engine, [SeqArg("e1", starred=True), SeqArg("e2")])
        feed(engine, [("e2", 1.0)])  # no e1 run yet
        assert got == []


class TestTrailingStarOnline:
    def test_event_per_trailing_arrival(self):
        """SEQ(E1*, E2*): one event per E2 arrival (paper 3.1.2)."""
        engine = Engine()
        op, got = build(
            engine,
            [SeqArg("e1", starred=True), SeqArg("e2", starred=True)],
        )
        feed(engine, [("e1", 1.0), ("e1", 2.0),
                      ("e2", 3.0), ("e2", 4.0), ("e2", 5.0)])
        assert len(got) == 3
        assert [m.count("e2") for m in got] == [1, 2, 3]
        assert all(m.count("e1") == 2 for m in got)


class TestGapSegmentation:
    def test_max_gap_splits_runs(self):
        engine = Engine()
        op, got = build(
            engine,
            [SeqArg("e1", starred=True, max_gap=1.0), SeqArg("e2")],
        )
        # Two runs: [1.0, 1.5] then [4.0]; e2 at 4.5 matches the earliest.
        feed(engine, [("e1", 1.0), ("e1", 1.5), ("e1", 4.0), ("e2", 4.5)])
        assert len(got) == 1
        assert got[0].count("e1") == 2
        assert got[0].first("e1").ts == 1.0

    def test_gap_check_predicate(self):
        engine = Engine()
        # Custom predicate: consecutive tuples must have ascending tagtime
        # within 2 units.
        op, got = build(
            engine,
            [
                SeqArg(
                    "e1", starred=True,
                    gap_check=lambda prev, cur: cur.ts - prev.ts <= 2.0,
                ),
                SeqArg("e2"),
            ],
        )
        feed(engine, [("e1", 0.0), ("e1", 1.5), ("e1", 10.0), ("e2", 11.0)])
        assert got[0].count("e1") == 2

    def test_second_run_matches_second_case(self):
        engine = Engine()
        op, got = build(
            engine,
            [SeqArg("e1", starred=True, max_gap=1.0), SeqArg("e2")],
        )
        feed(engine, [
            ("e1", 1.0), ("e1", 1.5),   # run 1
            ("e1", 4.0),                  # run 2
            ("e2", 4.5),                  # matches run 1 (chronicle)
            ("e2", 5.0),                  # matches run 2
        ])
        assert [m.count("e1") for m in got] == [2, 1]


class TestFigure1Overlap:
    """Figure 1(b): the next case's products start before the previous case
    tag is read."""

    def test_overlapping_cases_resolve_correctly(self):
        engine = Engine()

        def guard(bindings):
            run = bindings.get("e1")
            case = bindings.get("e2")
            if isinstance(run, list) and run and case is not None and not (
                isinstance(case, list)
            ):
                return case.ts - run[-1].ts <= 5.0
            return True

        op, got = build(
            engine,
            [SeqArg("e1", starred=True, max_gap=1.0), SeqArg("e2")],
            guard=guard,
        )
        feed(engine, [
            ("e1", 0.0), ("e1", 0.5),     # case 1 products
            ("e1", 2.0), ("e1", 2.5),     # case 2 products (gap 1.5 > 1)
            ("e2", 3.0),                   # case 1 tag (within 5s of 0.5)
            ("e2", 6.0),                   # case 2 tag (within 5s of 2.5)
        ])
        assert len(got) == 2
        first, second = got
        assert [t.ts for t in first.run_for("e1")] == [0.0, 0.5]
        assert first.tuple_for("e2").ts == 3.0
        assert [t.ts for t in second.run_for("e1")] == [2.0, 2.5]


class TestModes:
    def test_chronicle_consumes_runs(self):
        engine = Engine()
        op, got = build(engine, [SeqArg("e1", starred=True, max_gap=1.0),
                            SeqArg("e2")], mode=PairingMode.CHRONICLE)
        feed(engine, [("e1", 1.0), ("e2", 2.0), ("e2", 3.0)])
        # Second e2 finds no run left.
        assert len(got) == 1

    def test_recent_matches_latest_run(self):
        engine = Engine()
        op, got = build(engine, [SeqArg("e1", starred=True, max_gap=1.0),
                            SeqArg("e2")], mode=PairingMode.RECENT)
        feed(engine, [
            ("e1", 1.0),            # run 1
            ("e1", 5.0),            # run 2 (gap > 1)
            ("e2", 6.0),
        ])
        assert len(got) == 1
        assert got[0].first("e1").ts == 5.0

    def test_consecutive_interloper_resets(self):
        engine = Engine()
        op, got = build(
            engine,
            [SeqArg("e1", starred=True), SeqArg("e2"), SeqArg("e3")],
            mode=PairingMode.CONSECUTIVE,
        )
        feed(engine, [("e1", 1.0), ("e3", 2.0),        # e3 interrupts
                      ("e1", 3.0), ("e2", 4.0), ("e3", 5.0)])
        assert len(got) == 1
        assert got[0].first("e1").ts == 3.0

    def test_unrestricted_combines_runs_with_all_anchors(self):
        engine = Engine()
        op, got = build(
            engine,
            [SeqArg("e1", starred=True, max_gap=1.0), SeqArg("e2")],
            mode=PairingMode.UNRESTRICTED,
        )
        feed(engine, [("e1", 1.0), ("e2", 2.0), ("e2", 3.0)])
        # Both e2 tuples pair with the (single, longest) run.
        assert len(got) == 2


class TestThreeStagePatterns:
    def test_star_middle(self):
        engine = Engine()
        op, got = build(
            engine,
            [SeqArg("a"), SeqArg("b", starred=True), SeqArg("c")],
        )
        feed(engine, [("a", 1.0), ("b", 2.0), ("b", 3.0), ("c", 4.0)])
        match = got[0]
        assert match.tuple_for("a").ts == 1.0
        assert match.count("b") == 2
        assert match.tuple_for("c").ts == 4.0

    def test_paper_pattern_a_star_b_c_star_d(self):
        """SEQ(A*, B, C*, D) from section 3.1.2."""
        engine = Engine()
        op, got = build(
            engine,
            [
                SeqArg("a", starred=True),
                SeqArg("b"),
                SeqArg("c", starred=True),
                SeqArg("d"),
            ],
        )
        feed(engine, [
            ("a", 1.0), ("a", 2.0), ("b", 3.0),
            ("c", 4.0), ("c", 5.0), ("c", 6.0), ("d", 7.0),
        ])
        match = got[0]
        assert match.count("a") == 2
        assert match.count("c") == 3
        assert match.tuple_for("b").ts == 3.0


class TestWindowsAndState:
    def test_preceding_window_rejects(self):
        engine = Engine()
        window = OperatorWindow(3.0, 1, "preceding")
        op, got = build(
            engine,
            [SeqArg("e1", starred=True), SeqArg("e2")],
            window=window,
        )
        feed(engine, [("e1", 0.0), ("e1", 1.0), ("e2", 10.0)])
        assert got == []

    def test_preceding_window_admits(self):
        engine = Engine()
        window = OperatorWindow(5.0, 1, "preceding")
        op, got = build(
            engine,
            [SeqArg("e1", starred=True), SeqArg("e2")],
            window=window,
        )
        feed(engine, [("e1", 0.0), ("e1", 1.0), ("e2", 4.0)])
        assert len(got) == 1

    def test_ttl_prunes_stale_partials(self):
        engine = Engine()
        op, got = build(
            engine,
            [SeqArg("e1", starred=True, max_gap=1.0), SeqArg("e2")],
            ttl=10.0,
        )
        feed(engine, [("e1", 0.0)])
        feed(engine, [("e1", 100.0)])  # first partial is now stale
        assert op.state_size == 1

    def test_state_size_counts_bound_tuples(self):
        engine = Engine()
        op, got = build(engine, [SeqArg("e1", starred=True), SeqArg("e2")])
        feed(engine, [("e1", 0.0), ("e1", 0.5)])
        assert op.state_size == 2

    def test_partitioned_runs(self):
        engine = Engine()
        op, got = build(
            engine,
            [SeqArg("e1", starred=True), SeqArg("e2")],
            partition_by=lambda t: t["tagid"],
        )
        # Different tag ids live in different partitions: runs never mix.
        for stream, tag, ts in [
            ("e1", "k1", 1.0), ("e1", "k2", 2.0),
            ("e2", "k1", 3.0), ("e2", "k2", 4.0),
        ]:
            engine.push(stream, {"tagid": tag, "tagtime": ts}, ts=ts)
        assert len(got) == 2
        assert all(m.count("e1") == 1 for m in got)


class TestUnrestrictedBranching:
    """Clone-on-bind semantics: every qualifying partial advances."""

    def test_two_anchors_two_runs_all_pairs(self):
        engine = Engine()
        op, got = build(
            engine,
            [SeqArg("e1", starred=True, max_gap=1.0), SeqArg("e2")],
            mode=PairingMode.UNRESTRICTED,
        )
        feed(engine, [
            ("e1", 1.0),              # run 1
            ("e1", 5.0),              # run 2
            ("e2", 6.0), ("e2", 7.0),
        ])
        # Each anchor pairs with each preceding run: 2 runs x 2 anchors.
        assert len(got) == 4
        starts = sorted(
            (m.first("e1").ts, m.tuple_for("e2").ts) for m in got
        )
        assert starts == [(1.0, 6.0), (1.0, 7.0), (5.0, 6.0), (5.0, 7.0)]

    def test_three_stage_branching(self):
        engine = Engine()
        op, got = build(
            engine,
            [SeqArg("a", starred=True), SeqArg("b"), SeqArg("c")],
            mode=PairingMode.UNRESTRICTED,
        )
        feed(engine, [("a", 1.0), ("b", 2.0), ("b", 3.0), ("c", 4.0)])
        # The run [a@1] pairs with each b, then each with c: 2 matches.
        assert len(got) == 2
        assert sorted(m.tuple_for("b").ts for m in got) == [2.0, 3.0]

    def test_store_matches_disabled(self):
        """Matches leave only through on_match: the operator keeps none."""
        engine = Engine()
        for name in ("e1", "e2"):
            engine.create_stream(name, "tagid str, tagtime float")
        op = make_sequence_operator(
            engine,
            [SeqArg("e1", starred=True), SeqArg("e2")],
            mode=PairingMode.CHRONICLE,
        )
        feed(engine, [("e1", 1.0), ("e2", 2.0)])
        assert op.matches_emitted == 1
        assert not hasattr(op, "matches")


class TestOperatorBookkeeping:
    def test_tuples_seen_counts_participating_only(self):
        engine = Engine()
        engine.create_stream("other", "tagid str, tagtime float")
        op, got = build(engine, [SeqArg("e1", starred=True), SeqArg("e2")])
        feed(engine, [("e1", 1.0), ("e2", 2.0)])
        engine.push("other", {"tagid": "x", "tagtime": 3.0}, ts=3.0)
        assert op.tuples_seen == 2  # `other` is not subscribed

    def test_stop_detaches(self):
        engine = Engine()
        op, got = build(engine, [SeqArg("e1", starred=True), SeqArg("e2")])
        op.stop()
        feed(engine, [("e1", 1.0), ("e2", 2.0)])
        assert got == []

    def test_repr_mentions_pattern(self):
        engine = Engine()
        op, got = build(engine, [SeqArg("e1", starred=True), SeqArg("e2")])
        assert "e1*" in repr(op)
