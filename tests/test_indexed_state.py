"""Indexed sequence state against the oracle.

SEQ keeps cached predecessor cuts, bisected eviction and the lazy
partition-expiry heap.  Hand-built operators (plain-callable guards,
explicit partition functions) must emit exactly the matches, in the same
order, that the oracle (``tests/oracle/temporal.py``) reads off the
equivalent statement — across all four pairing modes, window shapes,
guards, star sequences, and timer-driven EXCEPTION_SEQ violations.

The second half covers the state-bounds regression the heap exists for:
windowed UNRESTRICTED with many one-shot tags must keep ``state_size``
bounded and drop idle partitions, on both :class:`Engine` and
:class:`ShardedEngine`, including via clock heartbeats with no arrivals.
"""

import random

import pytest

from repro.core.operators import (
    ExceptionSeqOperator,
    OperatorWindow,
    PairingMode,
    SeqArg,
    make_sequence_operator,
)
from repro.dsms import Engine, ShardedEngine
from repro.rfid import (
    build_quality_check,
    build_quality_check_sharded,
    quality_check_workload,
)
from repro.rfid.scenarios import quality_query_text

from .oracle.relational import run_program
from .oracle.temporal import seq_statement_text

MODES = [
    PairingMode.UNRESTRICTED,
    PairingMode.RECENT,
    PairingMode.CHRONICLE,
    PairingMode.CONSECUTIVE,
]

#: Window shapes exercised by the random sweep: None, the canonical
#: PRECEDING-last shape (whose per-chain check the indexed path elides),
#: a mid-anchored PRECEDING window, and a FOLLOWING window.
WINDOW_SHAPES = ["none", "preceding_last", "preceding_mid", "following"]

SCHEMA = "tagid str, tagtime float"


def window_for(shape, n_args, duration=12.0):
    if shape == "none":
        return None
    if shape == "preceding_last":
        return OperatorWindow(duration, n_args - 1, "preceding")
    if shape == "preceding_mid":
        return OperatorWindow(duration, 1, "preceding")
    return OperatorWindow(duration, 0, "following")


def aliases_for(streams):
    return [f"{name}{i}" for i, name in enumerate(streams)]


def build_op(engine, streams, mode, **kw):
    for name in set(streams):
        engine.create_stream(name, SCHEMA)
    args = [SeqArg(name, alias=alias) for name, alias in zip(streams, aliases_for(streams))]
    return make_sequence_operator(engine, args, mode=mode, **kw)


def random_trace(seed, n=240, streams=("a", "b", "c"), tags=("t1", "t2", "t3")):
    rng = random.Random(seed)
    ts = 0.0
    trace = []
    for _ in range(n):
        ts += rng.choice([0.0, 0.4, 1.1, 3.0, 9.0])
        trace.append((rng.choice(streams), rng.choice(tags), ts))
    return trace


def records(trace):
    return [(stream, {"tagid": tag, "tagtime": ts}, ts) for stream, tag, ts in trace]


def state_invariant(op):
    """The incremental held-tuple counter must equal a from-scratch sum."""
    assert op.state_size == sum(
        p.state_size() for p in op._partitions.values()
    )


def same_tag(bindings):
    """The plain guard: every bound tuple carries one tag."""
    return len({t["tagid"] for t in bindings.values()}) == 1


def run_one(streams, mode, trace, window, guard, partition):
    engine = Engine()
    matches = []
    op = build_op(
        engine, streams, mode, window=window, guard=guard,
        partition_by=(lambda t: t["tagid"]) if partition else None,
        on_match=matches.append,
    )
    engine.run_trace(records(trace))
    state_invariant(op)
    aliases = aliases_for(streams)
    return [
        (tuple(v for alias in aliases for v in m.tuple_for(alias).values), m.ts)
        for m in matches
    ]


def oracle_rows(streams, mode, trace, window, guard, partition):
    """The oracle's reading of the hand-built operator: the partition is
    an equality chain it hoists, the guard pairwise terms it does not."""
    aliases = aliases_for(streams)
    terms = []
    if partition:
        terms += [f"{aliases[0]}.tagid = {alias}.tagid" for alias in aliases[1:]]
    if guard is not None:
        terms += [
            f"lower({a}.tagid) = lower({b}.tagid)"
            for i, a in enumerate(aliases) for b in aliases[i + 1:]
        ]
    text = seq_statement_text(
        aliases, streams, mode.value,
        None if window is None else (window.duration, window.direction, window.anchor),
        terms,
    )
    (rows,) = run_program(text, {name: SCHEMA for name in streams}, {}, records(trace))
    return rows


def assert_differential(streams, mode, trace, window=None, guard=None,
                        partition=False):
    expected = oracle_rows(streams, mode, trace, window, guard, partition)
    assert run_one(streams, mode, trace, window, guard, partition) == expected


class TestDifferentialModes:
    """Random-trace sweep over every (mode, window shape) combination."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("shape", WINDOW_SHAPES)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_partitioned(self, mode, shape, seed):
        trace = random_trace(seed)
        assert_differential(
            ["a", "b", "c"], mode, trace,
            window=window_for(shape, 3), partition=True,
        )

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("shape", WINDOW_SHAPES)
    def test_unpartitioned(self, mode, shape):
        trace = random_trace(7, n=120)
        assert_differential(
            ["a", "b", "c"], mode, trace, window=window_for(shape, 3),
        )

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("shape", ["none", "preceding_last"])
    def test_pairing_guard(self, mode, shape):
        """A plain (pairing-time) guard: RECENT keeps full history and the
        indexed path walks stored cuts under guard probes."""
        trace = random_trace(11, n=160)
        assert_differential(
            ["a", "b", "c"], mode, trace,
            window=window_for(shape, 3), guard=same_tag,
        )

    @pytest.mark.parametrize("mode", MODES[:3])
    def test_multi_position_stream(self, mode):
        """One stream feeding two argument positions: a tuple admitted at
        stage i must not pair with itself as the stage-i+1 anchor (the
        stored-cut trailing exclusion)."""
        trace = random_trace(13, n=140, streams=("a", "b"))
        assert_differential(
            ["a", "b", "a"], mode, trace,
            window=window_for("preceding_last", 3),
        )

    @pytest.mark.parametrize("shape", WINDOW_SHAPES)
    def test_two_stage_windowed(self, shape):
        trace = random_trace(17, n=200, streams=("a", "b"))
        assert_differential(
            ["a", "b"], PairingMode.UNRESTRICTED, trace,
            window=window_for(shape, 2), partition=True,
        )


STAR_QUERY = """
SELECT FIRST(R1*).tagtime, COUNT(R1*), R2.tagid, R2.tagtime
FROM R1, R2
WHERE SEQ(R1*, R2) MODE CHRONICLE
AND R2.tagtime - LAST(R1*).tagtime <= 5 SECONDS
AND R1.tagtime - R1.previous.tagtime <= 1 SECONDS
"""

QUALITY_STREAMS = {name: "readerid str, tagid str, tagtime float"
                   for name in ("c1", "c2", "c3", "c4")}


def values_of(rows):
    return [tuple(row.values()) for row in rows]


class TestDifferentialQueries:
    def test_star_sequence_rows_identical(self):
        rng = random.Random(23)
        trace, ts = [], 0.0
        for _ in range(150):
            ts += rng.choice([0.3, 0.8, 2.0, 6.0])
            stream = "r1" if rng.random() < 0.8 else "r2"
            trace.append((stream, {"readerid": "r", "tagid": "t1", "tagtime": ts}, ts))
        engine = Engine()
        for name in ("r1", "r2"):
            engine.create_stream(name, "readerid str, tagid str, tagtime float")
        handle = engine.query(STAR_QUERY, name="star")
        engine.run_trace(trace)
        (expected,) = run_program(
            STAR_QUERY,
            {name: "readerid str, tagid str, tagtime float" for name in ("r1", "r2")},
            {}, trace,
        )
        assert expected
        assert values_of(handle.rows()) == [values for values, _ts in expected]

    @pytest.mark.parametrize("mode", ["UNRESTRICTED", "RECENT", "CHRONICLE"])
    def test_quality_scenario_rows_identical(self, mode):
        workload = quality_check_workload(n_products=40, seed=51)
        (expected,) = run_program(
            quality_query_text(mode, window_minutes=30.0), QUALITY_STREAMS, {},
            workload.trace,
        )
        indexed = build_quality_check(
            workload, mode=mode, window_minutes=30.0
        ).feed()
        assert values_of(indexed.rows()) == [values for values, _ts in expected]

    def test_sharded_indexed_matches_reference(self):
        workload = quality_check_workload(n_products=40, seed=52)
        (expected,) = run_program(
            quality_query_text("UNRESTRICTED", window_minutes=30.0),
            QUALITY_STREAMS, {}, workload.trace,
        )
        scenario = build_quality_check_sharded(
            workload, n_shards=3, mode="UNRESTRICTED", window_minutes=30.0,
        ).feed()
        try:
            assert values_of(scenario.rows()) == [values for values, _ts in expected]
        finally:
            scenario.engine.close()


class TestDifferentialExceptionSeq:
    """Active-expiration timers on a hand-built operator against the
    oracle's completion levels."""

    def run_outcomes(self, mode):
        engine = Engine()
        for name in ("a1", "a2", "a3"):
            engine.create_stream(name, SCHEMA)
        outcomes = []
        op = ExceptionSeqOperator(
            engine,
            [SeqArg("a1"), SeqArg("a2"), SeqArg("a3")],
            window=OperatorWindow(10.0, 0, "following"),
            mode=mode,
            partition_by=lambda t: t["tagid"],
            on_outcome=outcomes.append,
        )
        rng = random.Random(29)
        ts = 0.0
        trace = []
        for _ in range(120):
            ts += rng.choice([0.5, 2.0, 7.0])
            stream = rng.choice(["a1", "a2", "a3"])
            tag = rng.choice(["t1", "t2", "t3", "t4"])
            trace.append((stream, {"tagid": tag, "tagtime": ts}, ts))
        engine.run_trace(trace)
        engine.advance_time(ts + 100.0)  # fire every remaining expiration
        return engine, op, outcomes, trace, ts + 100.0

    @pytest.mark.parametrize(
        "mode", [PairingMode.RECENT, PairingMode.CONSECUTIVE]
    )
    def test_outcome_sequences_identical(self, mode):
        __, __, outcomes, trace, until = self.run_outcomes(mode)
        (expected,) = run_program(
            "SELECT a1.tagtime, a2.tagtime, a3.tagtime FROM a1, a2, a3 "
            "WHERE (CLEVEL_SEQ(a1, a2, a3) OVER [10 SECONDS FOLLOWING a1] "
            f"MODE {mode.value}) >= 0 "
            "AND a1.tagid = a2.tagid AND a1.tagid = a3.tagid",
            {name: SCHEMA for name in ("a1", "a2", "a3")}, {}, trace, until,
        )
        got = [
            (tuple([t.ts for t in o.partial] + [None] * (3 - o.level)), o.ts)
            for o in outcomes
        ]
        assert got == expected

    def test_idle_states_released(self):
        """Terminated automata leave no residue: after the final timers
        fire, every per-tag state entry is gone."""
        engine, op, __, __, __ = self.run_outcomes(PairingMode.CONSECUTIVE)
        # Any state still in the table is mid-sequence with an armed timer;
        # after the long advance above, expirations have all fired.
        assert op._states == {}
        assert engine.clock.pending_timers() == 0


class TestStateBounds:
    """Windowed UNRESTRICTED with many one-shot tags: the expiry heap must
    keep held-tuple counts bounded and drop idle partitions."""

    def one_shot_engine(self, n_tags, duration=10.0):
        engine = Engine()
        window = OperatorWindow(duration, 1, "preceding")
        op = build_op(
            engine, ["a", "b"], PairingMode.UNRESTRICTED,
            window=window, partition_by=lambda t: t["tagid"],
        )
        for i in range(n_tags):
            engine.push(
                "a", {"tagid": f"t{i}", "tagtime": float(i)}, ts=float(i)
            )
        return engine, op

    def test_state_and_partitions_bounded(self):
        engine, op = self.one_shot_engine(2000)
        # Only tags inside the current window may retain history.
        assert op.state_size <= 12
        assert len(op._partitions) <= 12
        state_invariant(op)

    def test_peak_state_bounded(self):
        _, op = self.one_shot_engine(2000)
        assert op.peak_state_size <= 14

    def test_expiry_work_tracks_expirations_not_partitions(self):
        """Each one-shot tag is popped O(1) times: total expiry work stays
        linear in expirations, not partitions-times-ticks."""
        _, op = self.one_shot_engine(2000)
        assert op.sweep_touches <= 3 * 2000

    def test_idle_engine_expires_via_heartbeat(self):
        """With no further arrivals, a clock heartbeat alone must drain the
        remaining windowed state."""
        engine, op = self.one_shot_engine(50)
        assert op.state_size > 0
        engine.advance_time(1000.0)
        assert op.state_size == 0
        assert op._partitions == {}
        state_invariant(op)

    def test_flush_cancels_expiry_timer(self):
        engine, op = self.one_shot_engine(50)
        engine.flush()  # drain() must cancel the periodic expiry timer
        assert engine.clock.pending_timers() == 0

    def test_sharded_one_shot_tags_bounded(self):
        engine = ShardedEngine(n_shards=4)
        for name in ("c1", "c2", "c3", "c4"):
            engine.create_stream(name, "readerid str, tagid str, tagtime float")
        handle = engine.query(
            quality_query_text("UNRESTRICTED", window_minutes=30.0),
            name="quality",
        )
        try:
            for i in range(400):
                engine.push(
                    "c1",
                    {"readerid": "r0", "tagid": f"t{i}", "tagtime": i * 60.0},
                    ts=i * 60.0,
                )
            # 30-minute window, one reading per minute: ~30 live tags.
            assert handle.state_size <= 35
        finally:
            engine.close()
