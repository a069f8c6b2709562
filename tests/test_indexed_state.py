"""Differential tests: indexed sequence state vs. the reference path.

``Engine()`` (every tier but the reference) runs SEQ with cached
predecessor cuts, bisected eviction, and the lazy partition-expiry heap;
``Engine(tier="interpreted")`` — the reference configuration — keeps the
original enumeration and the amortized all-partition sweep.  The contract is *byte-identical output*: for any
workload, both paths must emit the same match sequence — same chains, same
order — across all four pairing modes, window shapes, guards, star
sequences, and timer-driven EXCEPTION_SEQ violations.

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


def window_for(shape, n_args, duration=12.0):
    if shape == "none":
        return None
    if shape == "preceding_last":
        return OperatorWindow(duration, n_args - 1, "preceding")
    if shape == "preceding_mid":
        return OperatorWindow(duration, 1, "preceding")
    return OperatorWindow(duration, 0, "following")


def build_op(engine, streams, mode, **kw):
    for name in set(streams):
        engine.create_stream(name, "tagid str, tagtime float")
    args = [
        SeqArg(name, alias=f"{name}{i}") for i, name in enumerate(streams)
    ]
    return make_sequence_operator(engine, args, mode=mode, **kw)


def random_trace(seed, n=240, streams=("a", "b", "c"), tags=("t1", "t2", "t3")):
    rng = random.Random(seed)
    ts = 0.0
    trace = []
    for _ in range(n):
        ts += rng.choice([0.0, 0.4, 1.1, 3.0, 9.0])
        trace.append((rng.choice(streams), rng.choice(tags), ts))
    return trace


def state_invariant(op):
    """The incremental held-tuple counter must equal a from-scratch sum."""
    assert op.state_size == sum(
        p.state_size() for p in op._partitions.values()
    )


def run_one(tier, streams, mode, trace, window, guard, partition):
    engine = Engine(tier=tier)
    matches = []
    op = build_op(
        engine, streams, mode, window=window, guard=guard,
        partition_by=(lambda t: t["tagid"]) if partition else None,
        on_match=matches.append,
    )
    for stream, tag, ts in trace:
        engine.push(stream, {"tagid": tag, "tagtime": ts}, ts=ts)
    state_invariant(op)
    return matches


def assert_differential(streams, mode, trace, window=None, guard=None,
                        partition=False):
    reference = run_one("interpreted", streams, mode, trace, window, guard, partition)
    indexed = run_one("vector", streams, mode, trace, window, guard, partition)
    assert [m.key() for m in indexed] == [m.key() for m in reference]


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

        def guard(bindings):
            tags = {t["tagid"] for t in bindings.values()}
            return len(tags) == 1

        trace = random_trace(11, n=160)
        assert_differential(
            ["a", "b", "c"], mode, trace,
            window=window_for(shape, 3), guard=guard,
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


class TestDifferentialQueries:
    def test_star_sequence_rows_identical(self):
        rng = random.Random(23)
        rows = []
        for tier in ("interpreted", "vector"):
            engine = Engine(tier=tier)
            engine.create_stream("r1", "readerid str, tagid str, tagtime float")
            engine.create_stream("r2", "readerid str, tagid str, tagtime float")
            handle = engine.query(STAR_QUERY, name="star")
            ts = 0.0
            rng = random.Random(23)
            for _ in range(150):
                ts += rng.choice([0.3, 0.8, 2.0, 6.0])
                stream = "r1" if rng.random() < 0.8 else "r2"
                engine.push(
                    stream, {"readerid": "r", "tagid": "t1", "tagtime": ts},
                    ts=ts,
                )
            rows.append(handle.rows())
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("mode", ["UNRESTRICTED", "RECENT", "CHRONICLE"])
    def test_quality_scenario_rows_identical(self, mode):
        workload = quality_check_workload(n_products=40, seed=51)
        reference = build_quality_check(
            workload, mode=mode, window_minutes=30.0, tier="interpreted"
        ).feed()
        indexed = build_quality_check(
            workload, mode=mode, window_minutes=30.0
        ).feed()
        assert indexed.rows() == reference.rows()

    def test_sharded_indexed_matches_reference(self):
        workload = quality_check_workload(n_products=40, seed=52)
        expected = build_quality_check(
            workload, mode="UNRESTRICTED", window_minutes=30.0,
            tier="interpreted",
        ).feed().rows()
        scenario = build_quality_check_sharded(
            workload, n_shards=3, mode="UNRESTRICTED", window_minutes=30.0,
        ).feed()
        try:
            assert scenario.rows() == expected
        finally:
            scenario.engine.close()


class TestDifferentialExceptionSeq:
    """Active-expiration timers must behave identically on the reference
    and the default tier (they share the clock and engine)."""

    def run_outcomes(self, tier, mode):
        engine = Engine(tier=tier)
        for name in ("a1", "a2", "a3"):
            engine.create_stream(name, "tagid str, tagtime float")
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
        for _ in range(120):
            ts += rng.choice([0.5, 2.0, 7.0])
            stream = rng.choice(["a1", "a2", "a3"])
            tag = rng.choice(["t1", "t2", "t3", "t4"])
            engine.push(stream, {"tagid": tag, "tagtime": ts}, ts=ts)
        engine.advance_time(ts + 100.0)  # fire every remaining expiration
        return engine, op, outcomes

    @pytest.mark.parametrize(
        "mode", [PairingMode.RECENT, PairingMode.CONSECUTIVE]
    )
    def test_outcome_sequences_identical(self, mode):
        per_tier = []
        for tier in ("interpreted", "vector"):
            __, __, outcomes = self.run_outcomes(tier, mode)
            per_tier.append([
                (
                    o.level,
                    o.reason.value,
                    o.ts,
                    tuple((t.ts, t.seq) for t in o.partial),
                )
                for o in outcomes
            ])
        assert per_tier[0] == per_tier[1]

    def test_idle_states_released(self):
        """Terminated automata leave no residue: after the final timers
        fire, every per-tag state entry is gone."""
        engine, op, __ = self.run_outcomes("vector", PairingMode.CONSECUTIVE)
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
        remaining windowed state (the reference sweep cannot do this — it
        only runs on arrivals)."""
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
        from repro.rfid.scenarios import quality_query_text

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
