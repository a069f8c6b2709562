"""Batched ingestion (``push_batch`` / ``run_trace``) vs. per-tuple ``push``.

The batched paths exist for throughput, but their contract is strict
semantic equivalence with :meth:`Engine.push`: same delivered tuples,
same schema errors, same order enforcement, and — critically for
EXCEPTION_SEQ's Active Expiration — the same timer-before-later-tuple
interleaving.  Also covers the per-engine sequence numbering that the
batched tuple construction must preserve.
"""

from __future__ import annotations

import pytest

from repro.core.operators import (
    ExceptionReason,
    ExceptionSeqOperator,
    OperatorWindow,
    SeqArg,
)
from repro.dsms import Engine
from repro.dsms.errors import ClockError, OutOfOrderError, SchemaError
from repro.rfid import (
    build_dedup,
    build_quality_check,
    dedup_workload,
    quality_check_workload,
)


def collected(engine, name):
    collector = engine.collect(name)
    return collector


class TestPushBatch:
    def make_engine(self):
        engine = Engine()
        engine.create_stream("readings", "tag_id str, read_time float")
        return engine

    def test_matches_per_tuple_push(self):
        records = [({"tag_id": f"t{i % 3}", "read_time": float(i)}, float(i))
                   for i in range(20)]
        one = self.make_engine()
        out_one = collected(one, "readings")
        for values, ts in records:
            one.push("readings", values, ts)

        two = self.make_engine()
        out_two = collected(two, "readings")
        assert two.push_batch("readings", records) == 20

        assert [t.as_dict() for t in out_one.results] == [
            t.as_dict() for t in out_two.results
        ]
        assert [t.ts for t in out_one.results] == [t.ts for t in out_two.results]
        assert two.now == one.now

    def test_accepts_positional_rows(self):
        engine = self.make_engine()
        out = collected(engine, "readings")
        engine.push_batch("readings", [(["t1", 1.0], 1.0), (("t2", 2.0), 2.0)])
        assert [t.as_dict() for t in out.results] == [
            {"tag_id": "t1", "read_time": 1.0},
            {"tag_id": "t2", "read_time": 2.0},
        ]

    def test_unknown_field_raises_schema_error(self):
        engine = self.make_engine()
        with pytest.raises(SchemaError, match="unknown fields"):
            engine.push_batch("readings", [({"nope": 1}, 1.0)])

    def test_wrong_arity_raises_schema_error(self):
        engine = self.make_engine()
        with pytest.raises(SchemaError, match="values"):
            engine.push_batch("readings", [(["only-one"], 1.0)])

    def test_backwards_timestamps_rejected_like_push(self):
        # Engine.push surfaces a backwards timestamp as ClockError (the
        # clock is advanced before the stream sees the tuple); the batched
        # path must fail identically, not deliver out of order.
        records = [({"tag_id": "a", "read_time": 5.0}, 5.0),
                   ({"tag_id": "b", "read_time": 1.0}, 1.0)]
        one = self.make_engine()
        with pytest.raises(ClockError):
            for values, ts in records:
                one.push("readings", values, ts)
        two = self.make_engine()
        with pytest.raises(ClockError):
            two.push_batch("readings", records)

    def test_stream_level_order_enforced_by_ingester(self):
        engine = self.make_engine()
        stream = engine.streams.get("readings")
        stream.ingest({"tag_id": "a", "read_time": 5.0}, 5.0)
        with pytest.raises(OutOfOrderError):
            stream.ingest({"tag_id": "b", "read_time": 1.0}, 1.0)

    def test_reorder_stream_buffers_and_flushes(self):
        engine = Engine()
        engine.create_stream(
            "jittery", "tag_id str", allow_out_of_order=True, reorder_slack=10.0
        )
        out = collected(engine, "jittery")
        stream = engine.streams.get("jittery")
        for values, ts in [(["a"], 5.0), (["b"], 2.0), (["c"], 7.0)]:
            stream.ingest(values, ts)
        engine.flush()
        assert [t.ts for t in out.results] == [2.0, 5.0, 7.0]


class TestRunTraceEquivalence:
    def test_quality_scenario_rows_identical(self):
        workload = quality_check_workload(n_products=40, seed=9)
        batched = build_quality_check(workload)
        batched.engine.run_trace(workload.trace)
        batched.engine.flush()

        single = build_quality_check(workload)
        for stream_name, values, ts in workload.trace:
            single.engine.push(stream_name, values, ts)
        single.engine.flush()

        assert batched.rows() == single.rows()

    def test_dedup_scenario_rows_identical(self):
        workload = dedup_workload(n_tags=10, presences_per_tag=3, dwell=1.0,
                                  seed=4)
        batched = build_dedup(workload)
        batched.engine.run_trace(workload.trace)
        batched.engine.flush()

        single = build_dedup(workload)
        for stream_name, values, ts in workload.trace:
            single.engine.push(stream_name, values, ts)
        single.engine.flush()

        assert batched.rows() == single.rows()

    def test_quality_check_run_trace_matches_push(self):
        workload = quality_check_workload(n_products=15, seed=9)
        batched = build_quality_check(workload)
        batched.engine.run_trace(workload.trace)
        batched.engine.flush()
        single = build_quality_check(workload)
        for stream_name, values, ts in workload.trace:
            single.engine.push(stream_name, values, ts)
        single.engine.flush()
        assert batched.rows() == single.rows()


class TestActiveExpirationUnderBatching:
    """Timers due at a record's timestamp fire before the record lands."""

    def reasons(self, engine):
        """Wire the operator; returns the live list of outcome reasons."""
        for name in ("a", "b", "c"):
            engine.create_stream(name, "tagid str, tagtime float")
        reasons = []
        ExceptionSeqOperator(
            engine,
            [SeqArg("a"), SeqArg("b"), SeqArg("c")],
            window=OperatorWindow(3600.0, 0, "following"),
            on_outcome=lambda outcome: reasons.append(outcome.reason),
        )
        return reasons

    TRACE = [
        ("a", {"tagid": "x", "tagtime": 0.0}, 0.0),
        ("b", {"tagid": "x", "tagtime": 10.0}, 10.0),
        # Far past the 3600s deadline: the expiration must be detected
        # before this tuple is interpreted (it then reads as a wrong start).
        ("c", {"tagid": "x", "tagtime": 4000.0}, 4000.0),
    ]

    def expected_reasons(self):
        engine = Engine()
        reasons = self.reasons(engine)
        for stream, values, ts in self.TRACE:
            engine.push(stream, values, ts)
        return reasons

    def test_run_trace_preserves_timer_ordering(self):
        expected = self.expected_reasons()
        assert expected == [
            ExceptionReason.WINDOW_EXPIRED, ExceptionReason.WRONG_START,
        ]
        engine = Engine()
        reasons = self.reasons(engine)
        engine.run_trace(self.TRACE)
        assert reasons == expected

    def test_push_batch_preserves_timer_ordering(self):
        engine = Engine()
        reasons = self.reasons(engine)
        engine.push_batch("a", [({"tagid": "x", "tagtime": 0.0}, 0.0)])
        engine.push_batch("b", [({"tagid": "x", "tagtime": 10.0}, 10.0)])
        # The 3600s deadline falls before this batch's record: the timer
        # must fire mid-call, before the 4000s tuple is delivered — the
        # same WINDOW_EXPIRED-then-WRONG_START order the per-push feed gives.
        engine.push_batch("c", [({"tagid": "x", "tagtime": 4000.0}, 4000.0)])
        assert reasons == [
            ExceptionReason.WINDOW_EXPIRED, ExceptionReason.WRONG_START,
        ]
        assert engine.now == 4000.0


class TestPerEngineSequencing:
    def test_counters_do_not_leak_between_engines(self):
        first = Engine()
        second = Engine()
        for engine in (first, second):
            engine.create_stream("s", "v int")
        outs = [collected(first, "s"), collected(second, "s")]
        for i in range(5):
            first.push("s", [i], float(i))
            second.push("s", [i], float(i))
        for out in outs:
            seqs = [t.seq for t in out.results]
            assert seqs == sorted(seqs)
            assert len(set(seqs)) == 5
        # Interleaved pushes to another engine must not inflate this
        # engine's numbering: both see the same counts.
        assert [t.seq for t in outs[0].results] == [t.seq for t in outs[1].results]

    def test_ts_ties_break_by_arrival_across_streams(self):
        engine = Engine()
        engine.create_stream("x", "v int")
        engine.create_stream("y", "v int")
        seen = []
        engine.streams.get("x").subscribe(seen.append)
        engine.streams.get("y").subscribe(seen.append)
        engine.push("x", [1], 5.0)
        engine.push("y", [2], 5.0)
        engine.push("x", [3], 5.0)
        assert sorted(seen) == seen  # (ts, seq) order == arrival order
        assert seen[0] < seen[1] < seen[2]
        assert seen[2] <= seen[2]

    def test_batch_ingester_stamps_from_engine_counter(self):
        engine = Engine()
        engine.create_stream("s", "v int")
        out = collected(engine, "s")
        engine.push("s", [0], 0.0)
        engine.push_batch("s", [([1], 1.0), ([2], 2.0)])
        engine.push("s", [3], 3.0)
        seqs = [t.seq for t in out.results]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 4


class TestHistoryCaseInsensitivity:
    def test_mixed_case_enable_and_lookup(self):
        engine = Engine()
        engine.create_stream("Readings", "tag_id str, read_time float")
        view = engine.enable_history("READINGS")
        # Any casing resolves to the same view; enabling twice is a no-op.
        assert engine.history("readings") is view
        assert engine.history("Readings") is view
        assert engine.enable_history("readings") is view
        engine.push("rEaDiNgS", {"tag_id": "t", "read_time": 1.0}, 1.0)
        rows = engine.snapshot("SELECT tag_id FROM readings")
        assert rows == [{"tag_id": "t"}]
