"""Unit tests for the symmetric cross-sub-query window operator (Example 8)."""

import pytest

from repro.core.operators import SymmetricExistsOperator
from repro.dsms import Engine
from repro.dsms.errors import WindowError


def door_engine():
    engine = Engine()
    engine.create_stream("tag_readings", "tagid str, tagtype str, tagtime float")
    return engine


def push(engine, tagid, tagtype, ts):
    engine.push(
        "tag_readings", {"tagid": tagid, "tagtype": tagtype, "tagtime": ts}, ts=ts
    )


def make_theft_detector(engine, tau=60.0, negate=True, on_result=None):
    """Items with no person within tau before or after."""
    return SymmetricExistsOperator(
        engine,
        outer_stream="tag_readings",
        inner_stream="tag_readings",
        preceding=tau,
        following=tau,
        outer_where=lambda t: t["tagtype"] == "item",
        inner_where=lambda cand, outer: cand["tagtype"] == "person",
        negate=negate,
        on_result=on_result,
    )


class TestNotExists:
    def test_person_before_item_suppresses(self):
        engine = door_engine()
        op = make_theft_detector(engine)
        push(engine, "p1", "person", 100.0)
        push(engine, "i1", "item", 120.0)
        engine.advance_time(500.0)
        assert op.emitted == 0
        assert op.suppressed == 1

    def test_person_after_item_suppresses(self):
        engine = door_engine()
        op = make_theft_detector(engine)
        push(engine, "i1", "item", 100.0)
        push(engine, "p1", "person", 130.0)
        engine.advance_time(500.0)
        assert op.emitted == 0

    def test_lonely_item_alerts_at_decision_point(self):
        engine = door_engine()
        results = []
        op = make_theft_detector(
            engine, on_result=lambda *result: results.append(result)
        )
        push(engine, "i1", "item", 100.0)
        engine.advance_time(159.0)
        assert op.emitted == 0  # still inside the following window
        engine.advance_time(161.0)
        assert op.emitted == 1
        outer, decided_at = results[0]
        assert outer["tagid"] == "i1"
        assert decided_at == 160.0

    def test_person_outside_window_does_not_suppress(self):
        engine = door_engine()
        op = make_theft_detector(engine, tau=60.0)
        push(engine, "p1", "person", 0.0)
        push(engine, "i1", "item", 100.0)   # person was 100s ago > tau
        push(engine, "p2", "person", 300.0)  # way after
        engine.advance_time(500.0)
        assert op.emitted == 1

    def test_boundary_inclusive(self):
        engine = door_engine()
        op = make_theft_detector(engine, tau=60.0)
        push(engine, "p1", "person", 40.0)
        push(engine, "i1", "item", 100.0)  # exactly tau later
        engine.advance_time(500.0)
        assert op.suppressed == 1

    def test_item_never_witnesses_itself(self):
        engine = door_engine()
        op = SymmetricExistsOperator(
            engine, "tag_readings", "tag_readings", 60.0, 60.0,
            outer_where=lambda t: t["tagtype"] == "item",
            inner_where=lambda cand, outer: cand["tagtype"] == "item",
            negate=True,
        )
        push(engine, "i1", "item", 100.0)
        engine.advance_time(500.0)
        assert op.emitted == 1  # own reading is not a witness

    def test_multiple_pending_items(self):
        engine = door_engine()
        op = make_theft_detector(engine)
        push(engine, "i1", "item", 100.0)
        push(engine, "i2", "item", 110.0)
        push(engine, "p1", "person", 130.0)  # saves both
        engine.advance_time(500.0)
        assert op.suppressed == 2
        assert op.emitted == 0

    def test_callback(self):
        engine = door_engine()
        got = []
        op = SymmetricExistsOperator(
            engine, "tag_readings", "tag_readings", 60.0, 60.0,
            outer_where=lambda t: t["tagtype"] == "item",
            inner_where=lambda cand, outer: cand["tagtype"] == "person",
            on_result=lambda tup, at: got.append((tup["tagid"], at)),
        )
        push(engine, "i1", "item", 0.0)
        engine.advance_time(100.0)
        assert got == [("i1", 60.0)]
        assert op.emitted == 1


class TestExists:
    def test_emits_on_prior_witness_immediately(self):
        engine = door_engine()
        op = make_theft_detector(engine, negate=False)
        push(engine, "p1", "person", 90.0)
        push(engine, "i1", "item", 100.0)
        assert op.emitted == 1  # no waiting needed

    def test_emits_when_witness_arrives_later(self):
        engine = door_engine()
        op = make_theft_detector(engine, negate=False)
        push(engine, "i1", "item", 100.0)
        assert op.emitted == 0
        push(engine, "p1", "person", 140.0)
        assert op.emitted == 1

    def test_suppresses_when_no_witness(self):
        engine = door_engine()
        op = make_theft_detector(engine, negate=False)
        push(engine, "i1", "item", 100.0)
        engine.advance_time(1000.0)
        assert op.emitted == 0
        assert op.suppressed == 1


class TestSeparateStreams:
    def test_two_distinct_streams(self):
        engine = Engine()
        engine.create_stream("items", "tagid str, tagtime float")
        engine.create_stream("persons", "tagid str, tagtime float")
        results = []
        SymmetricExistsOperator(
            engine, "items", "persons", 30.0, 30.0, negate=True,
            on_result=lambda *result: results.append(result),
        )
        engine.push("items", {"tagid": "i1", "tagtime": 0.0}, ts=0.0)
        engine.push("persons", {"tagid": "p1", "tagtime": 10.0}, ts=10.0)
        engine.push("items", {"tagid": "i2", "tagtime": 100.0}, ts=100.0)
        engine.advance_time(300.0)
        assert [t["tagid"] for t, __ in results] == ["i2"]


class TestEdgeCases:
    def test_zero_following_decides_immediately(self):
        engine = door_engine()
        op = SymmetricExistsOperator(
            engine, "tag_readings", "tag_readings", 60.0, 0.0,
            outer_where=lambda t: t["tagtype"] == "item",
            inner_where=lambda cand, outer: cand["tagtype"] == "person",
            negate=True,
        )
        push(engine, "i1", "item", 100.0)
        assert op.emitted == 1  # decided at arrival

    def test_negative_width_rejected(self):
        engine = door_engine()
        with pytest.raises(WindowError):
            SymmetricExistsOperator(
                engine, "tag_readings", "tag_readings", -1.0, 0.0
            )

    def test_stop_cancels_pending(self):
        engine = door_engine()
        op = make_theft_detector(engine)
        push(engine, "i1", "item", 100.0)
        op.stop()
        engine.advance_time(1000.0)
        assert op.emitted == 0
        assert op.pending_count == 0
