"""Unit tests for streams and the stream registry."""

import pytest

from repro.dsms.errors import OutOfOrderError, SchemaError, UnknownStreamError
from repro.dsms.schema import Schema
from repro.dsms.streams import Stream, StreamRegistry
from repro.dsms.tuples import Tuple

SCHEMA = Schema.parse("tagid str, tagtime float")


def make_stream(**kw) -> Stream:
    return Stream("s", SCHEMA, **kw)


class TestPush:
    def test_subscribers_receive_tuples(self):
        stream = make_stream()
        got = []
        stream.subscribe(got.append)
        stream.push_row(["a", 1.0], ts=1.0)
        assert len(got) == 1
        assert got[0]["tagid"] == "a"

    def test_multiple_subscribers_in_order(self):
        stream = make_stream()
        order = []
        stream.subscribe(lambda t: order.append("first"))
        stream.subscribe(lambda t: order.append("second"))
        stream.push_row(["a", 1.0], ts=1.0)
        assert order == ["first", "second"]

    def test_unsubscribe(self):
        stream = make_stream()
        got = []
        unsubscribe = stream.subscribe(got.append)
        unsubscribe()
        stream.push_row(["a", 1.0], ts=1.0)
        assert got == []

    def test_unsubscribe_twice_is_noop(self):
        stream = make_stream()
        unsubscribe = stream.subscribe(lambda t: None)
        unsubscribe()
        unsubscribe()

    def test_schema_mismatch_rejected(self):
        stream = make_stream()
        wrong = Tuple(Schema.of("other"), ["x"], 0.0)
        with pytest.raises(SchemaError):
            stream.push(wrong)

    def test_stream_name_stamped_on_tuples(self):
        stream = make_stream()
        got = []
        stream.subscribe(got.append)
        stream.push_row(["a", 1.0], ts=1.0)
        assert got[0].stream == "s"

    def test_count_and_last_ts(self):
        stream = make_stream()
        stream.push_row(["a", 1.0], ts=1.0)
        stream.push_row(["b", 2.0], ts=2.0)
        assert stream.count == 2
        assert stream.last_ts == 2.0

    def test_push_dict(self):
        stream = make_stream()
        got = []
        stream.subscribe(got.append)
        stream.push_dict({"tagid": "z"}, ts=3.0)
        assert got[0]["tagid"] == "z"
        assert got[0]["tagtime"] is None


class TestOrdering:
    def test_out_of_order_rejected_by_default(self):
        stream = make_stream()
        stream.push_row(["a", 2.0], ts=2.0)
        with pytest.raises(OutOfOrderError):
            stream.push_row(["b", 1.0], ts=1.0)

    def test_equal_timestamps_allowed(self):
        stream = make_stream()
        stream.push_row(["a", 2.0], ts=2.0)
        stream.push_row(["b", 2.0], ts=2.0)
        assert stream.count == 2

    def test_reorder_buffer_sorts_within_slack(self):
        stream = make_stream(allow_out_of_order=True, reorder_slack=5.0)
        got = []
        stream.subscribe(got.append)
        stream.push_row(["a", 3.0], ts=3.0)
        stream.push_row(["b", 1.0], ts=1.0)   # late, within slack
        stream.push_row(["c", 10.0], ts=10.0)
        stream.flush()
        assert [t["tagid"] for t in got] == ["b", "a", "c"]

    def test_reorder_buffer_drops_too_late(self):
        stream = make_stream(allow_out_of_order=True, reorder_slack=1.0)
        got = []
        stream.subscribe(got.append)
        stream.push_row(["a", 10.0], ts=10.0)
        stream.push_row(["late", 1.0], ts=1.0)  # far beyond slack: dropped
        stream.push_row(["ok", 9.5], ts=9.5)  # within slack: reordered in
        stream.flush()
        assert [t["tagid"] for t in got] == ["ok", "a"]
        assert stream.late_dropped == 1 and stream.count == 2

    def test_flush_releases_held_tuples(self):
        stream = make_stream(allow_out_of_order=True, reorder_slack=100.0)
        got = []
        stream.subscribe(got.append)
        stream.push_row(["a", 1.0], ts=1.0)
        assert got == []  # held back by slack
        stream.flush()
        assert len(got) == 1


class TestRegistry:
    def test_create_and_get(self):
        registry = StreamRegistry()
        registry.create("Readings", "tagid str")
        assert registry.get("readings").name == "Readings"  # case-insensitive

    def test_duplicate_rejected(self):
        registry = StreamRegistry()
        registry.create("s", "a")
        with pytest.raises(SchemaError):
            registry.create("S", "a")

    def test_unknown_raises_with_listing(self):
        registry = StreamRegistry()
        registry.create("known", "a")
        with pytest.raises(UnknownStreamError, match="known"):
            registry.get("missing")

    def test_schema_from_iterable(self):
        registry = StreamRegistry()
        stream = registry.create("s", ["a", "b"])
        assert stream.schema.names == ("a", "b")

    def test_contains_len_iter(self):
        registry = StreamRegistry()
        registry.create("a", "x")
        registry.create("b", "x")
        assert "a" in registry and "c" not in registry
        assert len(registry) == 2
        assert {s.name for s in registry} == {"a", "b"}

    def test_drop(self):
        registry = StreamRegistry()
        registry.create("a", "x")
        registry.drop("a")
        assert "a" not in registry
