"""Keyed EXISTS probes: correlation keys, the indexes behind them, and
differentials against the oracle and against the scan.

An EXISTS sub-query whose WHERE has correlated equalities
(``r2.tag_id = r1.tag_id``, Example 2's ``tagid = tid``) reads one hash
bucket — a Table index or a RANGE window buffer's keyed side index — and
still runs its whole WHERE on every bucket candidate.  The references
are the oracle (``tests/oracle/relational.py``) and the same query with
its keys spelled ``NOT (a <> b)``, which is no key, so the probe scans.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.language import parse_program
from repro.core.language.analyzer import exists_correlation_keys
from repro.core.language.ast_nodes import ExistsPredicate, iter_and_terms
from repro.dsms import Engine, Schema, Tuple
from repro.dsms.errors import EslRuntimeError, SchemaError
from repro.dsms.table import Table
from repro.dsms.windows import RangeWindowBuffer

from .oracle.relational import run_program

EX1_DEDUP = """
SELECT * FROM readings AS r1
WHERE NOT EXISTS
  (SELECT * FROM TABLE( readings OVER
     (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2
   WHERE r2.reader_id = r1.reader_id
     AND r2.tag_id = r1.tag_id)
"""

EX2_LOCATION = """
INSERT INTO object_movement
SELECT tid, loc, tagtime
FROM tag_locations WHERE NOT EXISTS
  (SELECT tagid FROM object_movement
   WHERE tagid = tid AND location = loc)
"""

READINGS = "reader_id str, tag_id str, read_time float"

class _LooseA:
    """Unhashable, yet equal to 'a': a stream value only the spill list
    can pair with a hashable key."""

    __hash__ = None  # type: ignore[assignment]

    def __eq__(self, other: object) -> bool:
        return other == "a" or isinstance(other, _LooseA)

    def __repr__(self) -> str:
        return "_LooseA()"


# Key values: unicode, the empty string, NULL, numbers equal across types
# (1 = 1.0 = TRUE) and, where streams allow them, unhashable values.
STR_KEYS = ["a", "b", "é", "☃", "", None]
ANY_KEYS = STR_KEYS + [1, 1.0, True, ["a"], _LooseA()]
NUM_KEYS = [0, 1, 1.0, True, 2.5, None, "1", ["x"]]


def _first_exists(text: str):
    (statement,) = parse_program(text)
    return next(
        term for term in iter_and_terms(statement.where)
        if isinstance(term, ExistsPredicate)
    )


def _keys(text: str, schema: str) -> list[tuple[str, str]]:
    keys = exists_correlation_keys(_first_exists(text), Schema.parse(schema))
    return [(field, repr(outer)) for field, outer in keys]


def _rows(handle) -> list[tuple]:
    return [(tup.values, tup.ts) for tup in handle.results]


# ---------------------------------------------------------------------------
# Classification (analyzer)
# ---------------------------------------------------------------------------


class TestCorrelationKeys:
    def test_example_1_qualified_keys(self):
        assert _keys(EX1_DEDUP, READINGS) == [
            ("reader_id", "Column(r1.reader_id)"),
            ("tag_id", "Column(r1.tag_id)"),
        ]

    def test_example_2_bare_columns_resolve_inner_first(self):
        schema = "tagid str, location str, start_time float"
        assert _keys(EX2_LOCATION, schema) == [
            ("location", "Column(loc)"),
            ("tagid", "Column(tid)"),
        ]

    def test_inner_column_on_the_right_and_outer_expression(self):
        text = (
            "SELECT * FROM s AS o WHERE EXISTS (SELECT * FROM t AS i "
            "WHERE o.a + 1 = i.k)"
        )
        assert _keys(text, "k int") == [("k", "(Column(o.a) + Literal(1))")]

    @pytest.mark.parametrize("where", [
        "i.k > o.a",                     # not an equality
        "i.k = o.a OR i.k = o.b",        # OR-ed
        "i.k = 'x'",                     # uncorrelated
        "i.k = i.k",                     # both sides inner
        "k = a AND i.any_col = o.a",     # bare a is inner too; untyped column
        "i.k = upper(o.a)",              # function call on the outer side
        "o.k = o.a",                     # no inner column
    ])
    def test_no_key(self, where):
        text = f"SELECT * FROM s AS o WHERE EXISTS (SELECT * FROM t AS i WHERE {where})"
        assert _keys(text, "k str, a str, any_col any") == []

    def test_first_conjunct_per_field_wins(self):
        text = (
            "SELECT * FROM s AS o WHERE EXISTS (SELECT * FROM t AS i "
            "WHERE i.k = o.a AND i.k = o.b)"
        )
        assert _keys(text, "k str") == [("k", "Column(o.a)")]


# ---------------------------------------------------------------------------
# Table index fixes
# ---------------------------------------------------------------------------


class _CountingRows(list):
    scans = 0

    def __iter__(self):
        _CountingRows.scans += 1
        return super().__iter__()


def _movement_table() -> Table:
    table = Table("object_movement", "tagid str, location str, start_time float")
    for row in (["t1", "dock", 1.0], ["t1", "aisle", 2.0], ["t2", "dock", 3.0]):
        table.insert(row)
    return table


class TestTableIndex:
    def test_index_name_is_canonical_and_lookup_uses_it(self):
        table = _movement_table()
        assert table.create_index("tagid", "location") == ("location", "tagid")
        table._rows = _CountingRows(table._rows)
        _CountingRows.scans = 0
        rows = list(table.lookup(location="dock", tagid="t1"))
        assert rows == [{"tagid": "t1", "location": "dock", "start_time": 1.0}]
        assert list(table.lookup(tagid="t2", location="dock"))[0]["start_time"] == 3.0
        assert _CountingRows.scans == 0  # never fell back to a full scan

    def test_bucket_returns_tuples(self):
        table = _movement_table()
        index = table.create_index("tagid")
        got = table.bucket(index, ("t1",))
        assert [t.values for t in got] == [("t1", "dock", 1.0), ("t1", "aisle", 2.0)]
        assert got[0].stream == "object_movement" and got[0].ts == 0.0
        assert table.bucket(index, ("nope",)) == []
        with pytest.raises(TypeError):
            table.bucket(index, (["t1"],))

    def test_positions_resolved_once_per_index(self, monkeypatch):
        table = _movement_table()
        table.create_index("start_time", "tagid")
        calls = []
        original = Schema.position
        monkeypatch.setattr(
            Schema, "position", lambda self, name: calls.append(name) or original(self, name)
        )
        for serial in range(50):
            table.insert([f"t{serial}", "gate", float(serial)])
        assert calls == []
        assert next(table.lookup(tagid="t7", start_time=7.0))["location"] == "gate"

    def test_update_validates_and_keeps_index(self):
        table = _movement_table()
        index = table.create_index("location")
        with pytest.raises(SchemaError):
            table.update_where(lambda row: row[0] == "t2", {"location": ["x"]})
        assert list(table.rows())[2] == ("t2", "dock", 3.0)  # unchanged
        assert table.update_where(lambda row: row[1] == "dock", {"location": "bay"}) == 2
        assert [t.values[0] for t in table.bucket(index, ("bay",))] == ["t1", "t2"]


def _location_engine() -> tuple[Engine, object]:
    engine = Engine()
    engine.create_stream("tag_locations", "readerid str, tid str, tagtime float, loc str")
    engine.create_table("object_movement", "tagid str, location str, start_time float")
    return engine, engine.query(EX2_LOCATION)


class TestTableProbe:
    def test_compiler_creates_the_key_index(self):
        engine, _handle = _location_engine()
        assert list(engine.table("object_movement")._indexes) == [("location", "tagid")]

    def test_probe_survives_index_replacement(self):
        """The probe goes through the table on every call, so a replaced
        index dict (create_index, delete) is what it reads."""
        engine, _ = _location_engine()
        table = engine.table("object_movement")
        engine.push("tag_locations", ["r", "t1", 1.0, "dock"], ts=1.0)
        table.create_index("location", "tagid")  # replaces the dict
        engine.push("tag_locations", ["r", "t1", 2.0, "dock"], ts=2.0)
        assert len(table) == 1
        table.delete_where(lambda row: True)
        engine.push("tag_locations", ["r", "t1", 3.0, "dock"], ts=3.0)
        assert [row["start_time"] for row in table.scan()] == [3.0]


# ---------------------------------------------------------------------------
# Window buffer side index
# ---------------------------------------------------------------------------

_SCHEMA = Schema.parse("k str, v int")


def _tup(key, ts, v=0):
    return Tuple(_SCHEMA, [key, v], ts)


class TestWindowIndex:
    @given(st.lists(st.tuples(st.sampled_from(ANY_KEYS), st.sampled_from([0.0, 0.3, 1.0])),
                    max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_bucket_preceding_is_the_filtered_window(self, steps):
        buffer = RangeWindowBuffer(1.0)
        buffer.create_index(_SCHEMA.key_getter(["k"]))
        ts = 0.0
        for key, gap in steps:
            ts += gap
            anchor = _tup(key, ts)
            buffer.append(anchor)
            for probe in {repr(k): k for k in ANY_KEYS}.values():
                want = [
                    t for t in buffer.tuples_preceding(anchor, 1.0)
                    if t.values[0] == probe
                ]
                try:
                    got = list(buffer.bucket_preceding(anchor, 1.0, (probe,)))
                except TypeError:
                    assert type(probe).__hash__ is None
                    continue
                # Bucket first, then the spill list: same members, not order.
                assert sorted(t for t in got if t.values[0] == probe) == want
        live = {id(t) for t in buffer}
        filed = [t for bucket in buffer._buckets.values() for t in bucket]
        assert sorted(map(id, filed + buffer._spill)) == sorted(live)

    def test_unhashable_keys_spill_and_evict(self):
        buffer = RangeWindowBuffer(1.0)
        buffer.create_index(_SCHEMA.key_getter(["k"]))
        odd = _tup(["a"], 0.0)
        buffer.append(odd)
        anchor = _tup("a", 0.5)
        buffer.append(anchor)
        assert list(buffer.bucket_preceding(anchor, 1.0, ("a",))) == [odd]
        buffer.append(_tup("b", 5.0))
        assert buffer._spill == [] and list(buffer._buckets) == [("b",)]

    def test_clear_empties_the_index(self):
        buffer = RangeWindowBuffer(10.0)
        buffer.create_index(_SCHEMA.key_getter(["k"]))
        for tup in (_tup("a", 1.0), _tup(["x"], 2.0), _tup("a", 3.0)):
            buffer.append(tup)
        assert buffer._buckets and buffer._spill
        buffer.clear()
        assert len(buffer) == 0 and buffer._buckets == {} and buffer._spill == []

    def test_index_created_over_live_tuples(self):
        buffer = RangeWindowBuffer(None)
        first, second = _tup("a", 1.0), _tup("b", 2.0)
        buffer.append(first)
        buffer.append(second)
        buffer.create_index(_SCHEMA.key_getter(["k", "v"]))
        assert list(buffer.bucket_preceding(_tup("z", 9.0), 99.0, ("a", 0))) == [first]


# ---------------------------------------------------------------------------
# Differentials: keyed probes vs the oracle and the scan
# ---------------------------------------------------------------------------

NESTED = """
SELECT r1.tag_id FROM readings AS r1
WHERE EXISTS
  (SELECT * FROM TABLE( readings OVER (RANGE 2 SECONDS PRECEDING CURRENT)) AS r2
   WHERE tag_id = r1.tag_id
     AND NOT EXISTS (SELECT * FROM known WHERE tag = r2.reader_id))
"""

NO_KEY = """
SELECT r1.tag_id FROM readings AS r1
WHERE EXISTS
  (SELECT * FROM TABLE( readings OVER (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2
   WHERE r2.read_time < r1.read_time
     AND (r2.tag_id = r1.tag_id OR r2.reader_id = r1.reader_id)
     AND r2.reader_id <> 'b')
"""

ROWS_WINDOW = """
SELECT r1.tag_id FROM readings AS r1
WHERE NOT EXISTS
  (SELECT * FROM TABLE( readings OVER (ROWS 2 PRECEDING)) AS r2
   WHERE r2.tag_id = r1.tag_id)
"""


def _window_engine() -> tuple[Engine, list]:
    engine = Engine()
    engine.create_stream("readings", READINGS)
    engine.create_table("known", "tag str")
    for tag in ("a", "é"):
        engine.table("known").insert([tag])
    return engine, [engine.query(q) for q in (EX1_DEDUP, NESTED, NO_KEY, ROWS_WINDOW)]


@given(st.lists(
    st.tuples(st.sampled_from(ANY_KEYS), st.sampled_from(ANY_KEYS),
              st.sampled_from([0.0, 0.25, 0.5, 1.0])),
    max_size=40,
))
@settings(max_examples=80, deadline=None)
def test_window_probes_match_the_scan(steps):
    """Example 1, a nested table probe keyed on the enclosing sub-query's
    alias, a key-less window and a ROWS window: NULL and cross-type keys,
    unicode, unhashable values in a str column (spill list + unhashable
    outer key), timestamp ties and the exact window edge."""
    trace, ts = [], 0.0
    for reader, tag, gap in steps:
        ts += gap
        trace.append(("readings", {"reader_id": reader, "tag_id": tag, "read_time": ts}, ts))
    expected = run_program(
        "INSERT INTO known VALUES ('a'), ('é');\n"
        + ";\n".join((EX1_DEDUP, NESTED, NO_KEY, ROWS_WINDOW)),
        {"readings": READINGS}, {"known": "tag str"}, trace,
    )
    engine, handles = _window_engine()
    engine.run_trace(trace)
    assert [_rows(handle) for handle in handles] == expected


PROBE_TABLE = """
SELECT p.tid, p.loc FROM probes AS p
WHERE EXISTS (SELECT * FROM object_movement AS m
              WHERE m.tagid = p.tid AND m.location = p.loc)
"""

PROBE_NUMERIC = """
SELECT p.tid FROM probes AS p
WHERE NOT EXISTS (SELECT * FROM object_movement WHERE start_time = p.at)
"""

_TABLE_OPS = st.one_of(
    st.tuples(st.just("move"), st.sampled_from(STR_KEYS), st.sampled_from(STR_KEYS),
              st.sampled_from([0, 1, 1.0, 2.5])),
    st.tuples(st.just("probe"), st.sampled_from(ANY_KEYS), st.sampled_from(ANY_KEYS),
              st.sampled_from(NUM_KEYS)),
    st.tuples(st.just("delete"), st.sampled_from(STR_KEYS), st.none(), st.none()),
    st.tuples(st.just("update"), st.sampled_from(STR_KEYS), st.sampled_from(STR_KEYS),
              st.none()),
)


def _scanning(text: str) -> str:
    """*text* with every correlation key spelled ``NOT (a <> b)``: the same
    predicate in SQL's three-valued logic, but no key, so the probe scans."""
    for key in ("tagid = tid", "location = loc", "m.tagid = p.tid",
                "m.location = p.loc", "start_time = p.at"):
        left, right = key.split(" = ")
        text = text.replace(key, f"NOT ({left} <> {right})")
    return text


@given(st.lists(_TABLE_OPS, max_size=40))
@settings(max_examples=80, deadline=None)
def test_table_probes_match_the_scan(ops):
    """Example 2 writing the table, two keyed readers of it (string pair
    key; a float key probed with 1 / 1.0 / TRUE / '1'), and delete_where /
    update_where between pushes, against the same queries scanning."""
    runs = []
    for spell in (str, _scanning):
        engine = Engine()
        engine.create_stream("tag_locations", "readerid str, tid str, tagtime float, loc str")
        engine.create_table("object_movement", "tagid str, location str, start_time float")
        engine.query(spell(EX2_LOCATION))
        engine.create_stream("probes", "tid str, loc str, at float")
        handles = [engine.query(spell(PROBE_TABLE)), engine.query(spell(PROBE_NUMERIC))]
        table = engine.table("object_movement")
        ts = 0.0
        for kind, a, b, c in ops:
            ts += 0.5
            if kind == "move":
                engine.push("tag_locations", ["rd", a, c, b], ts=ts)
            elif kind == "probe":
                engine.push("probes", [a, b, c], ts=ts)
            elif kind == "delete":
                table.delete_where(lambda row, a=a: row[1] == a)
            else:
                table.update_where(lambda row, a=a: row[0] == a, {"location": b})
        runs.append(([_rows(h) for h in handles], list(table.rows())))
    assert runs[0] == runs[1]


def test_raising_residual_is_evaluated_only_on_the_bucket():
    """The reading docs/LANGUAGE.md states: a residual conjunct that
    raises, written before the key, raises for every candidate under a
    scan but under a keyed probe (and in the oracle) only for the key's
    bucket."""
    text = EX1_DEDUP.replace(
        "WHERE r2.reader_id = r1.reader_id", "WHERE r2.read_time < 'late'"
    )
    trace = [
        ("readings", {"reader_id": "rd", "tag_id": tag, "read_time": ts}, ts)
        for tag, ts in (("x", 0.0), ("y", 0.5))
    ]
    (expected,) = run_program(text, {"readings": READINGS}, {}, trace)
    outcomes = []
    for spelling in (text, text.replace("r2.tag_id = r1.tag_id", "NOT (r2.tag_id <> r1.tag_id)")):
        engine = Engine()
        engine.create_stream("readings", READINGS)
        handle = engine.query(spelling)
        try:
            engine.run_trace(trace)
            outcomes.append(_rows(handle))
        except EslRuntimeError:
            outcomes.append("raised")
    assert len(expected) == 2
    assert outcomes == [expected, "raised"]


# ---------------------------------------------------------------------------
# Complexity: a probe touches its bucket, not the window or the table
# ---------------------------------------------------------------------------


def _counting_engine() -> tuple[Engine, list]:
    engine = Engine()
    calls = []
    engine.register_udf("touch", lambda value: calls.append(value) or True)
    return engine, calls


def test_table_probe_calls_residual_at_most_bucket_size_times():
    engine, calls = _counting_engine()
    engine.create_stream("probes", "tag str")
    engine.create_table("known", "tag str, n int")
    for n in range(5_000):
        engine.table("known").insert([f"t{n // 2}", n])  # buckets of 2
    handle = engine.query(
        "SELECT p.tag FROM probes AS p WHERE EXISTS (SELECT * FROM known AS k "
        "WHERE touch(k.n) AND k.tag = p.tag)"
    )
    for i in range(200):
        before = len(calls)
        engine.push("probes", [f"t{i * 7}" if i % 2 else "absent"], ts=float(i))
        assert len(calls) - before <= 2
    assert len(handle.results) == 100


def test_window_probe_calls_residual_at_most_bucket_size_times():
    engine, calls = _counting_engine()
    engine.create_stream("s", "tag str, n int")
    handle = engine.query(
        "SELECT r1.n FROM s AS r1 WHERE NOT EXISTS (SELECT * FROM "
        "TABLE(s OVER (RANGE 999 SECONDS PRECEDING CURRENT)) AS r2 "
        "WHERE touch(r2.n) AND r2.tag = r1.tag)"
    )
    for n in range(2_000):  # the window holds 1,000 tuples, buckets of 2
        before = len(calls)
        engine.push("s", [f"t{n // 2}", n], ts=float(n))
        assert len(calls) - before <= 1  # the anchor is not its own candidate
    assert len(handle.results) == 1_000
