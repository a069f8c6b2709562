"""Ingest differentials: rows vs :class:`ColumnBatch`.

A reading is the same reading whether it arrives as a row or in a
``ColumnBatch``.  Every differential here runs the same input two ways —
per-record ``push`` and ``push_columns`` — and asserts byte-identical
output: same values, same timestamps, same order, same
timer interleaving.  ``push_columns`` checks the batch at the stream edge
and then takes the row path, so the only thing that may differ is the
error a malformed batch raises, and that is pinned below too.
"""

import pytest

from repro.dsms.columns import (
    ColumnBatch,
    TAG_BOOL,
    TAG_F64,
    TAG_I64,
    TAG_PICKLE,
    TAG_STR,
    column_tag,
    pack_column,
    schema_hints,
    unpack_column,
)
from repro.core.language import parse_program
from repro.dsms.engine import Engine
from repro.dsms.errors import OutOfOrderError, SchemaError
from repro.dsms.multi_engine import MultiQueryEngine
from repro.dsms.schema import Schema
from repro.dsms.sharding import ShardedEngine

from .oracle.filter import run_filter

pytestmark = pytest.mark.columnar

MODES = ("rows", "columns")


def run_differential(setup, batches, post=None):
    """Feed *batches* (``[(stream, [(values, ts), ...]), ...]``) as rows
    and as column batches; assert exact output equality and return the
    common output per handle."""
    per_mode = []
    for mode in MODES:
        engine = Engine()
        handles = setup(engine)
        for stream, rows in batches:
            if mode == "rows":
                for values, ts in rows:
                    engine.push(stream, values, ts)
            else:
                schema = engine.streams.get(stream).schema
                engine.push_columns(
                    stream, ColumnBatch.from_rows(schema, rows)
                )
        if post is not None:
            post(engine)
        per_mode.append(
            [
                [(t.values, t.ts, t.stream) for t in handle.results]
                for handle in handles
            ]
        )
    assert per_mode[0] == per_mode[1]
    return per_mode[0]


def spaced(rows, start=0.0, step=1.0):
    return [(values, start + index * step) for index, values in enumerate(rows)]


#: The four ``push_columns`` entry points, each built empty.
BUILDERS = {
    "engine": Engine,
    "multi": MultiQueryEngine,
    "sharded": lambda: ShardedEngine(n_shards=2, executor="serial"),
    "parallel": lambda: ShardedEngine(n_shards=2, executor="parallel"),
}


def _close(engine):
    if hasattr(engine, "close"):  # a plain Engine holds nothing to close
        engine.close()


class TestFilterDifferential:
    SCHEMA = "tag_id int, pressure float, loc str"

    def _readings(self, n=700, seed=5):
        import random

        rng = random.Random(seed)
        locations = ("dock", "yard", "belt")
        return [
            {
                "tag_id": i,
                "pressure": rng.random(),
                "loc": locations[i % 3],
            }
            for i in range(n)
        ]

    def _batches(self, rows, batch=128):
        records = spaced(rows)
        return [
            ("readings", records[start:start + batch])
            for start in range(0, len(records), batch)
        ]

    @pytest.mark.parametrize("threshold", [0.01, 0.1, 0.5])
    def test_selectivity_sweep(self, threshold):
        def setup(engine):
            engine.create_stream("readings", self.SCHEMA)
            return [
                engine.query(
                    "SELECT tag_id, pressure FROM readings AS R "
                    f"WHERE R.pressure < {threshold!r} AND R.loc = 'dock'"
                )
            ]

        (out,) = run_differential(setup, self._batches(self._readings()))
        assert all(values[1] < threshold for values, _ts, _s in out)

    @pytest.mark.parametrize("threshold, expect", [(-1.0, 0), (2.0, 700)])
    def test_zero_and_full_pass_rates(self, threshold, expect):
        def setup(engine):
            engine.create_stream("readings", self.SCHEMA)
            return [
                engine.query(
                    "SELECT tag_id FROM readings AS R "
                    f"WHERE R.pressure < {threshold!r}"
                )
            ]

        (out,) = run_differential(setup, self._batches(self._readings()))
        assert len(out) == expect

    def test_empty_and_single_row_batches(self):
        def setup(engine):
            engine.create_stream("readings", self.SCHEMA)
            return [
                engine.query(
                    "SELECT tag_id FROM readings AS R WHERE R.pressure < 0.5"
                )
            ]

        rows = self._readings(n=3)
        batches = [
            ("readings", []),
            ("readings", [(rows[0], 0.0)]),
            ("readings", []),
            ("readings", spaced(rows[1:], start=1.0)),
        ]
        run_differential(setup, batches)

    def test_epc_like_filter(self):
        """The paper's EPC-prefix idiom: LIKE over a string column."""

        def setup(engine):
            engine.create_stream("readings", "tid str, tagtime float")
            return [
                engine.query(
                    "SELECT tid FROM readings AS R WHERE tid LIKE '20.%.ca'"
                )
            ]

        rows = [
            {"tid": f"20.{serial}.{'ca' if serial % 3 else 'fb'}",
             "tagtime": float(serial)}
            for serial in range(300)
        ]
        (out,) = run_differential(setup, self._batches(rows, batch=64))
        assert out and all(values[0].endswith(".ca") for values, _t, _s in out)

    def test_null_values_reject_strictly(self):
        """NULL comparison results are Kleene-NULL: the strict WHERE
        rejects them on every ingest path."""

        def setup(engine):
            engine.create_stream("readings", self.SCHEMA)
            return [
                engine.query(
                    "SELECT tag_id FROM readings AS R WHERE R.pressure < 0.5"
                )
            ]

        rows = [
            {"tag_id": i, "pressure": None if i % 4 == 0 else i / 20.0,
             "loc": "dock"}
            for i in range(20)
        ]
        (out,) = run_differential(setup, [("readings", spaced(rows))])
        assert len(out) == 7  # 10 below threshold minus the NULLed ones

    def test_between_and_inlist_over_nulls_and_unicode(self):
        """BETWEEN and IN (with a NULL option) beside a LIKE whose
        subjects include non-ASCII text."""

        def setup(engine):
            engine.create_stream("readings", "tid str, w float, k int")
            return [
                engine.query(
                    "SELECT tid FROM readings AS R WHERE tid LIKE '20.%.ca' "
                    "AND R.w BETWEEN 0.2 AND 0.8 AND R.k IN (1, 2, 5, NULL)"
                )
            ]

        rows = [
            {"tid": f"20.{i}.{('ca', 'fb', 'ガ')[i % 3]}",
             "w": None if i % 11 == 0 else (i % 10) / 10.0,
             "k": i % 7}
            for i in range(400)
        ]
        (out,) = run_differential(setup, self._batches(rows, batch=80))
        assert out

    def test_huge_int_against_float_literal(self):
        """Ints beyond 2**53 compared with a float literal keep exact
        Python semantics in the mask."""

        def setup(engine):
            engine.create_stream("readings", "x int, p float")
            return [
                engine.query("SELECT x FROM readings AS R WHERE R.x > 100.5")
            ]

        huge = 1 << 61
        rows = [
            {"x": value, "p": 0.0}
            for value in (huge, -huge, 3, 200, None, huge + 1, 7, 101)
        ]
        (out,) = run_differential(setup, [("readings", spaced(rows))])
        assert [values[0] for values, _t, _s in out] == [
            huge, 200, huge + 1, 101,
        ]

    def test_literal_left_negation_not_and_constant_terms(self):
        """A literal on the left of a comparison, unary minus, NOT, a
        constant conjunct, and a LIKE whose pattern is a column."""

        def setup(engine):
            engine.create_stream("readings", "tid str, pat str, w float, k int")
            return [
                engine.query(
                    "SELECT tid FROM readings AS R WHERE 0.3 < R.w "
                    "AND -R.k > -5 AND NOT (R.k = 2) AND 1 = 1"
                ),
                engine.query(
                    "SELECT tid FROM readings AS R WHERE R.tid LIKE R.pat"
                ),
            ]

        rows = [
            {"tid": f"20.{i}.ca",
             "pat": (None, "20.%", "%.fb", "20._.ca")[i % 4],
             "w": None if i % 9 == 0 else (i % 10) / 10.0,
             "k": None if i % 13 == 0 else i % 7}
            for i in range(300)
        ]
        ranged, patterned = run_differential(setup, self._batches(rows, batch=64))
        assert ranged and patterned

    def test_fanout_union_mask(self):
        """Two filters on one stream: every row reaches both queries, and
        both match the per-record push."""

        def setup(engine):
            engine.create_stream("readings", self.SCHEMA)
            return [
                engine.query(
                    "SELECT tag_id FROM readings AS R WHERE R.pressure < 0.1"
                ),
                engine.query(
                    "SELECT tag_id FROM readings AS R WHERE R.pressure > 0.9"
                ),
            ]

        low, high = run_differential(setup, self._batches(self._readings()))
        assert low and high

    def test_udf_predicate_falls_back(self):
        """A UDF in the WHERE clause: same outputs on every ingest path."""

        def setup(engine):
            engine.register_udf("halve", lambda v: v / 2.0)
            engine.create_stream("readings", self.SCHEMA)
            return [
                engine.query(
                    "SELECT tag_id FROM readings AS R "
                    "WHERE halve(R.pressure) < 0.25"
                )
            ]

        run_differential(setup, self._batches(self._readings(n=200)))

    def test_out_of_order_batch_raises(self):
        """A batch whose rows go back in time is refused at the stream
        edge, with the stream's own OutOfOrderError, on every engine."""
        for build in BUILDERS.values():
            engine = build()
            stream = engine.create_stream("readings", self.SCHEMA)
            batch = ColumnBatch.from_rows(
                stream.schema,
                [
                    ({"tag_id": 1, "pressure": 0.1, "loc": "dock"}, 5.0),
                    ({"tag_id": 2, "pressure": 0.1, "loc": "dock"}, 1.0),
                ],
            )
            try:
                with pytest.raises(OutOfOrderError, match="ts=1 after ts=5"):
                    engine.push_columns("readings", batch)
            finally:
                _close(engine)

    def test_run_trace_mixed_entries(self):
        """run_trace accepts (stream, batch) pairs interleaved with
        (stream, values, ts) records."""
        engine = Engine()
        engine.create_stream("readings", self.SCHEMA)
        handle = engine.query(
            "SELECT tag_id FROM readings AS R WHERE R.pressure < 0.5"
        )
        schema = engine.streams.get("readings").schema
        batch = ColumnBatch.from_rows(
            schema, [({"tag_id": 1, "pressure": 0.2, "loc": "d"}, 1.0)]
        )
        count = engine.run_trace(
            [
                ("readings", {"tag_id": 0, "pressure": 0.3, "loc": "d"}, 0.0),
                ("readings", batch),
                ("readings", {"tag_id": 2, "pressure": 0.9, "loc": "d"}, 2.0),
            ]
        )
        assert count == 3
        assert [t.values[0] for t in handle.results] == [0, 1]


class TestNestedBooleanDifferential:
    """OR over nested AND, fed as one ``ColumnBatch``: the engine emits
    the oracle's rows up to the row whose operand raises, then raises
    (the same shapes run as SEQ pairing conjuncts in
    ``test_seq_pairing.py``).
    """

    def _run(self, schema, where, rows):
        text = f"SELECT tag_id FROM readings AS R WHERE {where}"
        (statement,) = parse_program(text)
        expected, raises = [], False
        for row, ts in rows:
            try:
                expected += run_filter(statement, [(row, ts)])
            except TypeError:  # the oracle's error: the batch stops here
                raises = True
                break
        engine = Engine()
        engine.create_stream("readings", schema)
        handle = engine.query(text)
        stream = engine.streams.get("readings")
        error = None
        try:
            engine.push_columns(
                "readings", ColumnBatch.from_rows(stream.schema, rows)
            )
        except Exception as exc:  # noqa: BLE001 - returned to the caller
            error = (type(exc).__name__, str(exc))
        got = [(t.values, t.ts) for t in handle.results]
        assert got == expected
        assert (error is not None) == raises
        return got, error

    def test_or_over_nested_and_with_nulls_in_every_column(self):
        rows = spaced(
            [
                {
                    "tag_id": None if i % 5 == 0 else i,
                    "pressure": None if i % 7 == 0 else (i % 10) / 10.0,
                    "loc": None if i % 3 == 0 else ("yard", "dock")[i % 2],
                }
                for i in range(210)
            ]
        )
        out, error = self._run(
            "tag_id int, pressure float, loc str",
            "(R.pressure < 0.2 AND R.loc = 'dock') OR R.tag_id IS NULL",
            rows,
        )
        assert error is None
        tags = [values[0] for values, _ts in out]
        assert None in tags and any(tag is not None for tag in tags)

    # Row 7's ``x`` is a string, so ``R.x + 1`` raises there and only
    # there; the batch's earlier rows must already have been emitted.
    RAISING_ROWS = spaced(
        [
            {"tag_id": i, "pressure": i / 20.0, "x": "oops" if i == 7 else i}
            for i in range(12)
        ]
    )

    def test_raising_operand_guarded_by_the_first(self):
        out, error = self._run(
            "tag_id int, pressure float, x any",
            "(R.tag_id <> 7 AND R.x + 1 > 9) OR R.pressure < 0.1",
            self.RAISING_ROWS,
        )
        assert error is None
        assert [values[0] for values, _ts in out] == [0, 1, 9, 10, 11]

    def test_raising_operand_unguarded(self):
        out, error = self._run(
            "tag_id int, pressure float, x any",
            "(R.pressure < 2.0 AND R.x + 1 > 9) OR R.pressure < 0.1",
            self.RAISING_ROWS,
        )
        assert error == ("EslRuntimeError", "cannot apply 'oops' + 1")
        assert [values[0] for values, _ts in out] == [0, 1]

    def test_null_valued_operand_mid_batch(self):
        # Division by zero is NULL, not an error: row 7 is undecided by
        # the AND and falls through to the OR's second operand.
        out, error = self._run(
            "tag_id int, pressure float, x any",
            "(R.pressure < 2.0 AND 1 / (R.tag_id - 7) > 0) OR R.tag_id = 7",
            self.RAISING_ROWS,
        )
        assert error is None
        assert [values[0] for values, _ts in out] == [7, 8, 9, 10, 11]


class TestTemporalDifferential:
    def _seq_setup(self, engine):
        engine.create_stream("a", "tag_id str, v float")
        engine.create_stream("b", "tag_id str, w float")
        return [
            engine.query(
                "SELECT X.tag_id, X.v, Y.w FROM a AS X, b AS Y "
                "WHERE SEQ(X, Y) AND X.tag_id = Y.tag_id "
                "AND X.v < 0.3 AND Y.w > 0.6"
            )
        ]

    def _seq_batches(self, n=900, seed=13):
        import random

        rng = random.Random(seed)
        batches = []
        ts = 0.0
        for start in range(0, n, 100):
            a_rows = [
                {"tag_id": f"t{rng.randrange(40)}", "v": rng.random()}
                for _ in range(100)
            ]
            b_rows = [
                {"tag_id": f"t{rng.randrange(40)}", "w": rng.random()}
                for _ in range(100)
            ]
            batches.append(("a", spaced(a_rows, start=ts)))
            batches.append(("b", spaced(b_rows, start=ts + 120.0)))
            ts += 400.0
        return batches

    def test_seq_admission_guard(self):
        """Single-alias SEQ conjuncts are checked at admission; pairing
        output must match the per-record push exactly."""
        (out,) = run_differential(self._seq_setup, self._seq_batches())
        assert out
        assert all(values[1] < 0.3 and values[2] > 0.6 for values, _t, _s in out)

    def test_exception_seq_timer_interleaving(self):
        """Active-expiration timers fire between batch rows: dropped rows
        still advance the clock, so exception reports keep their exact
        deadline stamps and interleaving."""

        def setup(engine):
            for name in ("a1", "a2", "a3"):
                engine.create_stream(name, "tagid str, tagtime float")
            filtered = engine.query(
                "SELECT tagid FROM a1 AS R WHERE R.tagtime < 50.0"
            )
            exceptions = engine.query(
                "SELECT A1.tagid FROM a1, a2, a3 "
                "WHERE EXCEPTION_SEQ(A1, A2, A3) "
                "OVER [1 HOURS FOLLOWING A1]"
            )
            return [filtered, exceptions]

        batches = []
        # Sparse anchors whose 1-hour deadlines land mid-way through the
        # later dense batches.
        batches.append(
            ("a1", [({"tagid": f"s{i}", "tagtime": i * 10.0}, i * 10.0)
                    for i in range(6)])
        )
        batches.append(
            ("a2", [({"tagid": "s0", "tagtime": 100.0}, 100.0)])
        )
        # A dense batch straddling several anchors' 3600s deadlines.
        batches.append(
            ("a1", [({"tagid": f"late{i}", "tagtime": 3500.0 + i * 20.0},
                     3500.0 + i * 20.0) for i in range(10)])
        )
        filtered, exceptions = run_differential(
            setup, batches, post=lambda engine: engine.advance_time(99999.0)
        )
        assert exceptions  # timeouts actually fired


@pytest.mark.transport
class TestShardedColumnar:
    def test_pipe_columnar_matches_row_path(self):
        """ColumnBatch ingest on both executors produces the same merged
        rows as per-record routing."""
        import random

        from repro.dsms.sharding import ShardedEngine

        rng = random.Random(3)
        rows_a = [
            {"tag_id": f"t{rng.randrange(30)}", "v": rng.random()}
            for _ in range(600)
        ]
        rows_b = [
            {"tag_id": f"t{rng.randrange(30)}", "w": rng.random()}
            for _ in range(600)
        ]
        batches = []
        ts = 0.0
        for start in range(0, 600, 120):
            batches.append(("a", spaced(rows_a[start:start + 120], start=ts)))
            batches.append(
                ("b", spaced(rows_b[start:start + 120], start=ts + 150.0))
            )
            ts += 400.0
        query = (
            "SELECT X.tag_id, X.v, Y.w FROM a AS X, b AS Y "
            "WHERE SEQ(X, Y) AND X.tag_id = Y.tag_id "
            "AND X.v < 0.3 AND Y.w > 0.6"
        )

        def run(columnar, **kwargs):
            sharded = ShardedEngine(n_shards=2, **kwargs)
            sharded.create_stream("a", "tag_id str, v float")
            sharded.create_stream("b", "tag_id str, w float")
            handle = sharded.query(query)
            sharded.start()
            for stream, rows in batches:
                if columnar:
                    schema = sharded.catalog.streams.get(stream).schema
                    sharded.push_columns(
                        stream, ColumnBatch.from_rows(schema, rows)
                    )
                else:
                    for values, ts_ in rows:
                        sharded.push(stream, values, ts_)
            sharded.flush()
            out = [(t.values, t.ts) for t in handle.results]
            sharded.close()
            return out

        reference = run(False, executor="serial")
        assert run(True, executor="parallel") == reference
        assert run(True, executor="serial") == reference


class TestColumnBatch:
    SCHEMA = Schema.parse("tag_id int, pressure float, loc str")

    def test_from_rows_and_accessors(self):
        batch = ColumnBatch.from_rows(
            self.SCHEMA,
            [
                ({"tag_id": 1, "pressure": 0.5, "loc": "dock"}, 0.0),
                ((2, 0.75, "yard"), 1),
            ],
        )
        assert len(batch) == 2
        assert list(batch.columns[0]) == [1, 2]
        assert batch.timestamps == [0.0, 1.0]  # coerced to float once
        assert batch.row(1) == (2, 0.75, "yard")
        assert list(batch.rows()) == batch.to_records()

    def test_from_rows_rejects_unknown_fields_and_bad_width(self):
        with pytest.raises(SchemaError):
            ColumnBatch.from_rows(
                self.SCHEMA, [({"tag_id": 1, "bogus": 2}, 0.0)]
            )
        with pytest.raises(SchemaError):
            ColumnBatch.from_rows(self.SCHEMA, [((1, 2.0), 0.0)])

    def test_from_rows_edges(self):
        empty = ColumnBatch.from_rows(self.SCHEMA, [])
        assert empty.columns == ([], [], [])
        assert empty.timestamps == [] and len(empty) == 0
        assert empty.to_records() == []
        # Mapping and positional rows mix; a mapping's missing field is None.
        mixed = ColumnBatch.from_rows(
            self.SCHEMA,
            [
                ({"loc": "dock", "tag_id": 1}, 0),
                ([2, 0.75, "yard"], 0.5),
                ({}, 1.0),
            ],
        )
        assert mixed.columns == ([1, 2, None], [None, 0.75, None],
                                 ["dock", "yard", None])
        assert mixed.timestamps == [0.0, 0.5, 1.0]

        def reused_mapping():  # a producer that refills one dict per row
            values = {}
            for tag in range(3):
                values["tag_id"] = tag
                yield values, float(tag)

        reused = ColumnBatch.from_rows(self.SCHEMA, reused_mapping())
        assert reused.columns[0] == [0, 1, 2]
        with pytest.raises(SchemaError) as unknown:
            ColumnBatch.from_rows(
                self.SCHEMA, [((1, 0.5, "a"), 0.0), ({"bogus": 2, "x": 1}, 1.0)]
            )
        assert str(unknown.value) == (
            f"unknown fields ['bogus', 'x'] for {self.SCHEMA!r}"
        )
        with pytest.raises(SchemaError) as width:
            ColumnBatch.from_rows(
                self.SCHEMA, [({"tag_id": 1}, 0.0), ((1, 2.0, "a", "b"), 1.0)]
            )
        assert str(width.value) == (
            f"tuple has 4 values for 3-column schema {self.SCHEMA!r}"
        )

    def test_push_columns_schema_mismatch(self):
        engine = Engine()
        engine.create_stream("readings", "tag_id int, pressure float, loc str")
        other = Schema.parse("x int, y float")
        batch = ColumnBatch.from_rows(other, [((1, 2.0), 0.0)])
        with pytest.raises(SchemaError):
            engine.push_columns("readings", batch)

    @pytest.mark.parametrize("engine_kind", sorted(BUILDERS))
    def test_mismatched_batch_raises_one_error_everywhere(self, engine_kind):
        """Every engine checks the batch at the same stream edge, so a
        batch of the wrong schema raises the same SchemaError on all."""
        engine = BUILDERS[engine_kind]()
        engine.create_stream("readings", "tag_id int, pressure float, loc str")
        other = Schema.parse("x int, y float")
        batch = ColumnBatch.from_rows(other, [((1, 2.0), 0.0)])
        try:
            with pytest.raises(SchemaError) as caught:
                engine.push_columns("readings", batch)
        finally:
            _close(engine)
        assert str(caught.value) == (
            f"column batch schema {other!r} does not match stream "
            f"'readings' schema "
            f"{Schema.parse('tag_id int, pressure float, loc str')!r}"
        )


class TestSharedPacking:
    """The transport codec and ColumnBatch share one packing definition."""

    def test_schema_hints(self):
        schema = Schema.parse("a int, b float, c str, d bool, e any")
        assert schema_hints(schema) == (
            TAG_I64, TAG_F64, TAG_STR, TAG_BOOL, None
        )

    @pytest.mark.parametrize(
        "values, expected_tag",
        [
            ((1, 2, 3), TAG_I64),
            ((1.5, None, 2.0), TAG_F64),
            (("a", "b", None), TAG_STR),
            ((True, False), TAG_BOOL),
            ((1, "mixed"), TAG_PICKLE),
            (((1, 2), None), TAG_PICKLE),
        ],
    )
    def test_pack_unpack_round_trip(self, values, expected_tag):
        assert column_tag(values, None) == expected_tag
        parts = []
        pack_column(values, None, parts)
        payload = b"".join(
            part if isinstance(part, bytes) else bytes(part)
            for part in parts
        )
        unpacked, offset = unpack_column(memoryview(payload), 0, len(values))
        assert tuple(unpacked) == tuple(values)
        assert offset == len(payload)

    def test_transport_reexports_shared_codec(self):
        from repro.dsms import columns, transport

        assert transport.dumps_oob is columns.dumps_oob
        assert transport.loads_oob is columns.loads_oob
