"""Integration tests: DDL, filter queries, EXISTS probes, sinks, UDAs."""

import pytest

from repro.dsms import Engine
from repro.dsms.errors import EslSemanticError, EslSyntaxError


class TestDdl:
    def test_create_stream_via_sql(self, engine):
        engine.query("CREATE STREAM s(a int, b str)")
        assert engine.stream("s").schema.names == ("a", "b")

    def test_create_table_via_sql(self, engine):
        engine.query("CREATE TABLE t(x float)")
        assert engine.table("t").schema.names == ("x",)

    def test_bad_type_rejected(self, engine):
        with pytest.raises(EslSemanticError):
            engine.query("CREATE STREAM s(a widget)")

    def test_multi_statement_program(self, engine):
        engine.query("""
            CREATE STREAM src(a int);
            CREATE STREAM dst(a int);
            INSERT INTO dst SELECT a FROM src;
        """)
        got = engine.collect("dst")
        engine.push("src", {"a": 7}, ts=0.0)
        assert got.rows() == [{"a": 7}]

    def test_insert_values_into_table(self, engine):
        engine.query("CREATE TABLE t(a int, b str)")
        engine.query("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        assert len(engine.table("t")) == 2

    def test_insert_values_into_stream_rejected(self, engine):
        engine.create_stream("s", "a")
        with pytest.raises(EslSemanticError):
            engine.query("INSERT INTO s VALUES (1)")

    def test_create_aggregate_and_use(self, engine):
        engine.query("""
        CREATE AGGREGATE vrange(v) (
            INITIALIZE: lo := v, hi := v;
            ITERATE: lo := CASE WHEN v < lo THEN v ELSE lo END,
                     hi := CASE WHEN v > hi THEN v ELSE hi END;
            TERMINATE: RETURN hi - lo;
        )
        """)
        engine.create_stream("vals", "v float")
        handle = engine.query("SELECT vrange(v) FROM vals")
        for index, value in enumerate([5.0, 1.0, 9.0]):
            engine.push("vals", {"v": value}, ts=float(index))
        assert [row["vrange_v"] for row in handle.rows()] == [0.0, 4.0, 8.0]


class TestFilterQueries:
    @pytest.fixture
    def readings(self, engine):
        engine.create_stream("readings", "reader_id str, tid str, read_time float")
        return engine

    def feed(self, engine, rows):
        for index, (reader, tid) in enumerate(rows):
            engine.push(
                "readings",
                {"reader_id": reader, "tid": tid, "read_time": float(index)},
                ts=float(index),
            )

    def test_projection(self, readings):
        handle = readings.query("SELECT tid FROM readings")
        self.feed(readings, [("r1", "a")])
        assert handle.rows() == [{"tid": "a"}]

    def test_select_star(self, readings):
        handle = readings.query("SELECT * FROM readings")
        self.feed(readings, [("r1", "a")])
        assert handle.rows()[0]["reader_id"] == "r1"

    def test_where_filters(self, readings):
        handle = readings.query(
            "SELECT tid FROM readings WHERE reader_id = 'r2'"
        )
        self.feed(readings, [("r1", "a"), ("r2", "b")])
        assert [r["tid"] for r in handle.rows()] == ["b"]

    def test_like_and_udf(self, readings):
        handle = readings.query(
            "SELECT tid FROM readings WHERE tid LIKE '20.%' "
            "AND extract_serial(tid) > 100"
        )
        self.feed(readings, [("r", "20.1.50"), ("r", "20.1.200"), ("r", "9.1.999")])
        assert [r["tid"] for r in handle.rows()] == ["20.1.200"]

    def test_computed_select_item(self, readings):
        handle = readings.query(
            "SELECT upper(reader_id) AS rd, read_time * 2 AS dbl FROM readings"
        )
        self.feed(readings, [("r1", "a")])
        assert handle.rows() == [{"rd": "R1", "dbl": 0.0}]

    def test_output_timestamps_preserved(self, readings):
        handle = readings.query("SELECT tid FROM readings")
        self.feed(readings, [("r", "a"), ("r", "b")])
        assert [t.ts for t in handle.results] == [0.0, 1.0]

    def test_insert_into_autocreates_stream(self, readings):
        readings.query("INSERT INTO derived SELECT tid FROM readings")
        got = readings.collect("derived")
        self.feed(readings, [("r", "a")])
        assert got.rows() == [{"tid": "a"}]

    def test_insert_arity_mismatch_rejected(self, readings):
        readings.create_stream("narrow", "only_one")
        with pytest.raises(EslSemanticError):
            readings.query("INSERT INTO narrow SELECT tid, reader_id FROM readings")

    def test_window_on_main_stream_rejected(self, readings):
        with pytest.raises(EslSemanticError):
            readings.query(
                "SELECT tid FROM TABLE(readings OVER (RANGE 5 SECONDS "
                "PRECEDING CURRENT)) AS w"
            )


class TestStreamTableJoin:
    """The paper's Context Retrieval task: enrich readings from a table."""

    @pytest.fixture
    def ctx_engine(self, engine):
        engine.create_stream("readings", "tid str, read_time float")
        engine.create_table("products", "tid str, owner str")
        engine.query("INSERT INTO products VALUES ('a', 'alice'), ('b', 'bob')")
        return engine

    def test_enrichment_join(self, ctx_engine):
        handle = ctx_engine.query(
            "SELECT r.tid, p.owner FROM readings AS r, products AS p "
            "WHERE r.tid = p.tid"
        )
        ctx_engine.push("readings", {"tid": "b", "read_time": 0.0}, ts=0.0)
        assert handle.rows() == [{"tid": "b", "owner": "bob"}]

    def test_unmatched_reading_produces_nothing(self, ctx_engine):
        handle = ctx_engine.query(
            "SELECT r.tid, p.owner FROM readings AS r, products AS p "
            "WHERE r.tid = p.tid"
        )
        ctx_engine.push("readings", {"tid": "zz", "read_time": 0.0}, ts=0.0)
        assert handle.rows() == []

    def test_correlated_table_exists(self, ctx_engine):
        # Note: the correlated column must be qualified (r.tid) — a bare
        # `tid` inside the subquery resolves to products.tid (innermost
        # scope), per SQL name resolution.
        handle = ctx_engine.query(
            "SELECT tid FROM readings AS r WHERE NOT EXISTS "
            "(SELECT owner FROM products AS p WHERE p.tid = r.tid)"
        )
        ctx_engine.push("readings", {"tid": "a", "read_time": 0.0}, ts=0.0)
        ctx_engine.push("readings", {"tid": "zz", "read_time": 1.0}, ts=1.0)
        assert [r["tid"] for r in handle.rows()] == ["zz"]

    def test_inner_scope_shadows_outer(self, ctx_engine):
        # `p.tid = tid` binds the bare tid to products itself: tautology,
        # so EXISTS is true whenever the table is non-empty.
        handle = ctx_engine.query(
            "SELECT tid FROM readings WHERE EXISTS "
            "(SELECT owner FROM products AS p WHERE p.tid = tid)"
        )
        ctx_engine.push("readings", {"tid": "zz", "read_time": 0.0}, ts=0.0)
        assert len(handle.rows()) == 1


class TestWindowedExists:
    """Example 1's shape: NOT EXISTS over a preceding window."""

    @pytest.fixture
    def dedup(self, engine):
        engine.create_stream("readings", "reader_id str, tag_id str, read_time float")
        handle = engine.query("""
            SELECT * FROM readings AS r1
            WHERE NOT EXISTS
              (SELECT * FROM TABLE(readings OVER
                 (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2
               WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id)
        """)
        return engine, handle

    def push(self, engine, reader, tag, ts):
        engine.push(
            "readings",
            {"reader_id": reader, "tag_id": tag, "read_time": ts},
            ts=ts,
        )

    def test_duplicate_suppressed(self, dedup):
        engine, handle = dedup
        self.push(engine, "r1", "t1", 0.0)
        self.push(engine, "r1", "t1", 0.5)
        assert len(handle.rows()) == 1

    def test_far_apart_reads_kept(self, dedup):
        engine, handle = dedup
        self.push(engine, "r1", "t1", 0.0)
        self.push(engine, "r1", "t1", 2.0)
        assert len(handle.rows()) == 2

    def test_different_reader_not_duplicate(self, dedup):
        engine, handle = dedup
        self.push(engine, "r1", "t1", 0.0)
        self.push(engine, "r2", "t1", 0.1)
        assert len(handle.rows()) == 2

    def test_boundary_exactly_one_second(self, dedup):
        engine, handle = dedup
        self.push(engine, "r1", "t1", 0.0)
        self.push(engine, "r1", "t1", 1.0)  # within [t-1, t] inclusive
        assert len(handle.rows()) == 1

    def test_rows_window_exists(self, engine):
        engine.create_stream("s", "tag str")
        handle = engine.query("""
            SELECT tag FROM s AS cur WHERE NOT EXISTS
              (SELECT * FROM TABLE(s OVER (ROWS 1 PRECEDING)) AS prev
               WHERE prev.tag = cur.tag)
        """)
        for index, tag in enumerate(["a", "a", "b", "a"]):
            engine.push("s", {"tag": tag}, ts=float(index))
        assert [r["tag"] for r in handle.rows()] == ["a", "b", "a"]

    def test_unwindowed_stream_exists_rejected(self, engine):
        engine.create_stream("s", "tag str")
        with pytest.raises(EslSemanticError):
            engine.query(
                "SELECT tag FROM s WHERE EXISTS (SELECT * FROM s AS x)"
            )


class TestErrorPaths:
    def test_syntax_error_propagates(self, engine):
        with pytest.raises(EslSyntaxError):
            engine.query("SELEKT oops")

    def test_group_by_with_temporal_rejected(self, engine):
        engine.create_stream("a", "tagid str")
        engine.create_stream("b", "tagid str")
        with pytest.raises(EslSemanticError):
            engine.query(
                "SELECT count(tagid) FROM a, b WHERE SEQ(A, B) GROUP BY tagid"
            )

    def test_exists_with_temporal_rejected(self, engine):
        engine.create_stream("a", "tagid str")
        engine.create_stream("b", "tagid str")
        engine.create_table("t", "tagid str")
        with pytest.raises(EslSemanticError):
            engine.query(
                "SELECT tagid FROM a, b WHERE SEQ(A, B) AND EXISTS "
                "(SELECT tagid FROM t)"
            )

    def test_exists_under_or_rejected_at_compile_time(self, engine):
        # It used to compile and then raise on the first tuple.
        engine.create_stream("s", "x int")
        engine.create_table("t", "y int")
        with pytest.raises(EslSemanticError, match="top-level AND-terms"):
            engine.query("SELECT x FROM s WHERE x = 1 OR EXISTS (SELECT * FROM t)")

    def test_temporal_arg_must_be_stream(self, engine):
        engine.create_stream("a", "tagid str")
        engine.create_table("t", "tagid str")
        with pytest.raises(EslSemanticError):
            engine.query("SELECT tagid FROM a, t WHERE SEQ(A, T)")


class TestDeleteUpdate:
    """DELETE FROM / UPDATE ... SET over persistent tables."""

    @pytest.fixture
    def stocked(self, engine):
        engine.query("CREATE TABLE inventory(tagid str, location str, qty int)")
        engine.query("""
            INSERT INTO inventory VALUES
                ('t1', 'dock', 5), ('t2', 'dock', 3), ('t3', 'aisle', 9)
        """)
        return engine

    def test_delete_with_where(self, stocked):
        handle = stocked.query("DELETE FROM inventory WHERE location = 'dock'")
        assert handle.affected_rows == 2
        assert len(stocked.table("inventory")) == 1

    def test_delete_all(self, stocked):
        handle = stocked.query("DELETE FROM inventory")
        assert handle.affected_rows == 3
        assert len(stocked.table("inventory")) == 0

    def test_delete_qualified_column(self, stocked):
        stocked.query("DELETE FROM inventory WHERE inventory.qty > 4")
        remaining = {r["tagid"] for r in stocked.table("inventory").scan()}
        assert remaining == {"t2"}

    def test_update_with_where(self, stocked):
        handle = stocked.query(
            "UPDATE inventory SET location = 'shipped' WHERE qty < 6"
        )
        assert handle.affected_rows == 2
        shipped = list(stocked.table("inventory").lookup(location="shipped"))
        assert len(shipped) == 2

    def test_update_expression_reads_row(self, stocked):
        stocked.query("UPDATE inventory SET qty = qty + 10")
        quantities = sorted(r["qty"] for r in stocked.table("inventory").scan())
        assert quantities == [13, 15, 19]

    def test_update_duplicate_rows_once_each(self, engine):
        # SET reads each row's pre-update values: duplicates are updated
        # once each (this used to cascade every row to ('a', 3)).
        engine.query("CREATE TABLE t(k str, x int)")
        engine.query("INSERT INTO t VALUES ('a', 1), ('a', 1), ('a', 2)")
        handle = engine.query("UPDATE t SET x = x + 1")
        assert handle.affected_rows == 3
        assert list(engine.table("t").rows()) == [("a", 2), ("a", 2), ("a", 3)]

    def test_update_multiple_columns(self, stocked):
        stocked.query(
            "UPDATE inventory SET qty = 0, location = 'void' "
            "WHERE tagid = 't1'"
        )
        row = next(stocked.table("inventory").lookup(tagid="t1"))
        assert row["qty"] == 0 and row["location"] == "void"

    def test_delete_unknown_table(self, engine):
        from repro.dsms.errors import UnknownTableError

        with pytest.raises(UnknownTableError):
            engine.query("DELETE FROM nope")
