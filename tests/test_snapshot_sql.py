"""Tests for ad-hoc snapshot SQL (Engine.enable_history + Engine.snapshot).

The paper's section 2.1 "Ad-hoc Queries": current-state questions answered
from live stream state, in SQL, without persisting anything.
"""

import pytest

from repro.dsms import Engine
from repro.dsms.errors import EslSemanticError

from .oracle.relational import run_program


@pytest.fixture
def tracked(engine):
    engine.create_stream(
        "locs", "patient str, location str, tagtime float"
    )
    engine.enable_history("locs", duration=600.0)
    rows = [
        ("p1", "er", 0.0), ("p2", "icu", 10.0), ("p1", "ward", 20.0),
        ("p3", "er", 30.0),
    ]
    for patient, location, ts in rows:
        engine.push(
            "locs",
            {"patient": patient, "location": location, "tagtime": ts},
            ts=ts,
        )
    return engine


class TestSnapshotQueries:
    def test_filter_projection(self, tracked):
        rows = tracked.snapshot(
            "SELECT patient, tagtime FROM locs WHERE location = 'er'"
        )
        assert rows == [
            {"patient": "p1", "tagtime": 0.0},
            {"patient": "p3", "tagtime": 30.0},
        ]

    def test_select_star(self, tracked):
        rows = tracked.snapshot("SELECT * FROM locs")
        assert len(rows) == 4
        assert rows[0]["patient"] == "p1"

    def test_aggregate(self, tracked):
        rows = tracked.snapshot("SELECT count(patient), max(tagtime) FROM locs")
        assert rows == [{"count_patient": 4, "max_tagtime": 30.0}]

    def test_group_by(self, tracked):
        rows = tracked.snapshot(
            "SELECT location, count(patient) FROM locs GROUP BY location"
        )
        counts = {row["location"]: row["count_patient"] for row in rows}
        assert counts == {"er": 2, "icu": 1, "ward": 1}

    def test_having(self, tracked):
        rows = tracked.snapshot(
            "SELECT location, count(patient) FROM locs "
            "GROUP BY location HAVING count(patient) > 1"
        )
        assert rows == [{"location": "er", "count_patient": 2}]

    def test_window_retention_applies(self, tracked):
        tracked.push(
            "locs",
            {"patient": "p9", "location": "er", "tagtime": 10000.0},
            ts=10000.0,
        )
        rows = tracked.snapshot("SELECT patient FROM locs")
        # Everything older than 600s fell out of the history.
        assert rows == [{"patient": "p9"}]

    def test_stream_table_join(self, tracked):
        tracked.create_table("staff", "patient str, doctor str")
        tracked.query("INSERT INTO staff VALUES ('p1', 'dr-a'), ('p2', 'dr-b')")
        rows = tracked.snapshot(
            "SELECT L.patient, S.doctor FROM locs AS L, staff AS S "
            "WHERE L.patient = S.patient AND L.location = 'ward'"
        )
        assert rows == [{"patient": "p1", "doctor": "dr-a"}]

    def test_exists_over_table(self, tracked):
        tracked.create_table("authorized", "patient str")
        tracked.query("INSERT INTO authorized VALUES ('p1')")
        rows = tracked.snapshot(
            "SELECT L.patient FROM locs AS L WHERE NOT EXISTS "
            "(SELECT patient FROM authorized AS a WHERE a.patient = L.patient)"
        )
        assert {row["patient"] for row in rows} == {"p2", "p3"}

    def test_snapshot_does_not_register_queries(self, tracked):
        before = len(tracked.queries)
        tracked.snapshot("SELECT patient FROM locs")
        assert len(tracked.queries) == before

    def test_repeated_snapshots_see_updates(self, tracked):
        first = tracked.snapshot("SELECT count(*) FROM locs")
        tracked.push(
            "locs", {"patient": "p4", "location": "er", "tagtime": 40.0},
            ts=40.0,
        )
        second = tracked.snapshot("SELECT count(*) FROM locs")
        assert second[0]["count_all"] == first[0]["count_all"] + 1

    def test_aggregate_on_empty_history(self, engine):
        engine.create_stream("s", "v int")
        engine.enable_history("s")
        rows = engine.snapshot("SELECT count(v), sum(v) FROM s")
        assert rows == [{"count_v": 0, "sum_v": None}]

    def test_udf_in_snapshot(self, tracked):
        rows = tracked.snapshot(
            "SELECT upper(location) AS L FROM locs WHERE patient = 'p2'"
        )
        assert rows == [{"L": "ICU"}]


class TestSnapshotErrors:
    def test_requires_history(self, engine):
        engine.create_stream("s", "v int")
        with pytest.raises(EslSemanticError, match="enable_history"):
            engine.snapshot("SELECT v FROM s")

    def test_rejects_temporal(self, tracked):
        tracked.create_stream("s2", "patient str, tagtime float")
        tracked.enable_history("s2")
        with pytest.raises(EslSemanticError, match="continuous"):
            tracked.snapshot(
                "SELECT L.patient FROM locs AS L, s2 WHERE SEQ(L, S2)"
            )

    def test_rejects_insert(self, tracked):
        with pytest.raises(EslSemanticError):
            tracked.snapshot("INSERT INTO x SELECT patient FROM locs")

    def test_rejects_multiple_statements(self, tracked):
        with pytest.raises(EslSemanticError):
            tracked.snapshot(
                "SELECT patient FROM locs; SELECT patient FROM locs"
            )

    def test_rejects_window_clause(self, tracked):
        with pytest.raises(EslSemanticError, match="window"):
            tracked.snapshot(
                "SELECT patient FROM TABLE(locs OVER "
                "(RANGE 5 SECONDS PRECEDING CURRENT)) AS w"
            )

    def test_rejects_stream_exists(self, tracked):
        tracked.create_stream("other", "patient str")
        tracked.enable_history("other")
        with pytest.raises(EslSemanticError, match="tables"):
            tracked.snapshot(
                "SELECT patient FROM locs AS L WHERE EXISTS "
                "(SELECT * FROM other)"
            )

    def test_unknown_source(self, tracked):
        with pytest.raises(EslSemanticError):
            tracked.snapshot("SELECT x FROM nothing")

    def test_enable_history_idempotent(self, tracked):
        view1 = tracked.enable_history("locs")
        view2 = tracked.enable_history("locs")
        assert view1 is view2


KV_TABLES = {"t": "k str, v int", "e": "v int", "u": "k str, w int"}
KV_ROWS = (
    "INSERT INTO t VALUES ('a', 1), ('a', 2), ('b', 5), (NULL, 7), "
    "('c', NULL); "
    "INSERT INTO u VALUES ('a', 10), ('b', 20), ('z', 30)"
)


def kv_engine():
    """Tables t(k, v) with NULLs, an empty e(v), and a lookup u(k, w)."""
    engine = Engine()
    for name, spec in KV_TABLES.items():
        engine.create_table(name, spec)
    engine.query(KV_ROWS)
    return engine


TABLE_QUERIES = [
    "SELECT k, v FROM t",
    "SELECT * FROM t",
    "SELECT k FROM t WHERE v > 1",
    "SELECT k FROM t WHERE v IS NULL OR k IS NULL",
    "SELECT k, sum(v) AS s, count(*) AS n FROM t GROUP BY k",
    "SELECT k, count(v) AS n FROM t GROUP BY k HAVING count(*) > 1",
    "SELECT sum(v) AS s FROM t HAVING sum(v) > 100",
    "SELECT sum(v) AS s FROM t HAVING sum(v) > 10",
    "SELECT count(*) AS n, sum(v) AS s FROM e",
    "SELECT count(*) AS n FROM e HAVING count(*) > 0",
    "SELECT v, count(*) AS n FROM e",
    "SELECT k, count(*) AS n FROM e GROUP BY v",
    "SELECT t.k, t.v, u.w FROM t, u WHERE t.k = u.k",
    "SELECT k, v FROM t AS x WHERE NOT EXISTS "
    "(SELECT * FROM u WHERE u.k = x.k)",
]


class TestQueryAgreesWithSnapshot:
    """A table-only SELECT gives the same rows through query() and
    snapshot(): both run one evaluator, and it agrees with the oracle."""

    @pytest.mark.parametrize("text", TABLE_QUERIES)
    def test_same_rows(self, text):
        engine = kv_engine()
        rows = engine.query(text).rows()
        assert rows == engine.snapshot(text)
        (expected,) = run_program(f"{KV_ROWS}; {text}", {}, KV_TABLES, [])
        assert [tuple(row.values()) for row in rows] == [
            values for values, _ts in expected
        ]

    def test_group_by_query(self):
        engine = Engine()
        engine.query(
            "CREATE TABLE t(k str, v int); "
            "INSERT INTO t VALUES ('a', 1), ('a', 2), ('b', 5)"
        )
        text = "SELECT k, SUM(v) AS s FROM t GROUP BY k"
        expected = [{"k": "a", "s": 3}, {"k": "b", "s": 5}]
        assert engine.query(text).rows() == expected
        assert engine.snapshot(text) == expected

    def test_having_without_group_by(self):
        engine = Engine()
        engine.query(
            "CREATE TABLE t(k str, v int); "
            "INSERT INTO t VALUES ('a', 1), ('a', 2), ('b', 5)"
        )
        text = "SELECT SUM(v) AS s FROM t HAVING SUM(v) > 100"
        assert engine.query(text).rows() == []
        assert engine.snapshot(text) == []

    def test_null_group_key_is_one_group(self):
        engine = kv_engine()
        rows = engine.snapshot("SELECT k, count(*) AS n FROM t GROUP BY k")
        assert rows == [
            {"k": "a", "n": 2}, {"k": "b", "n": 1}, {"k": None, "n": 1},
            {"k": "c", "n": 1},
        ]

    def test_empty_input_aggregate_row(self):
        engine = kv_engine()
        assert engine.snapshot("SELECT count(*) AS n, sum(v) AS s FROM e") == [
            {"n": 0, "s": None}
        ]
        assert engine.snapshot("SELECT k, count(*) AS n FROM e GROUP BY v") == []

    def test_snapshot_joins_two_stream_histories(self, engine):
        engine.create_stream("a", "tag str, x int")
        engine.create_stream("b", "tag str, y int")
        engine.enable_history("a")
        engine.enable_history("b")
        engine.push("a", {"tag": "t1", "x": 1}, ts=1.0)
        engine.push("b", {"tag": "t1", "y": 2}, ts=2.0)
        engine.push("b", {"tag": "t2", "y": 3}, ts=3.0)
        rows = engine.snapshot(
            "SELECT a.tag, a.x, b.y FROM a, b WHERE a.tag = b.tag"
        )
        assert rows == [{"tag": "t1", "x": 1, "y": 2}]
