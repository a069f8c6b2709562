"""Shared multi-query execution: registry routing, dedup, lifecycle.

Every differential here compares a registered query's answer stream —
``(values, ts)`` per tuple, in order — against an independent single
:class:`~repro.dsms.Engine` running the same text over the same trace.
Shared execution (predicate-indexed routing, sub-plan dedup, per-plan
fan-out) must be byte-identical to that reference.
"""

import pytest

from repro.core.planner import describe_registry
from repro.dsms import (
    Engine,
    EslSemanticError,
    MultiQueryEngine,
    QueryRegistry,
    uda_from_callables,
)

pytestmark = pytest.mark.multiquery

READINGS = "reader_id str, tag_id str, read_time float"

TRACE = [
    ("r0", "tA", 0.0),
    ("r1", "tB", 1.0),
    ("r0", None, 2.0),
    ("r2", "tA", 3.0),
    ("r1", "tC", 4.0),
    ("r0", "tB", 5.0),
    (None, "tA", 6.0),
    ("r2", "tC", 7.0),
]


def _feed(target, rows=TRACE, offset=0.0):
    for reader, tag, ts in rows:
        target.push(
            "readings",
            {"reader_id": reader, "tag_id": tag, "read_time": ts + offset},
            ts + offset,
        )
    target.flush()


def _answers(sub_or_handle):
    return [(tup.values, tup.ts) for tup in sub_or_handle.results]


def _single_run(text, rows=TRACE, offset=0.0, **flags):
    engine = Engine(**flags)
    engine.create_stream("readings", READINGS)
    handle = engine.query(text)
    _feed(engine, rows, offset)
    return _answers(handle)


def _shared(**flags):
    mq = MultiQueryEngine(**flags)
    mq.create_stream("readings", READINGS)
    return mq


SHAPES = [
    # (query text, routing expectation) — each exercised shared vs
    # single-engine.  Routing expectation is asserted via stats().
    ("SELECT reader_id, tag_id FROM readings WHERE tag_id = 'tA'", "indexed"),
    ("SELECT tag_id FROM readings WHERE read_time > 3.0", "indexed"),
    (
        "SELECT reader_id FROM readings "
        "WHERE tag_id IN ('tA', 'tB') AND read_time < 6.0",
        "indexed",
    ),
    # Two range conjuncts on one field: the only shape that reaches
    # AdmissionConstraint.intersect's interval merge.
    (
        "SELECT tag_id FROM readings "
        "WHERE read_time >= 2.0 AND read_time < 6.0",
        "indexed",
    ),
    ("SELECT tag_id FROM readings WHERE reader_id = tag_id", "residual"),
    # Every expression node kind in one filter: the gate reads each
    # node's column references.
    (
        "SELECT tag_id FROM readings WHERE read_time BETWEEN 1.0 AND 6.0 "
        "AND reader_id IS NOT NULL AND NOT (tag_id = 'tC') "
        "AND (tag_id = 'tA' OR -read_time < -4.5) AND lower(tag_id) <> 'x' "
        "AND CASE WHEN read_time > 2.0 THEN 1 ELSE 0 END = 1",
        "indexed",
    ),
    (
        "SELECT S.tag_id, E.read_time FROM readings AS S, readings AS E "
        "WHERE SEQ(S, E) OVER [10 SECONDS PRECEDING E] "
        "AND S.tag_id = E.tag_id",
        "residual",
    ),
    (
        "SELECT S.tag_id, E.read_time FROM readings AS S, readings AS E "
        "WHERE SEQ(S, E) MODE CONSECUTIVE OVER [10 SECONDS PRECEDING E] "
        "AND S.tag_id = E.tag_id",
        "residual",  # CONSECUTIVE runs break on interlopers: never gated
    ),
]


class TestSharedMatchesSingleEngine:
    @pytest.mark.parametrize("text,routing", SHAPES)
    def test_shared_byte_identical(self, text, routing):
        mq = _shared()
        sub = mq.register(text)
        _feed(mq)
        assert _answers(sub) == _single_run(text)
        stats = mq.stats()
        if routing == "indexed":
            assert stats["indexed_entries"] >= 1
        else:
            assert stats["indexed_entries"] == 0
        mq.close()

    def test_all_shapes_concurrently(self):
        mq = _shared()
        subs = [mq.register(text) for text, _ in SHAPES]
        _feed(mq)
        for (text, _), sub in zip(SHAPES, subs):
            assert _answers(sub) == _single_run(text), text
        mq.close()

    def test_null_values_route_exactly(self):
        # Strict filter: NULL tag_id fails '=' and is gated away; lenient
        # SEQ admission: NULL passes.  Both must match the single engine.
        eq = "SELECT read_time FROM readings WHERE tag_id = 'tA'"
        seq = (
            "SELECT S.read_time, E.read_time FROM readings AS S, "
            "readings AS E WHERE SEQ(S, E) OVER [10 SECONDS PRECEDING E] "
            "AND S.reader_id = 'r0' AND E.reader_id = 'r2'"
        )
        mq = _shared()
        sub_eq, sub_seq = mq.register(eq), mq.register(seq)
        _feed(mq)
        assert _answers(sub_eq) == _single_run(eq)
        assert _answers(sub_seq) == _single_run(seq)
        mq.close()


class TestRuntimeRegisterCancel:
    def test_register_mid_trace_sees_only_subsequent_matches(self):
        text = "SELECT read_time FROM readings WHERE tag_id = 'tA'"
        mq = _shared()
        early = mq.register(text)
        _feed(mq, TRACE[:4])
        late = mq.register(text)
        _feed(mq, TRACE[4:])
        assert _answers(early) == _single_run(text)
        # tA at ts 0.0 and 3.0 predate the late registration.
        assert _answers(late) == [
            row for row in _single_run(text) if row[1] > 3.0
        ]
        mq.close()

    def test_cancel_mid_trace_keeps_emitted_answers(self):
        text = "SELECT read_time FROM readings WHERE tag_id = 'tA'"
        mq = _shared()
        sub = mq.register(text)
        keeper = mq.register("SELECT read_time FROM readings WHERE tag_id = 'tB'")
        _feed(mq, TRACE[:4])
        seen = _answers(sub)
        assert seen  # tA matched twice already
        sub.cancel()
        _feed(mq, TRACE[4:])
        assert _answers(sub) == seen  # nothing dropped, nothing added
        assert _answers(keeper) == _single_run(
            "SELECT read_time FROM readings WHERE tag_id = 'tB'"
        )
        mq.close()

    def test_cancel_frees_all_per_query_state(self):
        seq = (
            "SELECT S.tag_id FROM readings AS S, readings AS E "
            "WHERE SEQ(S, E) OVER [100 SECONDS PRECEDING E] "
            "AND S.tag_id = E.tag_id"
        )
        mq = _shared()
        baseline_subs = mq.engine.streams.get("readings").subscriber_count
        assert mq.registry.state_size() == 0
        subs = [mq.register(seq) for _ in range(3)]
        subs.append(mq.register("SELECT tag_id FROM readings WHERE tag_id = 'tA'"))
        _feed(mq)
        assert mq.registry.state_size() > 0  # SEQ held tuples
        for sub in subs:
            sub.cancel()
        assert mq.registry.state_size() == 0
        assert (
            mq.engine.streams.get("readings").subscriber_count
            == baseline_subs
        )
        assert mq.stats()["shared_plans"] == 0
        assert list(mq.registry.routers()) == []
        mq.close()

    def test_answers_on_callback_sink(self):
        got = []
        mq = _shared()
        mq.register(
            "SELECT read_time FROM readings WHERE tag_id = 'tA'",
            on_answer=got.append,
        )
        _feed(mq)
        assert [(tup.values, tup.ts) for tup in got] == _single_run(
            "SELECT read_time FROM readings WHERE tag_id = 'tA'"
        )
        mq.close()


class TestSubPlanDedup:
    def test_identical_queries_share_one_plan(self):
        text = (
            "SELECT S.tag_id, E.read_time FROM readings AS S, "
            "readings AS E WHERE SEQ(S, E) OVER [10 SECONDS PRECEDING E] "
            "AND S.tag_id = E.tag_id"
        )
        n = 5
        mq = _shared()
        subs = [mq.register(text) for _ in range(n)]
        assert mq.stats()["shared_plans"] == 1
        assert mq.stats()["subscriptions"] == n
        _feed(mq)
        reference = _single_run(text)
        assert reference
        for sub in subs:
            assert _answers(sub) == reference
        mq.close()

    def test_register_parses_and_analyzes_once_per_new_plan(self, monkeypatch):
        from repro.core.language import analyzer, compiler, parser

        calls = {"parse_program": 0, "analyze": 0}

        def count(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        # Every name the registry and the compiler reach the two through.
        for module in (parser, compiler):
            count(module, "parse_program")
        for module in (analyzer, compiler):
            count(module, "analyze")

        mq = _shared()
        for index, (text, _) in enumerate(SHAPES, start=1):
            mq.register(text)
            assert calls == {"parse_program": index, "analyze": index}, text
        # A twin shares the plan: parsed for its fingerprint, not compiled.
        mq.register(SHAPES[0][0])
        assert calls == {
            "parse_program": len(SHAPES) + 1, "analyze": len(SHAPES),
        }
        mq.close()

    def test_cancel_one_twin_keeps_the_other_flowing(self):
        text = "SELECT read_time FROM readings WHERE tag_id = 'tA'"
        mq = _shared()
        a, b = mq.register(text), mq.register(text)
        _feed(mq, TRACE[:4])
        a.cancel()
        assert mq.stats()["shared_plans"] == 1  # b still owns the plan
        _feed(mq, TRACE[4:])
        assert _answers(b) == _single_run(text)
        assert len(a.results) < len(b.results)
        mq.close()

    def test_case_variant_select_aliases_do_not_dedupe(self):
        # Output schema names are case-preserving, so these are distinct.
        mq = _shared()
        lower = mq.register(
            "SELECT tag_id AS t FROM readings WHERE tag_id = 'tA'"
        )
        upper = mq.register(
            "SELECT tag_id AS T FROM readings WHERE tag_id = 'tA'"
        )
        assert mq.stats()["shared_plans"] == 2
        _feed(mq)
        assert lower.results[0].schema.names != upper.results[0].schema.names
        mq.close()

    def test_whitespace_variants_share_via_structure(self):
        mq = _shared()
        a = mq.register("SELECT tag_id FROM readings WHERE tag_id = 'tA'")
        b = mq.register(
            "SELECT  tag_id\nFROM readings\nWHERE  tag_id = 'tA'"
        )
        assert mq.stats()["shared_plans"] == 1
        mq.close()
        assert not a.active and not b.active


class TestIdempotentTeardown:
    def test_double_cancel_is_noop(self):
        mq = _shared()
        sub = mq.register("SELECT tag_id FROM readings WHERE tag_id = 'tA'")
        sub.cancel()
        sub.cancel()
        mq.cancel(sub)
        assert not sub.active
        mq.close()

    def test_close_with_live_subscribers(self):
        mq = _shared()
        subs = [
            mq.register("SELECT tag_id FROM readings WHERE tag_id = 'tA'"),
            mq.register("SELECT tag_id FROM readings WHERE read_time > 1.0"),
        ]
        mq.close()
        mq.close()
        for sub in subs:
            assert not sub.active
            sub.cancel()  # cancel after close: still a no-op
        assert mq.state_size() == 0

    def test_register_after_close_raises(self):
        mq = _shared()
        mq.close()
        with pytest.raises(EslSemanticError):
            mq.register("SELECT tag_id FROM readings WHERE tag_id = 'tA'")

    def test_registry_context_manager(self):
        engine = Engine()
        engine.create_stream("readings", READINGS)
        with QueryRegistry(engine) as registry:
            registry.register("SELECT tag_id FROM readings WHERE tag_id = 'tA'")
        assert registry.closed
        assert engine.streams.get("readings").subscriber_count == 0

    def test_engine_context_manager_closes(self):
        with _shared() as mq:
            sub = mq.register("SELECT tag_id FROM readings WHERE tag_id = 'tA'")
            assert mq.subscription_count == 1
        assert mq.closed and not sub.active
        assert mq.subscription_count == 0


class TestValidation:
    def test_ddl_text_rejected(self):
        mq = _shared()
        with pytest.raises(EslSemanticError):
            mq.register("CREATE STREAM other (x int)")
        mq.close()

    def test_insert_into_rejected(self):
        mq = _shared()
        mq.engine.create_stream("out", "tag_id str")
        with pytest.raises(EslSemanticError):
            mq.register(
                "INSERT INTO out SELECT tag_id FROM readings "
                "WHERE tag_id = 'tA'"
            )
        mq.close()

    def test_table_only_select_rejected(self):
        # It answers once, at compile time, before any subscriber could
        # attach: registering it used to yield a silently empty answer.
        mq = _shared()
        mq.create_table("staff", "badge str, ward str")
        mq.ddl("INSERT INTO staff VALUES ('b-1', 'icu')")
        with pytest.raises(EslSemanticError, match="Engine.query"):
            mq.register("SELECT ward FROM staff")
        assert mq.engine.query("SELECT ward FROM staff").rows() == [
            {"ward": "icu"}
        ]
        mq.close()

    def test_unknown_stream_rejected_and_leaves_no_state(self):
        mq = _shared()
        with pytest.raises(Exception):
            mq.register("SELECT x FROM nowhere WHERE x = 1")
        assert mq.stats()["shared_plans"] == 0
        mq.close()


class TestColumnarIngestion:
    def test_push_columns_matches_per_row(self):
        from repro.dsms import Schema
        from repro.dsms.columns import ColumnBatch

        schema = Schema.parse(READINGS)
        readers = [row[0] for row in TRACE]
        tags = [row[1] for row in TRACE]
        times = [row[2] for row in TRACE]
        batch = ColumnBatch(schema, [readers, tags, times], times)

        texts = [text for text, _ in SHAPES[:4]]
        columnar = _shared()
        subs_col = [columnar.register(text) for text in texts]
        columnar.push_columns("readings", batch)
        columnar.flush()

        scalar = _shared()
        subs_row = [scalar.register(text) for text in texts]
        _feed(scalar)

        for text, col, row in zip(texts, subs_col, subs_row):
            assert _answers(col) == _answers(row) == _single_run(text), text
        columnar.close()
        scalar.close()


class TestCatalog:
    def test_ddl_after_registration_reaches_later_queries(self):
        mq = _shared()
        mq.register_udf("double_it", lambda x: x * 2)
        sub = mq.register(
            "SELECT double_it(read_time) FROM readings WHERE tag_id = 'tA'"
        )
        mq.create_stream("other", "x int")  # DDL after a registration
        sub2 = mq.register("SELECT x FROM other WHERE x > 1")
        _feed(mq)
        mq.push("other", {"x": 5}, 100.0)
        mq.flush()
        assert len(sub.results) == 3
        assert [tup.values for tup in sub2.results] == [(5,)]
        mq.close()

    def test_registered_uda_answers_like_a_single_engine(self):
        text = "SELECT tag_id, total(read_time) AS s FROM readings GROUP BY tag_id"

        def total():
            return uda_from_callables(
                "total", lambda: 0, lambda state, value: state + value,
                lambda state: state,
            )

        mq = _shared()
        mq.register_uda("total", total())
        sub = mq.register(text)
        _feed(mq)
        engine = Engine()
        engine.create_stream("readings", READINGS)
        engine.register_uda("total", total())
        handle = engine.query(text)
        _feed(engine)
        assert sub.rows() == handle.rows()
        assert sub.rows()[-1] == {"tag_id": "tC", "s": 11.0}
        mq.close()


class TestPlannerDescription:
    def test_describe_registry_renders_routers_and_fanout(self):
        mq = _shared()
        text = "SELECT tag_id FROM readings WHERE tag_id = 'tA'"
        mq.register(text)
        mq.register(text)
        mq.register("SELECT tag_id FROM readings WHERE reader_id = tag_id")
        rendered = describe_registry(mq).render()
        assert "MultiQuery" in rendered
        assert "3 subscriptions over 2 shared plans" in rendered
        assert "StreamRouter" in rendered
        assert "PredicateIndex" in rendered
        assert "ResidualScan" in rendered
        assert "fan-out x2" in rendered
        mq.close()


class TestBatchIngestion:
    def test_push_batch_matches_per_row(self):
        text = "SELECT reader_id, tag_id FROM readings WHERE tag_id = 'tA'"
        mq = _shared()
        sub = mq.register(text)
        batch = [
            ({"reader_id": reader, "tag_id": tag, "read_time": ts}, ts)
            for reader, tag, ts in TRACE
        ]
        assert mq.push_batch("readings", batch) == len(TRACE)
        mq.flush()
        assert _answers(sub) == _single_run(text)
        mq.close()
