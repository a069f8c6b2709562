"""Shared multi-query execution: registry routing, dedup, lifecycle.

Every differential here compares a registered query's answer stream —
``(values, ts)`` per tuple, in order — against an independent single
:class:`~repro.dsms.Engine` running the same text over the same trace.
Shared execution (predicate-indexed routing, sub-plan dedup, per-plan
fan-out) must be byte-identical to that reference.
"""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.planner import describe_registry
from repro.dsms import (
    Engine,
    EslRuntimeError,
    EslSemanticError,
    MultiQueryEngine,
    QueryRegistry,
    uda_from_callables,
)
from repro.dsms.expressions import AdmissionConstraint
from repro.dsms.registry import StreamRouter, _FieldIndex
from repro.dsms.tuples import Tuple

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
    # Range gates on the stabbing index: a one-point interval, int
    # endpoints on the float field (ties at 2 == 2.0), an open end.
    ("SELECT tag_id FROM readings WHERE read_time BETWEEN 3.0 AND 3.0", "indexed"),
    (
        "SELECT tag_id, read_time FROM readings "
        "WHERE read_time >= 2 AND read_time < 5",
        "indexed",
    ),
    ("SELECT read_time FROM readings WHERE read_time > 5.0", "indexed"),
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
        # So does a literal variant: its literal only joins the router.
        mq.register(SHAPES[0][0].replace("'tA'", "'tZ'"))
        assert calls == {
            "parse_program": len(SHAPES) + 2, "analyze": len(SHAPES),
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


def _registered_run(texts, rows=TRACE, schema=READINGS):
    """Answers per text of one MultiQueryEngine holding all *texts*, and
    that engine (still open)."""
    mq = MultiQueryEngine()
    mq.create_stream("readings", schema)
    subs = [mq.register(text) for text in texts]
    _feed(mq, rows)
    return [_answers(sub) for sub in subs], mq


class TestParameterizedPlans:
    """Registrations that differ only in the routed ``column = literal``
    share one compiled plan; each literal keeps its own fan-out."""

    TAG = "SELECT reader_id, tag_id FROM readings WHERE tag_id = '{}'"

    def test_literals_share_one_plan_and_match_single_engines(self):
        texts = [self.TAG.format(tag) for tag in ("tA", "tB", "tC", "tZ")]
        got, mq = _registered_run(texts)
        for text, answers in zip(texts, got):
            assert answers == _single_run(text), text
        assert got[0]  # the gated column is in the SELECT list
        assert mq.stats()["shared_plans"] == 1
        (plan,) = mq.registry.plans()
        assert plan.text == self.TAG.format("?").replace("'?'", "?")
        assert "fan-out x4 over 4 keys" in describe_registry(mq).render()
        mq.close()

    def test_two_subscribers_on_one_literal(self):
        text = self.TAG.format("tA")
        mq = _shared()
        a, b = mq.register(text), mq.register(text)
        other = mq.register(self.TAG.format("tB"))
        assert a.entry is b.entry is not other.entry
        _feed(mq, TRACE[:4])
        a.cancel()
        _feed(mq, TRACE[4:])
        reference = _single_run(text)
        assert _answers(b) == reference
        assert _answers(a) == [row for row in reference if row[1] < 4.0]
        assert _answers(other) == _single_run(self.TAG.format("tB"))
        mq.close()

    def test_int_literal_on_an_any_field(self):
        # 1, 1.0 and True equal the int literal 1 under both the plan's
        # `=` and the index's hash lookup; '1' and [1] equal neither.
        schema = "k any, v float"
        texts = [f"SELECT k, v FROM readings WHERE k = {n}" for n in (1, 2)]
        rows = [1, 1.0, True, "1", None, 2, [1], 2.0, False]

        def feed(engine):
            for ts, k in enumerate(rows):
                engine.push("readings", {"k": k, "v": float(ts)}, float(ts))

        mq = MultiQueryEngine()
        mq.create_stream("readings", schema)
        subs = [mq.register(text) for text in texts]
        feed(mq)
        shared = [_answers(sub) for sub in subs]
        for text, answers in zip(texts, shared):
            single = Engine()
            single.create_stream("readings", schema)
            handle = single.query(text)
            feed(single)
            assert answers == _answers(handle), text
        assert [len(answers) for answers in shared] == [3, 2]
        assert mq.stats()["shared_plans"] == 1
        mq.close()

    @pytest.mark.parametrize(
        "template,literals,plans",
        [
            # NULL never indexes: its own plan; the two strings share one.
            ("tag_id = {}", ("NULL", "'tA'", "'tC'"), 2),
            # A second indexable conjunct on the gated field (equality,
            # IN, range) keeps per-text plans.
            ("tag_id = {} AND tag_id = 'tB'", ("'tA'", "'tB'"), 2),
            ("tag_id IN ({}, 'tB')", ("'tA'", "'tC'"), 2),
            ("tag_id = {} AND tag_id >= 'tA'", ("'tB'", "'tC'"), 2),
            # A conjunct that names the field but does not index shares.
            ("tag_id = {} AND reader_id <> tag_id", ("'tA'", "'tC'"), 1),
        ],
    )
    def test_gates_the_index_cannot_decide_alone_stay_in_their_plans(
        self, template, literals, plans
    ):
        texts = [
            "SELECT tag_id FROM readings WHERE " + template.format(literal)
            for literal in literals
        ]
        got, mq = _registered_run(texts)
        for text, answers in zip(texts, got):
            assert answers == _single_run(text), text
        assert mq.stats()["shared_plans"] == plans
        mq.close()

    @pytest.mark.parametrize(
        "template",
        [
            "SELECT count(*) AS n FROM readings WHERE tag_id = '{}'",
            "SELECT tag_id, count(*) AS n FROM readings "
            "WHERE tag_id = '{}' GROUP BY tag_id",
            "SELECT S.read_time, E.read_time FROM readings AS S, readings AS E "
            "WHERE SEQ(S, E) OVER [10 SECONDS PRECEDING E] AND S.tag_id = '{}'",
            # The window reads every reading, not only the gated ones.
            "SELECT r1.read_time FROM readings AS r1 WHERE r1.tag_id = '{}' "
            "AND EXISTS (SELECT * FROM TABLE(readings OVER "
            "(RANGE 2 SECONDS PRECEDING CURRENT)) AS r2 "
            "WHERE r2.tag_id <> r1.tag_id)",
        ],
    )
    def test_non_filter_shapes_keep_their_literal(self, template):
        # Nothing but a plain filter emits once per admitted tuple inside
        # the router's delivery; these keep one plan per text.
        texts = [template.format(tag) for tag in ("tA", "tB")]
        got, mq = _registered_run(texts)
        for text, answers in zip(texts, got):
            assert answers == _single_run(text), text
        assert mq.stats()["shared_plans"] == 2
        mq.close()

    def test_a_column_the_stream_lacks_is_not_gated(self):
        # Unrouted, the plan sees every tuple and raises as a single
        # engine does; dropping the conjunct would answer instead.
        mq = _shared()
        mq.register("SELECT tag_id FROM readings WHERE nope = 'x'")
        with pytest.raises(EslRuntimeError, match="unbound column"):
            _feed(mq, TRACE[:1])
        mq.close()

    def test_residual_conjunct_stays_in_the_shared_plan(self):
        template = (
            "SELECT tag_id, read_time FROM readings "
            "WHERE tag_id = '{}' AND read_time > 3.0"
        )
        texts = [template.format(tag) for tag in ("tA", "tB", "tC")]
        got, mq = _registered_run(texts)
        for text, answers in zip(texts, got):
            assert answers == _single_run(text), text
        assert [len(answers) for answers in got] == [1, 1, 2]
        assert mq.stats()["shared_plans"] == 1
        mq.close()

    def test_register_and_cancel_literals_mid_stream(self):
        mq = _shared()
        baseline = mq.engine.streams.get("readings").subscriber_count
        a = mq.register(self.TAG.format("tA"))
        _feed(mq, TRACE[:3])
        b = mq.register(self.TAG.format("tB"))
        c = mq.register(self.TAG.format("tC"))
        a.cancel()
        _feed(mq, TRACE[3:6])
        a2 = mq.register(self.TAG.format("tA"))
        b.cancel()
        _feed(mq, TRACE[6:])

        def window(tag, lo, hi):
            return [
                row for row in _single_run(self.TAG.format(tag))
                if lo <= row[1] < hi
            ]

        assert _answers(a) == window("tA", 0.0, 3.0)
        assert _answers(b) == window("tB", 3.0, 6.0)
        assert _answers(c) == window("tC", 3.0, 99.0)
        assert _answers(a2) == window("tA", 6.0, 99.0)
        (plan,) = mq.registry.plans()
        assert sorted(plan.keys) == ["tA", "tC"]
        for sub in (c, a2):
            sub.cancel()
        assert mq.stats()["shared_plans"] == 0
        assert mq.registry.state_size() == 0
        assert list(mq.registry.routers()) == []
        assert mq.engine.streams.get("readings").subscriber_count == baseline
        mq.close()


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


# ---------------------------------------------------------------------------
# The range stabbing index
# ---------------------------------------------------------------------------

INF = math.inf

#: Endpoints collide often: ints and floats of equal value (1 vs 1.0)
#: and -0.0 vs 0.  Infinities keep the field on the admits scan.
FINITE_ENDPOINTS = st.one_of(
    st.integers(-4, 4),
    st.sampled_from([-2.5, -0.0, 0.5, 1.0, 2.0, 3.5]),
)
ENDPOINTS = st.one_of(FINITE_ENDPOINTS, st.sampled_from([INF, -INF]))


def _ranges(endpoints):
    return st.tuples(
        st.one_of(st.none(), endpoints),  # None: open end
        st.one_of(st.none(), endpoints),
        st.booleans(),
        st.booleans(),
    ).filter(lambda r: r[0] is not None or r[1] is not None)


def _range_constraints(endpoints):
    return st.lists(_ranges(endpoints), min_size=1, max_size=3).map(
        lambda ranges: AdmissionConstraint("x", None, ranges)
    )


EQ_VALUES = st.frozensets(
    st.sampled_from([1, 2.0, -3, "a", "", True]), min_size=1, max_size=3
)
EQ_CONSTRAINTS = EQ_VALUES.map(lambda values: AdmissionConstraint("x", values))
CONSTRAINTS = st.one_of(
    # ranges only: mostly stabbed, scanned when an end is infinite
    _range_constraints(ENDPOINTS),
    # an equality set beside ranges (a SEQ union): always scanned
    st.tuples(EQ_VALUES, st.lists(_ranges(ENDPOINTS), min_size=1, max_size=2)).map(
        lambda pair: AdmissionConstraint("x", pair[0], pair[1])
    ),
    # a non-numeric endpoint: scanned
    st.just(AdmissionConstraint("x", None, (("m", None, True, True),))),
    # equality only: the hash buckets
    EQ_CONSTRAINTS,
)
#: Only constraints the stabbing index holds, so every numeric probe is
#: stabbed rather than scanned.
STABBED_CONSTRAINTS = st.one_of(
    _range_constraints(FINITE_ENDPOINTS), EQ_CONSTRAINTS
)
PROBES = st.one_of(
    ENDPOINTS,
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**30), 10**30),
    st.sampled_from(
        [None, True, False, "a", "", "m", math.nan, 2**53 + 1, 10**400, -(10**400)]
    ),
)


def _operations(constraints):
    return st.lists(
        st.one_of(
            st.tuples(st.just("add"), constraints, st.booleans()),
            st.tuples(st.just("remove"), st.integers(0, 50)),
            st.tuples(st.just("probe"), PROBES),
        ),
        min_size=1,
        max_size=40,
    )


def _router():
    engine = Engine()
    engine.create_stream("s", "x float")
    stream = engine.streams.get("s")
    return StreamRouter(stream), stream.schema


class TestRangeStabbingIndex:
    """The router delivers a value to an entry exactly when the entry's
    ``constraint.admits`` would (a NULL: when the entry is lenient), at
    most once, and in registration order within the range entries."""

    @settings(max_examples=300, deadline=None)
    @given(_operations(CONSTRAINTS))
    def test_routing_is_exact_through_register_and_cancel(self, operations):
        self._check(operations)

    @settings(max_examples=300, deadline=None)
    @given(_operations(STABBED_CONSTRAINTS))
    def test_stabbed_routing_is_exact(self, operations):
        self._check(operations)

    @staticmethod
    def _check(operations):
        router, schema = _router()
        live, log, ids = [], [], itertools.count()
        for op in operations:
            if op[0] == "add":
                _kind, constraint, lenient = op
                number = next(ids)
                entry = router.add(
                    None, [lambda tup, e=number: log.append(e)], constraint, lenient
                )
                live.append((number, entry))
                continue
            if op[0] == "remove":
                if live:
                    _number, entry = live.pop(op[1] % len(live))
                    router.remove(entry)
                continue
            # Probe the drawn value and every live endpoint and key.
            ranged = {n for n, entry in live if entry.constraint.ranges}
            probes = [op[1]]
            for _number, entry in live:
                probes.extend(entry.constraint.values or ())
                for lo, hi, _lo_incl, _hi_incl in entry.constraint.ranges:
                    probes += [lo, hi]
            for value in probes:
                start = len(log)
                router(Tuple.trusted(schema, (value,), 0.0))
                got = log[start:]
                want = {
                    number
                    for number, entry in live
                    if (entry.lenient if value is None else entry.constraint.admits(value))
                }
                assert len(got) == len(set(got)), (value, got)
                assert set(got) == want, value
                in_ranges = [n for n in got if n in ranged]
                assert in_ranges == sorted(in_ranges), value
            assert router.delivered == len(log)

    def test_slots_rebuild_lazily_and_once(self, monkeypatch):
        rebuilds = []
        real = _FieldIndex.rebuild
        monkeypatch.setattr(
            _FieldIndex, "rebuild", lambda self: rebuilds.append(1) or real(self)
        )
        router, schema = _router()
        for i in range(40):
            router.add(
                None, [], AdmissionConstraint("x", None, ((i, i + 2.5, True, False),)),
                False,
            )
        assert rebuilds == []  # registration never sorts
        for value in (0.0, 1.5, 39.0):
            router(Tuple.trusted(schema, (value,), 0.0))
        assert len(rebuilds) == 1
        index = router._fields["x"]
        assert len(index.points) - 1 == 80  # 40 ints + 40 distinct x.5 ends

    def test_equality_churn_never_touches_the_slots(self):
        router, schema = _router()
        router.add(None, [], AdmissionConstraint("x", None, ((1, 2, True, True),)), False)
        router(Tuple.trusted(schema, (1.5,), 0.0))
        index = router._fields["x"]
        built = index.points
        entry = router.add(None, [], AdmissionConstraint("x", frozenset({7.0})), False)
        router(Tuple.trusted(schema, (7.0,), 0.0))
        router.remove(entry)
        router(Tuple.trusted(schema, (7.0,), 0.0))
        assert index.points is built

    def test_numeric_values_skip_admits(self, monkeypatch):
        router, schema = _router()
        delivered = []
        for lo in (0, 2.5, 5):
            router.add(
                None, [lambda tup, lo=lo: delivered.append(lo)],
                AdmissionConstraint("x", None, ((lo, None, True, True),)), False,
            )

        def refuse(self, value):
            raise AssertionError("admits called on the numeric fast path")

        monkeypatch.setattr(AdmissionConstraint, "admits", refuse)
        for value in (-1, 0, 2.5, 4, 5.0, 1e300, INF):
            router(Tuple.trusted(schema, (value,), 0.0))
        assert delivered == [0, 0, 2.5, 0, 2.5, 0, 2.5, 5, 0, 2.5, 5, 0, 2.5, 5]
        assert router.describe()["fields"][0]["range_fallbacks"] == 0


class TestRangeGatesEndToEnd:
    def test_union_of_equality_and_range_stays_on_the_scan(self):
        # The stream gate unions S's equality set with E's range, so the
        # field is not stabbed: every numeric tuple takes admits().
        text = (
            "SELECT S.read_time, E.read_time FROM readings AS S, readings AS E "
            "WHERE SEQ(S, E) OVER [10 SECONDS PRECEDING E] "
            "AND S.read_time = 1.0 AND E.read_time > 4.0"
        )
        mq = _shared()
        sub = mq.register(text)
        _feed(mq)
        assert _answers(sub) == _single_run(text)
        (router,) = mq.registry.routers()
        info = router.describe()
        (field,) = info["fields"]
        assert field["range_entries"] == 1
        assert field["range_points"] == 0
        assert field["range_fallbacks"] == len(TRACE)
        assert info["delivered"] == 4  # read_time 1.0, 5.0, 6.0 and 7.0
        mq.close()

    def test_register_and_cancel_ranges_between_batches(self):
        first = "SELECT tag_id, read_time FROM readings WHERE read_time >= 1.0 AND read_time < 4.0"
        second = "SELECT tag_id FROM readings WHERE read_time > 2"
        third = "SELECT read_time FROM readings WHERE read_time BETWEEN 5.0 AND 5.0"
        mq = _shared()
        a = mq.register(first)
        _feed(mq, TRACE[:3])

        def points():
            (router,) = mq.registry.routers()
            return router.describe()["fields"][0]["range_points"]

        assert points() == 2
        b = mq.register(second)
        _feed(mq, TRACE[3:5])
        assert points() == 3
        a.cancel()
        c = mq.register(third)
        _feed(mq, TRACE[5:])
        assert points() == 2
        assert _answers(a) == [row for row in _single_run(first) if row[1] < 5.0]
        assert _answers(b) == [row for row in _single_run(second) if row[1] >= 3.0]
        assert _answers(c) == [row for row in _single_run(third) if row[1] >= 5.0]
        assert _answers(c)
        mq.close()

    def test_unhashable_value_on_an_indexed_field(self):
        # The index compares it with each key, as the plan's `=` would.
        class Holds(list):  # unhashable; equal to what it holds
            def __eq__(self, other):
                return other in self

        text = "SELECT v FROM s WHERE k = 'a'"
        shared, single = MultiQueryEngine(), Engine()
        for engine in (shared, single):
            engine.create_stream("s", "k any, v float")
        sub, handle = shared.register(text), single.query(text)
        for engine in (shared, single):
            for ts, k in enumerate(["a", [1], Holds(["a"]), "a"]):
                engine.push("s", {"k": k, "v": float(ts)}, float(ts))
        assert _answers(sub) == _answers(handle)
        assert [ts for _values, ts in _answers(sub)] == [0.0, 2.0, 3.0]
        (router,) = shared.registry.routers()
        assert router.describe()["fields"][0]["range_fallbacks"] == 2
        shared.close()

    def test_describe_registry_prints_range_counters(self):
        mq = _shared()
        mq.register("SELECT tag_id FROM readings WHERE read_time > 2.0")
        _feed(mq)
        rendered = describe_registry(mq).render()
        assert "ranges=1, range_points=1, range_fallbacks=0" in rendered
        assert set(mq.stats()) == {
            "subscriptions", "shared_plans", "streams_routed",
            "indexed_entries", "residual_entries", "tuples_routed",
            "deliveries", "state_size",
        }
        mq.close()
