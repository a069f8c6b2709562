"""Bare columns in single-source plans read their binding by position.

With one FROM source and no EXISTS sub-query, a bare column can only mean
that source, so it compiles to the positional read a qualified column
gets.  A binding that is not a tuple of the compiled schema takes the
named search, with its results and errors; every other plan keeps the
dynamic search over all bindings.
"""

import random

import pytest

from repro.core.language import parse_program
from repro.core.language.analyzer import analyze
from repro.core.language.compiler import _compile_ctx
from repro.dsms import Engine, EslRuntimeError, Schema
from repro.dsms.expressions import Column, CompileContext, Env
from repro.dsms.tuples import Tuple

from tests.oracle import engines, generate

STREAMS = {"s": "k int, v float, tag str"}


def _case(statement, seed):
    rng = random.Random(seed)
    return generate.Case(STREAMS, [statement], generate.trace(rng, STREAMS, n=30))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("statement", [
    "SELECT tag, v * 2, k FROM s WHERE v > 0.5 AND tag <> 'a'",
    "SELECT k, tag FROM s WHERE k IS NULL OR k < 2",
    "SELECT s.tag, v FROM s WHERE tag LIKE 'a%' AND s.v IS NOT NULL",
])
def test_single_source_filter_matches_oracle(statement, seed):
    engines.check(_case(statement, seed))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("statement", [
    "SELECT tag, count(*), sum(v) FROM s WHERE k < 2 GROUP BY tag",
    "SELECT tag, max(v) FROM s GROUP BY tag HAVING count(*) > 1",
    "SELECT count(v), min(k) FROM TABLE(s OVER (RANGE 2 SECONDS PRECEDING CURRENT)) AS w "
    "WHERE v IS NOT NULL",
])
def test_single_source_aggregate_matches_oracle(statement, seed):
    engines.check(_case(statement, seed))


SCHEMA = Schema.parse("k int, v float")


def _lowered(field="v"):
    return Column(field).compile(CompileContext({}, {"s": SCHEMA}, bare="S"))


def _dynamic(field="v"):
    return Column(field).compile(CompileContext({}, {"s": SCHEMA}))


class TestLowering:
    def test_reads_the_compiled_schema_by_position(self):
        fn = _lowered()
        assert fn.__name__ == "positional"
        assert fn(Env({"s": Tuple(SCHEMA, (1, 2.5), 0.0)})) == 2.5

    def test_another_schema_takes_the_named_lookup(self):
        # Same field names, another Schema object in another order.
        other = Schema.parse("v float, k int")
        env = Env({"s": Tuple(other, (2.5, 1), 0.0)})
        assert _lowered()(env) == _dynamic()(env) == 2.5
        assert _lowered("k")(env) == _dynamic("k")(env) == 1

    def test_another_alias_takes_the_named_lookup(self):
        env = Env({"x": Tuple(SCHEMA, (1, 2.5), 0.0)})
        assert _lowered()(env) == _dynamic()(env) == 2.5

    @pytest.mark.parametrize("bindings", [{}, {"s": []}])
    def test_unbound_column_raises_as_before(self, bindings):
        # No binding at all, or a star-run list in the alias's place.
        with pytest.raises(EslRuntimeError) as lowered:
            _lowered()(Env(dict(bindings)))
        with pytest.raises(EslRuntimeError) as dynamic:
            _dynamic()(Env(dict(bindings)))
        assert str(lowered.value) == str(dynamic.value) == "unbound column 'v'"

    def test_field_outside_the_schema_stays_dynamic(self):
        assert _lowered("missing").__name__ == "dynamic"


def _plan_ctx(text):
    engine = Engine()
    engine.create_stream("s", "k int, v float, tag str")
    engine.create_stream("t", "k int, w float")
    engine.create_table("tab", "k int, note str")
    (statement,) = parse_program(text)
    return _compile_ctx(engine, analyze(statement, engine))


@pytest.mark.parametrize("text,field,name", [
    ("SELECT v FROM s WHERE tag = 'a'", "v", "positional"),
    ("SELECT count(*) FROM s GROUP BY tag", "tag", "positional"),
    ("SELECT note FROM tab WHERE k > 1", "note", "positional"),
    ("SELECT s.v FROM s, tab WHERE s.k = tab.k", "v", "dynamic"),
    (
        "SELECT v FROM s WHERE NOT EXISTS (SELECT * FROM tab WHERE tab.k = s.k)",
        "v",
        "dynamic",
    ),
    ("SELECT a.v FROM s AS a, t AS b WHERE SEQ(a, b) AND a.k = b.k", "v", "dynamic"),
])
def test_only_single_source_plans_without_exists_lower(text, field, name):
    assert Column(field).compile(_plan_ctx(text)).__name__ == name
