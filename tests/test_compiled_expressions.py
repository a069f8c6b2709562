"""Differential tests: ``Expression.compile()`` closures vs. the oracle.

The compiled closures must agree with the oracle's independent scalar
evaluator (``tests/oracle/filter.py``) — same values, same SQL
three-valued logic around NULL, an error exactly where it raises one.
These tests run the *same* expression through both over a grid of
environments (including NULL-heavy ones), with and without schema
knowledge, plus a seeded random-expression sweep that acts as a
lightweight property test.
"""

from __future__ import annotations

import random

import pytest

from repro.core.language.parser import parse_expression
from repro.dsms.errors import EslRuntimeError
from repro.dsms.expressions import (
    And,
    Between,
    BinaryOp,
    Case,
    Column,
    CompileContext,
    Env,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Negate,
    Not,
    Or,
    _ConstFn,
)
from repro.dsms.functions import default_functions
from repro.dsms.schema import Schema
from repro.dsms.tuples import Tuple

from .oracle.filter import Scope, value

SCHEMA = Schema.parse("tagid str, serial int, tagtime float")
FUNCTIONS = default_functions()

# Positional lowering on; positional lowering off (no schema knowledge).
CTX_SCHEMA = CompileContext(FUNCTIONS, {"r": SCHEMA})
CTX_BARE = CompileContext(FUNCTIONS)


def make_env(tagid="20.1.5001", serial=5001, tagtime=3.0):
    tup = Tuple(SCHEMA, [tagid, serial, tagtime], tagtime if tagtime is not None else 0.0)
    return Env({"r": tup}, FUNCTIONS)


def oracle_fn(expr):
    """The oracle's evaluator for *expr*, over the same environments."""

    def evaluate(env):
        row = env.bindings["r"]
        return value(expr, Scope({"r": dict(zip(SCHEMA.names, row.values))}))

    return evaluate


# A grid of environments covering present values, NULL fields, and
# boundary numbers.
ENVIRONMENTS = [
    make_env(),
    make_env(tagid=None),
    make_env(serial=None),
    make_env(tagid=None, serial=None),
    make_env(tagid="", serial=0, tagtime=0.0),
    make_env(tagid="20.999.1", serial=-17, tagtime=1e9),
]


def outcome(fn, env):
    """Evaluate, capturing either the value or the fact of an error.

    The engine raises EslRuntimeError for incomparable types and lets
    Python's TypeError through for a few nodes (unary minus on a string,
    say); the oracle raises TypeError.  What matters is that both raise.
    """
    try:
        return ("value", fn(env))
    except (EslRuntimeError, TypeError):
        return ("error",)


def assert_agreement(expr, envs=ENVIRONMENTS):
    """compile() under both contexts agrees with the oracle on every env."""
    reference = oracle_fn(expr)
    for ctx in (CTX_SCHEMA, CTX_BARE):
        compiled = expr.compile(ctx)
        for env in envs:
            expected = outcome(reference, env)
            fast = outcome(compiled, env)
            assert fast == expected, (
                f"{expr!r}: compiled {fast} != oracle {expected}"
            )


class TestParsedExpressions:
    """End-to-end texts through the real parser, both evaluators."""

    @pytest.mark.parametrize("text", [
        "r.serial > 5000",
        "r.serial > 5000 AND r.tagid LIKE '20.%'",
        "r.serial + 1 = 5002 OR r.serial - 1 = 5000",
        "NOT (r.serial BETWEEN 1 AND 10)",
        "r.tagid IN ('20.1.5001', 'x', 'y')",
        "r.tagid NOT IN ('a', 'b')",
        "r.tagid IS NULL",
        "r.tagid IS NOT NULL",
        "r.serial / 0 IS NULL",          # division by zero -> NULL
        "r.serial % 2 = 1",
        "r.tagid || '-suffix' = '20.1.5001-suffix'",
        "upper(r.tagid) = lower(r.tagid)",
        "length(r.tagid) > 3",
        "coalesce(r.tagid, 'missing') = 'missing'",
        "extract_serial(r.tagid) > 5000",
        "CASE WHEN r.serial > 0 THEN 'pos' ELSE 'neg' END = 'pos'",
        "CASE WHEN r.serial > 9000 THEN 1 END IS NULL",
        "-r.serial < 0",
        "r.serial > 100 AND r.tagtime < 100.0 AND r.tagid <> ''",
        "r.serial > 100 OR r.tagid = 'nope' OR r.tagtime = 3.0",
    ])
    def test_parsed_agreement(self, text):
        assert_agreement(parse_expression(text))

    @pytest.mark.parametrize("text", [
        # Three-valued logic with explicit NULL literals.
        "NULL = NULL",
        "NULL IS NULL",
        "NOT NULL",
        "1 = NULL OR TRUE",
        "1 = NULL AND FALSE",
        "NULL BETWEEN 1 AND 2",
        "1 IN (2, NULL)",        # unknown, not false
        "3 IN (3, NULL)",        # membership beats the NULL
    ])
    def test_null_literals_agreement(self, text):
        assert_agreement(parse_expression(text))


class TestKleeneShortCircuit:
    """Compiled AND/OR: a decided operand wins over a raising one."""

    def test_and_false_short_circuits_error_operand(self):
        # The conjunction is False on the first False without touching the
        # comparison error.
        expr = And(Literal(False), BinaryOp("<", Literal("a"), Literal(1)))
        assert_agreement(expr)
        assert expr.compile(CTX_SCHEMA)(make_env()) is False

    def test_or_true_short_circuits_error_operand(self):
        expr = Or(Literal(True), BinaryOp("<", Literal("a"), Literal(1)))
        assert_agreement(expr)
        assert expr.compile(CTX_SCHEMA)(make_env()) is True

    def test_and_null_result_still_checks_later_false(self):
        # NULL AND ... FALSE is False, not NULL: false dominates.
        expr = And(Literal(None), Column("serial", "r"), Literal(False))
        for env in ENVIRONMENTS:
            assert expr.compile(CTX_SCHEMA)(env) is False
        assert_agreement(expr)

    def test_error_operand_after_true_still_raises(self):
        expr = And(Literal(True), BinaryOp("<", Literal("a"), Literal(1)))
        with pytest.raises(TypeError):
            oracle_fn(expr)(make_env())
        with pytest.raises(EslRuntimeError):
            expr.compile(CTX_SCHEMA)(make_env())


class TestConstantFolding:
    def test_arithmetic_folds_to_constant(self):
        fn = parse_expression("1 + 2 * 3").compile(CTX_SCHEMA)
        assert isinstance(fn, _ConstFn)
        assert fn.value == 7

    def test_logic_folds_to_constant(self):
        fn = parse_expression("TRUE AND 2 > 1").compile(CTX_SCHEMA)
        assert isinstance(fn, _ConstFn)
        assert fn.value is True

    def test_folding_defers_errors_to_call_time(self):
        # 'a' < 1 is a constant expression whose evaluation raises; compile
        # must not raise, and the closure must raise when called.
        expr = BinaryOp("<", Literal("a"), Literal(1))
        fn = expr.compile(CTX_SCHEMA)
        assert not isinstance(fn, _ConstFn)
        with pytest.raises(EslRuntimeError):
            fn(Env())

    def test_column_blocks_folding(self):
        fn = parse_expression("r.serial + 1").compile(CTX_SCHEMA)
        assert not isinstance(fn, _ConstFn)
        assert fn(make_env(serial=41)) == 42


class TestPositionalColumns:
    def test_schema_context_uses_positions(self):
        expr = Column("serial", "r")
        assert expr.compile(CTX_SCHEMA)(make_env(serial=7)) == 7
        assert expr.compile(CTX_BARE)(make_env(serial=7)) == 7

    def test_parent_scope_visible_to_compiled_columns(self):
        outer = make_env(serial=99)
        inner = outer.child({"s": Tuple(SCHEMA, ["x", 1, 0.0], 0.0)})
        expr = Column("serial", "r")
        for ctx in (CTX_SCHEMA, CTX_BARE):
            assert expr.compile(ctx)(inner) == 99

    def test_bare_column_agreement(self):
        expr = Column("serial", None)
        assert_agreement(expr)


class TestRandomizedSweep:
    """Seeded random expression trees through both evaluators.

    A light property test: ~300 random trees over the three columns and a
    pool of constants (including NULL), evaluated on every environment in
    the grid under both compile contexts.
    """

    LEAF_VALUES = [None, True, False, 0, 1, -3, 2.5, "20.1.5001", "", "zz"]
    COLUMNS = ["tagid", "serial", "tagtime"]
    CMP_OPS = ["=", "<>", "<", "<=", ">", ">="]
    ARITH_OPS = ["+", "-", "*", "/", "%", "||"]

    def random_tree(self, rng, depth):
        if depth <= 0 or rng.random() < 0.3:
            if rng.random() < 0.4:
                alias = "r" if rng.random() < 0.8 else None
                return Column(rng.choice(self.COLUMNS), alias)
            return Literal(rng.choice(self.LEAF_VALUES))
        kind = rng.randrange(8)
        sub = lambda: self.random_tree(rng, depth - 1)
        if kind == 0:
            return BinaryOp(rng.choice(self.CMP_OPS), sub(), sub())
        if kind == 1:
            return BinaryOp(rng.choice(self.ARITH_OPS), sub(), sub())
        if kind == 2:
            return And(*[sub() for _ in range(rng.randint(2, 3))])
        if kind == 3:
            return Or(*[sub() for _ in range(rng.randint(2, 3))])
        if kind == 4:
            return Not(sub())
        if kind == 5:
            return IsNull(sub(), negate=rng.random() < 0.5)
        if kind == 6:
            return Between(sub(), sub(), sub(), negate=rng.random() < 0.5)
        return Negate(sub())

    def test_random_trees_agree(self):
        rng = random.Random(20070415)
        for _ in range(300):
            expr = self.random_tree(rng, depth=3)
            assert_agreement(expr)

    def test_random_in_lists_agree(self):
        rng = random.Random(77)
        for _ in range(100):
            member = self.random_tree(rng, depth=1)
            items = [Literal(rng.choice(self.LEAF_VALUES))
                     for _ in range(rng.randint(1, 4))]
            expr = InList(member, items, negate=rng.random() < 0.5)
            assert_agreement(expr)


class TestFunctionsAndCase:
    def test_function_rebinding_seen_by_compiled_closure(self):
        # The compiled closure reads the live registry mapping per call.
        functions = dict(FUNCTIONS)
        expr = FunctionCall("double", [Column("serial", "r")])
        ctx = CompileContext(functions, {"r": SCHEMA})
        functions["double"] = lambda v: v * 2
        fn = expr.compile(ctx)
        env = Env({"r": Tuple(SCHEMA, ["t", 21, 0.0], 0.0)}, functions)
        assert fn(env) == 42
        functions["double"] = lambda v: v * 10
        assert fn(env) == 210

    def test_case_with_null_conditions(self):
        expr = Case(
            [(BinaryOp("=", Column("tagid", "r"), Literal("x")), Literal(1)),
             (IsNull(Column("serial", "r")), Literal(2))],
            default=Literal(3),
        )
        assert_agreement(expr)

    def test_like_null_and_patterns(self):
        for pattern in ["20.%", "%.5001", "2_.1.5001", "nomatch%"]:
            expr = Like(Column("tagid", "r"), Literal(pattern))
            assert_agreement(expr)
