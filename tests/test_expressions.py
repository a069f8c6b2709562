"""Unit tests for the expression evaluator, including SQL NULL semantics."""

import pytest

from repro.dsms.errors import EslRuntimeError, UnknownFunctionError
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
    conjoin,
    truthy,
)
from repro.dsms.functions import default_functions
from repro.dsms.schema import Schema
from repro.dsms.tuples import Tuple

SCHEMA = Schema.parse("tagid str, serial int, tagtime float")


def evaluate(expr, env):
    """*expr*'s value in *env*, through its one evaluator."""
    return expr.compile(CompileContext())(env)


def env_with(tagid="20.1.5001", serial=5001, tagtime=3.0, alias="r"):
    tup = Tuple(SCHEMA, [tagid, serial, tagtime], tagtime)
    return Env({alias: tup}, default_functions())


class TestColumns:
    def test_qualified_lookup(self):
        assert evaluate(Column("tagid", "r"), env_with()) == "20.1.5001"

    def test_bare_lookup_unambiguous(self):
        assert evaluate(Column("serial"), env_with()) == 5001

    def test_bare_lookup_ambiguous_raises(self):
        tup = Tuple(SCHEMA, ["a", 1, 0.0], 0.0)
        env = Env({"x": tup, "y": tup})
        with pytest.raises(EslRuntimeError, match="ambiguous"):
            evaluate(Column("tagid"), env)

    def test_unbound_alias_raises(self):
        with pytest.raises(EslRuntimeError):
            evaluate(Column("tagid", "nope"), env_with())

    def test_unbound_bare_column_raises(self):
        with pytest.raises(EslRuntimeError):
            evaluate(Column("nope"), env_with())

    def test_parent_scope_lookup(self):
        outer = env_with(alias="outer")
        inner = outer.child({"inner": Tuple(SCHEMA, ["x", 9, 1.0], 1.0)})
        assert evaluate(Column("tagid", "outer"), inner) == "20.1.5001"
        assert evaluate(Column("tagid", "inner"), inner) == "x"


class TestComparisons:
    @pytest.mark.parametrize("op,expected", [
        ("=", False), ("<>", True), ("!=", True),
        ("<", True), ("<=", True), (">", False), (">=", False),
    ])
    def test_operators(self, op, expected):
        expr = BinaryOp(op, Literal(1), Literal(2))
        assert evaluate(expr, Env()) is expected

    def test_null_propagates(self):
        expr = BinaryOp("=", Literal(None), Literal(1))
        assert evaluate(expr, Env()) is None

    def test_incomparable_types_raise(self):
        with pytest.raises(EslRuntimeError):
            evaluate(BinaryOp("<", Literal("a"), Literal(1)), Env())


class TestArithmetic:
    def test_basics(self):
        env = Env()
        assert evaluate(BinaryOp("+", Literal(2), Literal(3)), env) == 5
        assert evaluate(BinaryOp("-", Literal(2), Literal(3)), env) == -1
        assert evaluate(BinaryOp("*", Literal(2), Literal(3)), env) == 6
        assert evaluate(BinaryOp("/", Literal(6), Literal(3)), env) == 2

    def test_division_by_zero_yields_null(self):
        assert evaluate(BinaryOp("/", Literal(1), Literal(0)), Env()) is None
        assert evaluate(BinaryOp("%", Literal(1), Literal(0)), Env()) is None

    def test_concat(self):
        assert evaluate(BinaryOp("||", Literal("a"), Literal("b")), Env()) == "ab"

    def test_null_propagates(self):
        assert evaluate(BinaryOp("+", Literal(None), Literal(1)), Env()) is None

    def test_negate(self):
        assert evaluate(Negate(Literal(5)), Env()) == -5
        assert evaluate(Negate(Literal(None)), Env()) is None


class TestKleeneLogic:
    T, F, N = Literal(True), Literal(False), Literal(None)

    def test_and_truth_table(self):
        env = Env()
        assert evaluate(And(self.T, self.T), env) is True
        assert evaluate(And(self.T, self.F), env) is False
        assert evaluate(And(self.T, self.N), env) is None
        assert evaluate(And(self.F, self.N), env) is False  # false dominates

    def test_or_truth_table(self):
        env = Env()
        assert evaluate(Or(self.F, self.F), env) is False
        assert evaluate(Or(self.F, self.T), env) is True
        assert evaluate(Or(self.F, self.N), env) is None
        assert evaluate(Or(self.T, self.N), env) is True  # true dominates

    def test_not(self):
        env = Env()
        assert evaluate(Not(self.T), env) is False
        assert evaluate(Not(self.F), env) is True
        assert evaluate(Not(self.N), env) is None

    def test_truthy_where_semantics(self):
        assert truthy(True)
        assert not truthy(False)
        assert not truthy(None)  # NULL is not a match in WHERE


class TestPredicates:
    def test_is_null(self):
        env = Env()
        assert evaluate(IsNull(Literal(None)), env) is True
        assert evaluate(IsNull(Literal(1)), env) is False
        assert evaluate(IsNull(Literal(None), negate=True), env) is False

    def test_between_inclusive(self):
        env = Env()
        assert evaluate(Between(Literal(5), Literal(5), Literal(9)), env) is True
        assert evaluate(Between(Literal(9), Literal(5), Literal(9)), env) is True
        assert evaluate(Between(Literal(10), Literal(5), Literal(9)), env) is False

    def test_between_null(self):
        assert evaluate(Between(Literal(None), Literal(1), Literal(2)), Env()) is None

    def test_not_between(self):
        expr = Between(Literal(10), Literal(5), Literal(9), negate=True)
        assert evaluate(expr, Env()) is True

    def test_in_list(self):
        env = Env()
        assert evaluate(InList(Literal(2), [Literal(1), Literal(2)]), env) is True
        assert evaluate(InList(Literal(3), [Literal(1), Literal(2)]), env) is False

    def test_in_list_negated(self):
        env = Env()
        assert evaluate(InList(Literal(3), [Literal(1)], negate=True), env) is True
        assert evaluate(InList(Literal(1), [Literal(1)], negate=True), env) is False

    def test_in_list_with_null_member(self):
        # 3 IN (1, NULL) is NULL per SQL
        expr = InList(Literal(3), [Literal(1), Literal(None)])
        assert evaluate(expr, Env()) is None


class TestLike:
    def test_percent_wildcard(self):
        expr = Like(Literal("20.1.5001"), Literal("20.%"))
        assert evaluate(expr, Env()) is True

    def test_paper_pattern(self):
        expr = Like(Column("tagid", "r"), Literal("20.%.%"))
        assert evaluate(expr, env_with(tagid="20.7.999")) is True
        assert evaluate(expr, env_with(tagid="21.7.999")) is False

    def test_underscore_wildcard(self):
        assert evaluate(Like(Literal("cat"), Literal("c_t")), Env()) is True
        assert evaluate(Like(Literal("cart"), Literal("c_t")), Env()) is False

    def test_special_chars_escaped(self):
        # The '.' in EPC patterns must match literally, not as regex-any.
        assert evaluate(Like(Literal("20x1"), Literal("20.1")), Env()) is False
        assert evaluate(Like(Literal("20.1"), Literal("20.1")), Env()) is True

    def test_not_like(self):
        expr = Like(Literal("abc"), Literal("z%"), negate=True)
        assert evaluate(expr, Env()) is True

    def test_null_operand(self):
        assert evaluate(Like(Literal(None), Literal("a%")), Env()) is None

    def test_pattern_change_recompiles(self):
        pattern_col = Column("tagid", "r")
        expr = Like(Literal("abc"), pattern_col)
        assert evaluate(expr, env_with(tagid="a%")) is True
        assert evaluate(expr, env_with(tagid="z%")) is False

    def test_pattern_memoized_across_nodes(self):
        # The module-level memo means two Like nodes (e.g. the same EPC
        # prefix in two registered queries) share one compiled regex.
        assert Like._regex("20.%.5001") is Like._regex("20.%.5001")
        first = Like(Literal("20.1.5001"), Literal("20.%.5001"))
        second = Like(Literal("20.2.5001"), Literal("20.%.5001"))
        assert evaluate(first, Env()) is True and evaluate(second, Env()) is True


class TestFunctionsAndCase:
    def test_function_call(self):
        expr = FunctionCall("upper", [Literal("abc")])
        assert evaluate(expr, Env(functions=default_functions())) == "ABC"

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError):
            evaluate(FunctionCall("nope", []), Env())

    def test_case_branches(self):
        expr = Case(
            [(Literal(False), Literal("a")), (Literal(True), Literal("b"))],
            Literal("z"),
        )
        assert evaluate(expr, Env()) == "b"

    def test_case_default(self):
        expr = Case([(Literal(False), Literal("a"))], Literal("z"))
        assert evaluate(expr, Env()) == "z"

    def test_case_no_default_yields_null(self):
        expr = Case([(Literal(False), Literal("a"))])
        assert evaluate(expr, Env()) is None


class TestStructure:
    def test_references_collects_columns(self):
        expr = And(
            BinaryOp("=", Column("a", "x"), Column("b", "y")),
            Like(Column("c"), Literal("%")),
        )
        refs = set(expr.references())
        assert ("x", "a") in refs and ("y", "b") in refs and (None, "c") in refs

    def test_walk_visits_all_nodes(self):
        expr = And(Literal(1), Or(Literal(2), Not(Literal(3))))
        kinds = [type(node).__name__ for node in expr.walk()]
        assert kinds.count("Literal") == 3

    def test_conjoin_empty_is_true(self):
        assert evaluate(conjoin([]), Env()) is True

    def test_conjoin_single_passthrough(self):
        lit = Literal(5)
        assert conjoin([lit]) is lit

