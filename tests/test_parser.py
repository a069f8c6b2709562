"""Unit tests for the ESL-EV parser."""

import pytest

from repro.core.language.ast_nodes import (
    CreateAggregate,
    CreateStream,
    CreateTable,
    DurationLiteral,
    ExistsPredicate,
    InsertValues,
    PreviousRef,
    SelectStatement,
    SeqPredicate,
    StarAggregate,
)
from repro.core.language.parser import (
    AggregateCall,
    parse_expression,
    parse_program,
)
from repro.dsms.errors import EslSyntaxError
from repro.dsms.expressions import (
    And,
    Between,
    BinaryOp,
    Case,
    Column,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
)


def parse_one(text):
    statements = parse_program(text)
    assert len(statements) == 1
    return statements[0]


class TestDdl:
    def test_create_stream(self):
        stmt = parse_one("CREATE STREAM readings(reader_id str, tag_id str)")
        assert isinstance(stmt, CreateStream)
        assert stmt.name == "readings"
        assert stmt.columns == (("reader_id", "str"), ("tag_id", "str"))

    def test_create_stream_untyped(self):
        stmt = parse_one("CREATE STREAM s(a, b)")
        assert stmt.columns == (("a", None), ("b", None))

    def test_create_table(self):
        stmt = parse_one("CREATE TABLE t(x int)")
        assert isinstance(stmt, CreateTable)

    def test_create_aggregate(self):
        stmt = parse_one("""
        CREATE AGGREGATE myavg(v) (
            INITIALIZE: cnt := 1, total := v;
            ITERATE: cnt := cnt + 1, total := total + v;
            TERMINATE: RETURN total / cnt;
        )
        """)
        assert isinstance(stmt, CreateAggregate)
        assert stmt.param == "v"
        assert len(stmt.init_block) == 2
        assert len(stmt.iterate_block) == 2

    def test_create_requires_known_kind(self):
        with pytest.raises(EslSyntaxError):
            parse_program("CREATE INDEX foo(a)")


class TestInsert:
    def test_insert_values(self):
        stmt = parse_one("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        assert isinstance(stmt, InsertValues)
        assert len(stmt.rows) == 2

    def test_insert_select(self):
        stmt = parse_one("INSERT INTO out SELECT a FROM s")
        assert isinstance(stmt, SelectStatement)
        assert stmt.insert_into == "out"


class TestSelectShape:
    def test_select_star(self):
        stmt = parse_one("SELECT * FROM s")
        assert stmt.select_star

    def test_select_items_with_aliases(self):
        stmt = parse_one("SELECT a AS x, b y, c FROM s")
        assert [item.alias for item in stmt.select_items] == ["x", "y", None]

    def test_from_aliases(self):
        stmt = parse_one("SELECT a FROM s1 AS x, s2 y, s3")
        assert stmt.aliases() == ["x", "y", "s3"]

    def test_where_group_having(self):
        stmt = parse_one(
            "SELECT count(a) FROM s WHERE a > 1 GROUP BY b HAVING count(a) > 2"
        )
        assert stmt.where is not None
        assert len(stmt.group_by) == 1
        assert stmt.having is not None

    def test_multiple_statements(self):
        statements = parse_program("CREATE STREAM s(a); SELECT a FROM s;")
        assert len(statements) == 2

    def test_empty_program_rejected(self):
        with pytest.raises(EslSyntaxError):
            parse_program(" ; ; ")


class TestFromWindows:
    def test_table_fn_window(self):
        stmt = parse_one(
            "SELECT * FROM TABLE(readings OVER (RANGE 1 SECONDS PRECEDING "
            "CURRENT)) AS r2"
        )
        item = stmt.from_items[0]
        assert item.alias == "r2"
        assert item.window.kind == "range"
        assert item.window.preceding == 1.0
        assert item.window.anchor == "CURRENT"

    def test_rows_window(self):
        stmt = parse_one("SELECT * FROM TABLE(s OVER (ROWS 10 PRECEDING)) AS x")
        assert stmt.from_items[0].window.kind == "rows"
        assert stmt.from_items[0].window.preceding == 10

    def test_unbounded_window(self):
        stmt = parse_one("SELECT * FROM TABLE(s OVER (RANGE UNBOUNDED PRECEDING)) x")
        assert stmt.from_items[0].window.preceding is None

    def test_symmetric_bracket_window(self):
        stmt = parse_one(
            "SELECT * FROM tag_readings AS item OVER "
            "[1 MINUTES PRECEDING AND FOLLOWING person]"
        )
        window = stmt.from_items[0].window
        assert window.preceding == 60.0
        assert window.following == 60.0
        assert window.anchor == "person"
        assert window.symmetric

    def test_following_only_window(self):
        stmt = parse_one("SELECT * FROM s AS x OVER [30 SECONDS FOLLOWING y]")
        window = stmt.from_items[0].window
        assert window.preceding == 0.0
        assert window.following == 30.0

    def test_bad_unit_rejected(self):
        with pytest.raises(EslSyntaxError):
            parse_one("SELECT * FROM s OVER [5 parsecs PRECEDING x]")


class TestExpressions:
    def test_precedence_or_and(self):
        expr = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert isinstance(expr, Or)
        assert isinstance(expr.operands[1], And)

    def test_precedence_arithmetic(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, BinaryOp) and expr.op == "+"
        assert isinstance(expr.right, BinaryOp) and expr.right.op == "*"

    def test_parens_override(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"

    def test_not(self):
        assert isinstance(parse_expression("NOT a = 1"), Not)

    def test_comparison_chain(self):
        expr = parse_expression("a.x <= b.y")
        assert expr.op == "<="
        assert isinstance(expr.left, Column) and expr.left.alias == "a"

    def test_like(self):
        expr = parse_expression("tid LIKE '20.%'")
        assert isinstance(expr, Like)

    def test_not_like(self):
        expr = parse_expression("tid NOT LIKE '20.%'")
        assert isinstance(expr, Like) and expr.negate

    def test_between(self):
        expr = parse_expression("x BETWEEN 1 AND 5")
        assert isinstance(expr, Between)

    def test_in_list(self):
        expr = parse_expression("x IN (1, 2, 3)")
        assert isinstance(expr, InList)
        assert len(expr.options) == 3

    def test_is_null(self):
        assert isinstance(parse_expression("x IS NULL"), IsNull)
        expr = parse_expression("x IS NOT NULL")
        assert expr.negate

    def test_case(self):
        expr = parse_expression("CASE WHEN a = 1 THEN 'x' ELSE 'y' END")
        assert isinstance(expr, Case)

    def test_literals(self):
        assert parse_expression("TRUE").value is True
        assert parse_expression("NULL").value is None
        assert parse_expression("'str'").value == "str"

    def test_unary_minus(self):
        from repro.dsms.expressions import CompileContext, Env
        assert parse_expression("-5 + 1").compile(CompileContext())(Env()) == -4

    def test_duration_literal(self):
        expr = parse_expression("5 SECONDS")
        assert isinstance(expr, DurationLiteral)
        assert expr.seconds == 5.0
        assert parse_expression("30 MINUTES").seconds == 1800.0

    def test_function_call(self):
        expr = parse_expression("extract_serial(tid)")
        assert isinstance(expr, FunctionCall)

    def test_count_star(self):
        expr = parse_expression("COUNT(*)")
        assert isinstance(expr, AggregateCall)
        assert expr.name == "count(*)"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(EslSyntaxError):
            parse_expression("1 + 2 banana oops")


class TestTemporalSyntax:
    def test_seq_basic(self):
        stmt = parse_one("SELECT a FROM c1, c2 WHERE SEQ(C1, C2)")
        pred = stmt.where
        assert isinstance(pred, SeqPredicate)
        assert [a.name for a in pred.args] == ["C1", "C2"]

    def test_seq_with_star(self):
        stmt = parse_one("SELECT a FROM r1, r2 WHERE SEQ(R1*, R2)")
        assert stmt.where.args[0].starred
        assert not stmt.where.args[1].starred

    def test_seq_with_window_and_mode(self):
        stmt = parse_one(
            "SELECT a FROM c1, c4 WHERE SEQ(C1, C4) "
            "OVER [30 MINUTES PRECEDING C4] MODE RECENT"
        )
        pred = stmt.where
        assert pred.window.seconds == 1800.0
        assert pred.window.direction == "preceding"
        assert pred.window.anchor == "C4"
        assert pred.mode == "RECENT"

    def test_keywords_match_in_any_case(self):
        stmt = parse_one(
            "sElEcT c1.tagid fRoM c1, c2 WhErE seq(C1, C2) "
            "over [30 minutes preceding C2] mode Recent"
        )
        assert isinstance(stmt, SelectStatement)
        assert stmt.where.op_name == "SEQ"
        assert stmt.where.mode == "RECENT"
        assert stmt.where.window.seconds == 1800.0

    def test_keyword_spelled_in_a_string_stays_a_literal(self):
        stmt = parse_one("SELECT a FROM s WHERE a = 'select' AND b = 'MODE'")
        literals = [term.right.value for term in stmt.where.operands]
        assert literals == ["select", "MODE"]

    def test_mode_before_over(self):
        stmt = parse_one(
            "SELECT a FROM r1, r2 WHERE SEQ(R1, R2) MODE CHRONICLE "
            "OVER [5 SECONDS PRECEDING R2]"
        )
        assert stmt.where.mode == "CHRONICLE"
        assert stmt.where.window is not None

    def test_exception_seq_following(self):
        stmt = parse_one(
            "SELECT x FROM a1, a2, a3 WHERE EXCEPTION_SEQ(A1, A2, A3) "
            "OVER [1 HOURS FOLLOWING A1]"
        )
        pred = stmt.where
        assert pred.op_name == "EXCEPTION_SEQ"
        assert pred.window.direction == "following"
        assert pred.window.seconds == 3600.0

    def test_clevel_comparison(self):
        stmt = parse_one(
            "SELECT x FROM a1, a2 WHERE (CLEVEL_SEQ(A1, A2) "
            "OVER [1 HOURS FOLLOWING A1]) < 2"
        )
        assert isinstance(stmt.where, BinaryOp)
        assert isinstance(stmt.where.left, SeqPredicate)

    def test_seq_inside_and(self):
        stmt = parse_one(
            "SELECT a FROM c1, c2 WHERE SEQ(C1, C2) AND C1.tagid = C2.tagid"
        )
        assert isinstance(stmt.where, And)

    def test_star_aggregates(self):
        stmt = parse_one(
            "SELECT FIRST(R1*).tagtime, COUNT(R1*), LAST(R1*).tagid "
            "FROM r1, r2 WHERE SEQ(R1*, R2)"
        )
        first, count, last = (item.expr for item in stmt.select_items)
        assert isinstance(first, StarAggregate) and first.func == "first"
        assert first.field == "tagtime"
        assert isinstance(count, StarAggregate) and count.field is None
        assert isinstance(last, StarAggregate) and last.func == "last"

    def test_previous_ref(self):
        expr = parse_expression("R1.tagtime - R1.previous.tagtime")
        assert isinstance(expr.right, PreviousRef)
        assert expr.right.alias == "R1"
        assert expr.right.field == "tagtime"

    def test_exists_subquery(self):
        stmt = parse_one(
            "SELECT a FROM s WHERE NOT EXISTS (SELECT b FROM t WHERE b = a)"
        )
        assert isinstance(stmt.where, ExistsPredicate)
        assert stmt.where.negate

    def test_exists_not_negated(self):
        stmt = parse_one("SELECT a FROM s WHERE EXISTS (SELECT b FROM t)")
        assert not stmt.where.negate
