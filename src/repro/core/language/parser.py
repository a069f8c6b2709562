"""Recursive-descent parser for ESL-EV.

The grammar covers every query in the paper verbatim (Examples 1-8 plus the
section 3 fragments) and the DDL around them:

* ``CREATE STREAM`` / ``CREATE TABLE`` / ``CREATE AGGREGATE``
* ``INSERT INTO <target> SELECT ...`` and ``INSERT INTO <table> VALUES ...``
* ``SELECT ... FROM ... [WHERE ...] [GROUP BY ...] [HAVING ...]`` with:

  - windowed FROM items: ``TABLE(s OVER (RANGE 1 SECONDS PRECEDING
    CURRENT))`` and ``s AS x OVER [1 MINUTES PRECEDING AND FOLLOWING y]``;
  - temporal predicates ``SEQ(...) OVER [...] MODE ...``,
    ``EXCEPTION_SEQ(...)``, ``CLEVEL_SEQ(...)``;
  - star-sequence arguments (``R1*``) and star aggregates
    (``FIRST(R1*).f``, ``LAST(R1*).f``, ``COUNT(R1*)``);
  - ``previous`` references (``R1.previous.tagtime``);
  - duration literals (``5 SECONDS``);
  - ``EXISTS`` / ``NOT EXISTS`` sub-queries.

Scalar expressions are emitted directly as runtime nodes from
:mod:`repro.dsms.expressions`.
"""

from __future__ import annotations

from typing import Sequence

from ...dsms.errors import EslSyntaxError
from ...dsms.expressions import (
    And,
    Between,
    BinaryOp,
    Case,
    Column,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Negate,
    Not,
    Or,
)
from ...dsms.windows import duration_seconds
from .ast_nodes import (
    CreateAggregate,
    CreateStream,
    CreateTable,
    DeleteStatement,
    DurationLiteral,
    ExistsPredicate,
    FromItem,
    FromWindowSyntax,
    InsertValues,
    OpWindowSyntax,
    PreviousRef,
    SelectItem,
    SelectStatement,
    SeqArgSyntax,
    SeqPredicate,
    StarAggregate,
    Statement,
    UpdateStatement,
)
from .lexer import tokenize
from .tokens import TIME_UNIT_KEYWORDS, Token, TokenType

#: Names parsed as temporal operators when they appear as WHERE predicates.
TEMPORAL_OPS = ("SEQ", "EXCEPTION_SEQ", "CLEVEL_SEQ")

#: Names parsed as star-aggregate heads when called on a starred alias.
STAR_AGG_NAMES = ("FIRST", "LAST", "COUNT")


class AggregateCall(Expression):
    """A call that the analyzer may resolve to a (user-defined) aggregate.

    ``COUNT(*)`` parses directly to ``AggregateCall('count(*)', None)``.
    Ordinary calls parse as :class:`FunctionCall` and are promoted by the
    analyzer when the name is a registered aggregate.
    """

    __slots__ = ("name", "arg")

    def __init__(self, name: str, arg: Expression | None) -> None:
        self.name = name
        self.arg = arg

    def references(self):
        if self.arg is not None:
            yield from self.arg.references()

    def children(self):
        return (self.arg,) if self.arg is not None else ()

    def __repr__(self) -> str:
        return f"AggregateCall({self.name}, {self.arg!r})"


class Parser:
    """Token-stream parser; one instance per program text."""

    def __init__(self, text: str) -> None:
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token helpers ------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def error(self, message: str) -> EslSyntaxError:
        token = self.current
        found = token.value if token.type is not TokenType.EOF else "<end>"
        return EslSyntaxError(f"{message}, found {found!r}", token.line, token.column)

    def expect(self, type: TokenType, what: str = "") -> Token:
        if self.current.type is not type:
            raise self.error(f"expected {what or type.value}")
        return self.advance()

    def expect_keyword(self, *words: str) -> Token:
        if not self.current.is_keyword(*words):
            raise self.error(f"expected {' or '.join(words)}")
        return self.advance()

    def accept_keyword(self, *words: str) -> Token | None:
        if self.current.is_keyword(*words):
            return self.advance()
        return None

    def expect_ident(self, what: str = "identifier") -> str:
        token = self.expect(TokenType.IDENT, what)
        return str(token.value)

    # -- entry point ----------------------------------------------------------

    def parse_program(self) -> list[Statement]:
        """Parse ``;``-separated statements until EOF."""
        statements: list[Statement] = []
        while self.current.type is not TokenType.EOF:
            if self.current.type is TokenType.SEMICOLON:
                self.advance()
                continue
            statements.append(self.parse_statement())
        if not statements:
            raise EslSyntaxError("empty program")
        return statements

    def parse_statement(self) -> Statement:
        if self.current.is_keyword("CREATE"):
            return self._parse_create()
        if self.current.is_keyword("INSERT"):
            return self._parse_insert()
        if self.current.is_keyword("SELECT"):
            return self._parse_select()
        if self.current.is_keyword("DELETE"):
            return self._parse_delete()
        if self.current.is_keyword("UPDATE"):
            return self._parse_update()
        raise self.error(
            "expected CREATE, INSERT, SELECT, DELETE, or UPDATE"
        )

    def _parse_delete(self) -> DeleteStatement:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        target = self.expect_ident("table name")
        where: Expression | None = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expression()
        return DeleteStatement(target, where)

    def _parse_update(self) -> UpdateStatement:
        self.expect_keyword("UPDATE")
        target = self.expect_ident("table name")
        self.expect_keyword("SET")
        assignments: list[tuple[str, Expression]] = []
        while True:
            column = self.expect_ident("column name")
            token = self.current
            if not (token.type is TokenType.OPERATOR and token.value in ("=", ":=")):
                raise self.error("expected '=' in UPDATE assignment")
            self.advance()
            assignments.append((column, self.parse_expression()))
            if self.current.type is TokenType.COMMA:
                self.advance()
                continue
            break
        where: Expression | None = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expression()
        return UpdateStatement(target, assignments, where)

    # -- DDL ---------------------------------------------------------------

    def _parse_create(self) -> Statement:
        self.expect_keyword("CREATE")
        if self.accept_keyword("STREAM"):
            name = self.expect_ident("stream name")
            return CreateStream(name, self._parse_column_defs())
        if self.accept_keyword("TABLE"):
            name = self.expect_ident("table name")
            return CreateTable(name, self._parse_column_defs())
        if self.accept_keyword("AGGREGATE"):
            return self._parse_create_aggregate()
        raise self.error("expected STREAM, TABLE, or AGGREGATE after CREATE")

    def _parse_column_defs(self) -> list[tuple[str, str | None]]:
        self.expect(TokenType.LPAREN, "'('")
        columns: list[tuple[str, str | None]] = []
        while True:
            name = self.expect_ident("column name")
            type_name: str | None = None
            if self.current.type is TokenType.IDENT:
                type_name = str(self.advance().value)
            columns.append((name, type_name))
            if self.current.type is TokenType.COMMA:
                self.advance()
                continue
            break
        self.expect(TokenType.RPAREN, "')'")
        return columns

    def _parse_create_aggregate(self) -> CreateAggregate:
        name = self.expect_ident("aggregate name")
        self.expect(TokenType.LPAREN, "'('")
        param = self.expect_ident("parameter name")
        self.expect(TokenType.RPAREN, "')'")
        self.expect(TokenType.LPAREN, "'(' starting the aggregate body")
        self.expect_keyword("INITIALIZE")
        self._expect_colon()
        init_block = self._parse_assignments()
        self.expect_keyword("ITERATE")
        self._expect_colon()
        iterate_block = self._parse_assignments()
        self.expect_keyword("TERMINATE")
        self._expect_colon()
        self.accept_keyword("RETURN")
        terminate = self.parse_expression()
        if self.current.type is TokenType.SEMICOLON:
            self.advance()
        self.expect(TokenType.RPAREN, "')' closing the aggregate body")
        return CreateAggregate(name, param, init_block, iterate_block, terminate)

    def _expect_colon(self) -> None:
        # ':' is not a standalone token; the lexer only produces ':=' — so
        # aggregate blocks use the keyword followed by ':'-less assignments
        # when written as `INITIALIZE : x := 1`.  Accept an optional ':'-like
        # operator for forgiving input.
        token = self.current
        if token.type is TokenType.OPERATOR and token.value == ":":
            self.advance()

    def _parse_assignments(self) -> list[tuple[str, Expression]]:
        assignments: list[tuple[str, Expression]] = []
        while True:
            target = self.expect_ident("state variable")
            token = self.current
            if not (token.type is TokenType.OPERATOR and token.value == ":="):
                raise self.error("expected ':=' in aggregate assignment")
            self.advance()
            assignments.append((target, self.parse_expression()))
            if self.current.type is TokenType.COMMA:
                self.advance()
                continue
            if self.current.type is TokenType.SEMICOLON:
                self.advance()
            break
        return assignments

    # -- INSERT -----------------------------------------------------------

    def _parse_insert(self) -> Statement:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        target = self.expect_ident("insert target")
        if self.current.is_keyword("VALUES"):
            self.advance()
            rows: list[Sequence[Expression]] = []
            while True:
                self.expect(TokenType.LPAREN, "'('")
                row: list[Expression] = []
                while True:
                    row.append(self.parse_expression())
                    if self.current.type is TokenType.COMMA:
                        self.advance()
                        continue
                    break
                self.expect(TokenType.RPAREN, "')'")
                rows.append(row)
                if self.current.type is TokenType.COMMA:
                    self.advance()
                    continue
                break
            return InsertValues(target, rows)
        select = self._parse_select()
        select.insert_into = target
        return select

    # -- SELECT ------------------------------------------------------------

    def _parse_select(self) -> SelectStatement:
        self.expect_keyword("SELECT")
        select_star = False
        items: list[SelectItem] = []
        if self.current.type is TokenType.STAR:
            self.advance()
            select_star = True
        else:
            while True:
                expr = self.parse_expression()
                alias: str | None = None
                if self.accept_keyword("AS"):
                    alias = self.expect_ident("select-item alias")
                elif (
                    self.current.type is TokenType.IDENT
                    and not self.current.is_keyword(
                        "FROM", "WHERE", "GROUP", "HAVING", "MODE", "OVER"
                    )
                ):
                    alias = str(self.advance().value)
                items.append(SelectItem(expr, alias))
                if self.current.type is TokenType.COMMA:
                    self.advance()
                    continue
                break
        self.expect_keyword("FROM")
        from_items = [self._parse_from_item()]
        while self.current.type is TokenType.COMMA:
            self.advance()
            from_items.append(self._parse_from_item())
        where: Expression | None = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expression()
        group_by: list[Expression] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            while True:
                group_by.append(self.parse_expression())
                if self.current.type is TokenType.COMMA:
                    self.advance()
                    continue
                break
        having: Expression | None = None
        if self.accept_keyword("HAVING"):
            having = self.parse_expression()
        return SelectStatement(
            items,
            from_items,
            where=where,
            group_by=group_by,
            having=having,
            select_star=select_star,
        )

    def _parse_from_item(self) -> FromItem:
        if self.current.is_keyword("TABLE") and self.peek().type is TokenType.LPAREN:
            # Example 1 form: TABLE( stream OVER (RANGE 1 SECONDS PRECEDING CURRENT) )
            self.advance()
            self.expect(TokenType.LPAREN, "'('")
            name = self.expect_ident("stream name")
            window: FromWindowSyntax | None = None
            if self.accept_keyword("OVER"):
                self.expect(TokenType.LPAREN, "'(' opening the window")
                window = self._parse_paren_window()
                self.expect(TokenType.RPAREN, "')' closing the window")
            self.expect(TokenType.RPAREN, "')' closing TABLE(...)")
            alias = self._parse_alias()
            return FromItem(name, alias, window)
        name = self.expect_ident("stream or table name")
        alias = self._parse_alias()
        window = None
        if self.current.is_keyword("OVER"):
            self.advance()
            if self.current.type is TokenType.LBRACKET:
                self.advance()
                window = self._parse_bracket_window()
                self.expect(TokenType.RBRACKET, "']' closing the window")
            else:
                self.expect(TokenType.LPAREN, "'[' or '(' opening the window")
                window = self._parse_paren_window()
                self.expect(TokenType.RPAREN, "')' closing the window")
        return FromItem(name, alias, window)

    def _parse_alias(self) -> str | None:
        if self.accept_keyword("AS"):
            return self.expect_ident("alias")
        if self.current.type is TokenType.IDENT and not self.current.is_keyword(
            "OVER", "WHERE", "GROUP", "HAVING", "MODE",
        ):
            # Bare alias (SQL allows omitting AS), but never swallow clause
            # keywords or the FROM-list comma.
            return str(self.advance().value)
        return None

    def _parse_paren_window(self) -> FromWindowSyntax:
        """``RANGE 1 SECONDS PRECEDING CURRENT`` / ``ROWS 10 PRECEDING``."""
        if self.accept_keyword("RANGE"):
            if self.accept_keyword("UNBOUNDED"):
                self.expect_keyword("PRECEDING")
                self.accept_keyword("CURRENT")
                return FromWindowSyntax("range", None, 0.0, "CURRENT")
            amount = self._parse_number("window size")
            unit = self.expect(TokenType.IDENT, "time unit")
            if unit.upper not in TIME_UNIT_KEYWORDS:
                raise self.error(f"unknown time unit {unit.value!r}")
            seconds = duration_seconds(amount, str(unit.value))
            self.expect_keyword("PRECEDING")
            self.accept_keyword("CURRENT")
            return FromWindowSyntax("range", seconds, 0.0, "CURRENT", str(unit.value))
        if self.accept_keyword("ROWS"):
            if self.accept_keyword("UNBOUNDED"):
                self.expect_keyword("PRECEDING")
                return FromWindowSyntax("rows", None, 0.0, "CURRENT")
            amount = self._parse_number("row count")
            self.expect_keyword("PRECEDING")
            self.accept_keyword("CURRENT")
            return FromWindowSyntax("rows", amount, 0.0, "CURRENT")
        raise self.error("expected RANGE or ROWS in window")

    def _parse_bracket_window(self) -> FromWindowSyntax:
        """``1 MINUTES PRECEDING AND FOLLOWING person`` (Example 8) and the
        simpler ``d PRECEDING x`` / ``d FOLLOWING x`` forms."""
        amount = self._parse_number("window size")
        unit = self.expect(TokenType.IDENT, "time unit")
        if unit.upper not in TIME_UNIT_KEYWORDS:
            raise self.error(f"unknown time unit {unit.value!r}")
        seconds = duration_seconds(amount, str(unit.value))
        if self.accept_keyword("PRECEDING"):
            if self.accept_keyword("AND"):
                self.expect_keyword("FOLLOWING")
                anchor = self.expect_ident("window anchor")
                return FromWindowSyntax("range", seconds, seconds, anchor,
                                        str(unit.value))
            anchor = self.expect_ident("window anchor")
            return FromWindowSyntax("range", seconds, 0.0, anchor, str(unit.value))
        if self.accept_keyword("FOLLOWING"):
            anchor = self.expect_ident("window anchor")
            return FromWindowSyntax("range", 0.0, seconds, anchor, str(unit.value))
        raise self.error("expected PRECEDING or FOLLOWING in window")

    def _parse_number(self, what: str) -> float:
        token = self.expect(TokenType.NUMBER, what)
        return float(token.value)

    # -- expressions ---------------------------------------------------------

    def parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        terms = [left]
        while self.current.is_keyword("OR"):
            self.advance()
            terms.append(self._parse_and())
        if len(terms) == 1:
            return left
        return Or(*terms)

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        terms = [left]
        while self.current.is_keyword("AND"):
            self.advance()
            terms.append(self._parse_not())
        if len(terms) == 1:
            return left
        return And(*terms)

    def _parse_not(self) -> Expression:
        if self.current.is_keyword("NOT"):
            # NOT EXISTS is handled in _parse_predicate via lookahead so the
            # negation lands on the ExistsPredicate node itself.
            if self.peek().is_keyword("EXISTS"):
                self.advance()
                self.advance()
                return self._parse_exists(negate=True)
            self.advance()
            return Not(self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expression:
        if self.current.is_keyword("EXISTS"):
            self.advance()
            return self._parse_exists(negate=False)
        if self.current.is_keyword(*TEMPORAL_OPS) and (
            self.peek().type is TokenType.LPAREN
        ):
            return self._parse_temporal_operator()
        left = self._parse_additive()
        # IS [NOT] NULL
        if self.current.is_keyword("IS"):
            self.advance()
            negate = bool(self.accept_keyword("NOT"))
            self.expect_keyword("NULL")
            return IsNull(left, negate)
        # [NOT] BETWEEN / IN / LIKE
        negate = False
        if self.current.is_keyword("NOT") and self.peek().is_keyword(
            "BETWEEN", "IN", "LIKE"
        ):
            negate = True
            self.advance()
        if self.accept_keyword("BETWEEN"):
            low = self._parse_additive()
            self.expect_keyword("AND")
            high = self._parse_additive()
            return Between(left, low, high, negate)
        if self.accept_keyword("IN"):
            self.expect(TokenType.LPAREN, "'('")
            options: list[Expression] = []
            while True:
                options.append(self.parse_expression())
                if self.current.type is TokenType.COMMA:
                    self.advance()
                    continue
                break
            self.expect(TokenType.RPAREN, "')'")
            return InList(left, options, negate)
        if self.accept_keyword("LIKE"):
            pattern = self._parse_additive()
            return Like(left, pattern, negate)
        # comparison
        token = self.current
        if token.type is TokenType.OPERATOR and token.value in (
            "=", "<>", "!=", "<", "<=", ">", ">=",
        ):
            op = str(self.advance().value)
            right = self._parse_additive()
            return BinaryOp(op, left, right)
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            token = self.current
            if token.type is TokenType.OPERATOR and token.value in ("+", "-", "||"):
                op = str(self.advance().value)
                right = self._parse_multiplicative()
                left = BinaryOp(op, left, right)
                continue
            return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while True:
            token = self.current
            if token.type is TokenType.STAR:
                self.advance()
                right = self._parse_unary()
                left = BinaryOp("*", left, right)
                continue
            if token.type is TokenType.OPERATOR and token.value in ("/", "%"):
                op = str(self.advance().value)
                right = self._parse_unary()
                left = BinaryOp(op, left, right)
                continue
            return left

    def _parse_unary(self) -> Expression:
        token = self.current
        if token.type is TokenType.OPERATOR and token.value == "-":
            self.advance()
            return Negate(self._parse_unary())
        if token.type is TokenType.OPERATOR and token.value == "+":
            self.advance()
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self.current
        if token.type is TokenType.NUMBER:
            self.advance()
            # Duration literal: NUMBER followed by a time unit keyword.
            unit = self.current
            if unit.type is TokenType.IDENT and unit.upper in TIME_UNIT_KEYWORDS:
                self.advance()
                seconds = duration_seconds(float(token.value), str(unit.value))
                return DurationLiteral(seconds, f"{token.value} {unit.value}")
            return Literal(token.value)
        if token.type is TokenType.STRING:
            self.advance()
            return Literal(token.value)
        if token.type is TokenType.LPAREN:
            self.advance()
            inner = self.parse_expression()
            self.expect(TokenType.RPAREN, "')'")
            return inner
        if token.is_keyword("TRUE"):
            self.advance()
            return Literal(True)
        if token.is_keyword("FALSE"):
            self.advance()
            return Literal(False)
        if token.is_keyword("NULL"):
            self.advance()
            return Literal(None)
        if token.is_keyword("CASE"):
            return self._parse_case()
        if token.is_keyword(*TEMPORAL_OPS) and self.peek().type is TokenType.LPAREN:
            return self._parse_temporal_operator()
        if token.type is TokenType.IDENT:
            return self._parse_name_or_call()
        raise self.error("expected an expression")

    def _parse_case(self) -> Expression:
        self.expect_keyword("CASE")
        branches: list[tuple[Expression, Expression]] = []
        while self.accept_keyword("WHEN"):
            condition = self.parse_expression()
            self.expect_keyword("THEN")
            branches.append((condition, self.parse_expression()))
        default: Expression | None = None
        if self.accept_keyword("ELSE"):
            default = self.parse_expression()
        self.expect_keyword("END")
        if not branches:
            raise self.error("CASE requires at least one WHEN branch")
        return Case(branches, default)

    def _parse_exists(self, negate: bool) -> ExistsPredicate:
        self.expect(TokenType.LPAREN, "'(' opening the subquery")
        query = self._parse_select()
        self.expect(TokenType.RPAREN, "')' closing the subquery")
        return ExistsPredicate(query, negate)

    # -- temporal operators ----------------------------------------------------

    def _parse_temporal_operator(self) -> SeqPredicate:
        op_token = self.advance()
        op_name = op_token.upper
        self.expect(TokenType.LPAREN, "'('")
        args: list[SeqArgSyntax] = []
        while True:
            name = self.expect_ident("stream name")
            starred = False
            if self.current.type is TokenType.STAR:
                self.advance()
                starred = True
            args.append(SeqArgSyntax(name, starred))
            if self.current.type is TokenType.COMMA:
                self.advance()
                continue
            break
        self.expect(TokenType.RPAREN, "')'")
        window: OpWindowSyntax | None = None
        if self.current.is_keyword("OVER"):
            self.advance()
            self.expect(TokenType.LBRACKET, "'[' opening the operator window")
            amount = self._parse_number("window size")
            unit = self.expect(TokenType.IDENT, "time unit")
            if unit.upper not in TIME_UNIT_KEYWORDS:
                raise self.error(f"unknown time unit {unit.value!r}")
            seconds = duration_seconds(amount, str(unit.value))
            direction_token = self.current
            if self.accept_keyword("PRECEDING"):
                direction = "preceding"
            elif self.accept_keyword("FOLLOWING"):
                direction = "following"
            else:
                raise self.error("expected PRECEDING or FOLLOWING")
            del direction_token
            anchor = self.expect_ident("window anchor")
            self.expect(TokenType.RBRACKET, "']' closing the operator window")
            window = OpWindowSyntax(seconds, direction, anchor)
        mode: str | None = None
        if self.current.is_keyword("MODE"):
            self.advance()
            mode_token = self.expect(
                TokenType.IDENT, "pairing mode after MODE"
            )
            mode = mode_token.upper
        # OVER may also follow MODE (the paper floats the clauses freely).
        if window is None and self.current.is_keyword("OVER"):
            self.advance()
            self.expect(TokenType.LBRACKET, "'['")
            amount = self._parse_number("window size")
            unit = self.expect(TokenType.IDENT, "time unit")
            seconds = duration_seconds(amount, str(unit.value))
            if self.accept_keyword("PRECEDING"):
                direction = "preceding"
            else:
                self.expect_keyword("FOLLOWING")
                direction = "following"
            anchor = self.expect_ident("window anchor")
            self.expect(TokenType.RBRACKET, "']'")
            window = OpWindowSyntax(seconds, direction, anchor)
        return SeqPredicate(op_name, args, window, mode)

    # -- names, calls, star aggregates -------------------------------------------

    def _parse_name_or_call(self) -> Expression:
        name_token = self.advance()
        name = str(name_token.value)
        # Function / aggregate call
        if self.current.type is TokenType.LPAREN:
            return self._parse_call(name)
        # Dotted reference: alias.field / alias.previous.field
        if self.current.type is TokenType.DOT:
            self.advance()
            second = self.expect_ident("field name")
            if second.lower() == "previous" and self.current.type is TokenType.DOT:
                self.advance()
                field = self.expect_ident("field name after 'previous'")
                return PreviousRef(name, field)
            return Column(second, alias=name)
        return Column(name)

    def _parse_call(self, name: str) -> Expression:
        self.expect(TokenType.LPAREN, "'('")
        upper = name.upper()
        # COUNT(*)
        if (
            upper == "COUNT"
            and self.current.type is TokenType.STAR
            and self.peek().type is TokenType.RPAREN
        ):
            self.advance()
            self.advance()
            return AggregateCall("count(*)", None)
        # Star aggregates: FIRST(R1*), LAST(R1*).field, COUNT(R1*)
        if (
            upper in STAR_AGG_NAMES
            and self.current.type is TokenType.IDENT
            and self.peek().type is TokenType.STAR
            and self.peek(2).type is TokenType.RPAREN
        ):
            alias = self.expect_ident()
            self.advance()  # '*'
            self.expect(TokenType.RPAREN, "')'")
            field: str | None = None
            if self.current.type is TokenType.DOT:
                self.advance()
                field = self.expect_ident("field after star aggregate")
            return StarAggregate(upper, alias, field)
        # Ordinary call (function or aggregate; the analyzer promotes
        # aggregates).
        args: list[Expression] = []
        if self.current.type is not TokenType.RPAREN:
            while True:
                args.append(self.parse_expression())
                if self.current.type is TokenType.COMMA:
                    self.advance()
                    continue
                break
        self.expect(TokenType.RPAREN, "')'")
        return FunctionCall(name, args)


def parse_program(text: str) -> list[Statement]:
    """Parse *text* into a list of statements."""
    return Parser(text).parse_program()


def parse_expression(text: str) -> Expression:
    """Parse a standalone scalar expression (used by tests and tools)."""
    parser = Parser(text)
    expr = parser.parse_expression()
    if parser.current.type is not TokenType.EOF:
        raise parser.error("trailing input after expression")
    return expr
