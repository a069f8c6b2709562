"""AST node types produced by the ESL-EV parser.

Ordinary scalar expressions reuse the runtime classes from
:mod:`repro.dsms.expressions` directly — the parser emits evaluable nodes.
Constructs that need compilation (temporal operators, star aggregates,
sub-queries, ``previous`` references) get dedicated syntax nodes here; the
analyzer and compiler lower them onto the operator runtimes.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from ...dsms.errors import EslSemanticError
from ...dsms.expressions import CompileContext, Env, EvalFn, Expression, Literal
from ...dsms.tuples import Tuple


# ---------------------------------------------------------------------------
# Expression-level syntax nodes
# ---------------------------------------------------------------------------


class StarAggregate(Expression):
    """``FIRST(R1*).tagtime`` / ``LAST(R1*).tagtime`` / ``COUNT(R1*)``.

    Evaluates against an Env where the starred alias is bound to the run
    (a list of tuples) — or to a single tuple, in which case the run is that
    one tuple.
    """

    __slots__ = ("func", "alias", "field")

    def __init__(self, func: str, alias: str, field: str | None = None) -> None:
        func = func.lower()
        if func not in ("first", "last", "count"):
            raise EslSemanticError(f"unknown star aggregate {func!r}")
        if func == "count" and field is not None:
            raise EslSemanticError("COUNT(R*) does not take a field")
        self.func = func
        self.alias = alias
        self.field = field

    def compile(self, ctx: CompileContext) -> EvalFn:
        func, alias, field = self.func, self.alias, self.field

        def star(env: Env) -> Any:
            bound = env.lookup_alias(alias)
            run: list[Tuple] = bound if isinstance(bound, list) else [bound]
            if not run:
                return 0 if func == "count" else None
            if func == "count":
                return len(run)
            tup = run[0] if func == "first" else run[-1]
            if field is None:
                return tup
            if field == "__ts__":
                return tup.ts
            return tup[field]

        return star

    def references(self) -> Iterator[tuple[str | None, str]]:
        yield (self.alias, self.field or "*")

    def __repr__(self) -> str:
        suffix = f".{self.field}" if self.field else ""
        return f"StarAggregate({self.func.upper()}({self.alias}*){suffix})"


class PreviousRef(Expression):
    """``R1.previous.tagtime`` — the tuple preceding the current one in a
    star run (paper section 3.1.2, property 2).

    The compiler binds the pseudo-alias ``<alias>.previous`` when it
    evaluates hoisted gap constraints.
    """

    __slots__ = ("alias", "field")

    def __init__(self, alias: str, field: str) -> None:
        self.alias = alias
        self.field = field

    def compile(self, ctx: CompileContext) -> EvalFn:
        key, field = f"{self.alias}.previous", self.field

        def previous(env: Env) -> Any:
            tup = env.lookup_alias(key)
            return tup.ts if field == "__ts__" else tup[field]

        return previous

    def references(self) -> Iterator[tuple[str | None, str]]:
        yield (f"{self.alias}.previous", self.field)

    def __repr__(self) -> str:
        return f"PreviousRef({self.alias}.previous.{self.field})"


class DurationLiteral(Expression):
    """``5 SECONDS`` inside an expression — evaluates to seconds."""

    __slots__ = ("seconds", "text")

    def __init__(self, seconds: float, text: str) -> None:
        self.seconds = seconds
        self.text = text

    def compile(self, ctx: CompileContext) -> EvalFn:
        return Literal(self.seconds).compile(ctx)

    def __repr__(self) -> str:
        return f"DurationLiteral({self.text} = {self.seconds:g}s)"


class SeqArgSyntax:
    """One argument of a temporal operator: stream/alias name + star flag."""

    __slots__ = ("name", "starred")

    def __init__(self, name: str, starred: bool) -> None:
        self.name = name
        self.starred = starred

    def __repr__(self) -> str:
        return f"SeqArgSyntax({self.name}{'*' if self.starred else ''})"


class OpWindowSyntax:
    """``OVER [30 MINUTES PRECEDING C4]`` on a temporal operator."""

    __slots__ = ("seconds", "direction", "anchor")

    def __init__(self, seconds: float, direction: str, anchor: str) -> None:
        self.seconds = seconds
        self.direction = direction  # 'preceding' | 'following'
        self.anchor = anchor        # argument alias

    def __repr__(self) -> str:
        return (
            f"OpWindowSyntax({self.seconds:g}s {self.direction.upper()} "
            f"{self.anchor})"
        )


class SeqPredicate(Expression):
    """A temporal operator appearing in a WHERE clause.

    ``op_name`` is SEQ, EXCEPTION_SEQ, or CLEVEL_SEQ.  These nodes are never
    evaluated directly — the compiler extracts them and wires the operator
    runtimes; compiling one rejects an unsupported position (e.g. inside
    OR).
    """

    __slots__ = ("op_name", "args", "window", "mode")

    def __init__(
        self,
        op_name: str,
        args: Sequence[SeqArgSyntax],
        window: OpWindowSyntax | None = None,
        mode: str | None = None,
    ) -> None:
        self.op_name = op_name.upper()
        self.args = tuple(args)
        self.window = window
        self.mode = mode

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{a.name}{'*' if a.starred else ''}" for a in self.args
        )
        extra = ""
        if self.window:
            extra += f" OVER [{self.window!r}]"
        if self.mode:
            extra += f" MODE {self.mode}"
        return f"SeqPredicate({self.op_name}({inner}){extra})"


class ExistsPredicate(Expression):
    """``EXISTS (subquery)`` / ``NOT EXISTS (subquery)`` syntax node.

    The compiler replaces it with a window or table probe, or a dedicated
    operator (symmetric windows); compiling one rejects an unsupported
    position (e.g. inside OR).
    """

    __slots__ = ("query", "negate")

    def __init__(self, query: "SelectStatement", negate: bool) -> None:
        self.query = query
        self.negate = negate

    def __repr__(self) -> str:
        word = "NOT EXISTS" if self.negate else "EXISTS"
        return f"ExistsPredicate({word} ...)"


# ---------------------------------------------------------------------------
# FROM-clause nodes
# ---------------------------------------------------------------------------


class FromWindowSyntax:
    """A window attached to a FROM item.

    Two surface forms from the paper:

    * ``TABLE(readings OVER (RANGE 1 SECONDS PRECEDING CURRENT))`` —
      Example 1 (``anchor='CURRENT'``, rows or range).
    * ``tag_readings AS item OVER [1 MINUTES PRECEDING AND FOLLOWING
      person]`` — Example 8 (symmetric, anchored on an outer alias).
    """

    __slots__ = ("kind", "preceding", "following", "anchor", "unit_text")

    def __init__(
        self,
        kind: str,
        preceding: float | None,
        following: float,
        anchor: str,
        unit_text: str = "",
    ) -> None:
        self.kind = kind               # 'range' | 'rows'
        self.preceding = preceding     # seconds (range) / rows (rows); None = unbounded
        self.following = following     # seconds (0 unless symmetric)
        self.anchor = anchor           # 'CURRENT' or an alias name
        self.unit_text = unit_text

    @property
    def symmetric(self) -> bool:
        return self.following > 0

    def __repr__(self) -> str:
        parts = [self.kind.upper()]
        if self.preceding is None:
            parts.append("UNBOUNDED")
        else:
            parts.append(f"{self.preceding:g}")
        parts.append("PRECEDING")
        if self.following:
            parts.append(f"AND {self.following:g} FOLLOWING")
        parts.append(self.anchor)
        return f"FromWindowSyntax({' '.join(parts)})"


class FromItem:
    """One entry of a FROM list."""

    __slots__ = ("name", "alias", "window")

    def __init__(
        self,
        name: str,
        alias: str | None = None,
        window: FromWindowSyntax | None = None,
    ) -> None:
        self.name = name
        self.alias = alias or name
        self.window = window

    def __repr__(self) -> str:
        out = self.name
        if self.alias != self.name:
            out += f" AS {self.alias}"
        if self.window:
            out += f" {self.window!r}"
        return f"FromItem({out})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement:
    """Base class for all statements."""

    __slots__ = ()


class CreateStream(Statement):
    __slots__ = ("name", "columns")

    def __init__(self, name: str, columns: Sequence[tuple[str, str | None]]) -> None:
        self.name = name
        self.columns = tuple(columns)

    def __repr__(self) -> str:
        return f"CreateStream({self.name}, {len(self.columns)} cols)"


class CreateTable(Statement):
    __slots__ = ("name", "columns")

    def __init__(self, name: str, columns: Sequence[tuple[str, str | None]]) -> None:
        self.name = name
        self.columns = tuple(columns)

    def __repr__(self) -> str:
        return f"CreateTable({self.name}, {len(self.columns)} cols)"


class CreateAggregate(Statement):
    """ESL-style textual UDA (section 2.1: "ESL also allows users to express
    UDAs in native SQL")::

        CREATE AGGREGATE vrange(value) (
            INITIALIZE: lo := value, hi := value;
            ITERATE: lo := least(lo, value), hi := greatest(hi, value);
            TERMINATE: RETURN hi - lo;
        )
    """

    __slots__ = ("name", "param", "init_block", "iterate_block", "terminate_expr")

    def __init__(
        self,
        name: str,
        param: str,
        init_block: Sequence[tuple[str, Expression]],
        iterate_block: Sequence[tuple[str, Expression]],
        terminate_expr: Expression,
    ) -> None:
        self.name = name
        self.param = param
        self.init_block = tuple(init_block)
        self.iterate_block = tuple(iterate_block)
        self.terminate_expr = terminate_expr

    def __repr__(self) -> str:
        return f"CreateAggregate({self.name})"


class InsertValues(Statement):
    """``INSERT INTO table VALUES (...), (...)`` — setup convenience."""

    __slots__ = ("target", "rows")

    def __init__(self, target: str, rows: Sequence[Sequence[Expression]]) -> None:
        self.target = target
        self.rows = tuple(tuple(row) for row in rows)

    def __repr__(self) -> str:
        return f"InsertValues({self.target}, {len(self.rows)} rows)"


class DeleteStatement(Statement):
    """``DELETE FROM table [WHERE ...]`` — one-shot table maintenance."""

    __slots__ = ("target", "where")

    def __init__(self, target: str, where: Expression | None) -> None:
        self.target = target
        self.where = where

    def __repr__(self) -> str:
        return f"DeleteStatement({self.target})"


class UpdateStatement(Statement):
    """``UPDATE table SET col = expr, ... [WHERE ...]``."""

    __slots__ = ("target", "assignments", "where")

    def __init__(
        self,
        target: str,
        assignments: Sequence[tuple[str, Expression]],
        where: Expression | None,
    ) -> None:
        self.target = target
        self.assignments = tuple(assignments)
        self.where = where

    def __repr__(self) -> str:
        return f"UpdateStatement({self.target}, {len(self.assignments)} cols)"


class SelectItem:
    __slots__ = ("expr", "alias")

    def __init__(self, expr: Expression, alias: str | None = None) -> None:
        self.expr = expr
        self.alias = alias

    def __repr__(self) -> str:
        return f"SelectItem({self.expr!r} AS {self.alias})"


class SelectStatement(Statement):
    """A (possibly INSERT-INTO-prefixed) continuous SELECT query."""

    __slots__ = (
        "select_items",
        "select_star",
        "from_items",
        "where",
        "group_by",
        "having",
        "insert_into",
    )

    def __init__(
        self,
        select_items: Sequence[SelectItem],
        from_items: Sequence[FromItem],
        where: Expression | None = None,
        group_by: Sequence[Expression] = (),
        having: Expression | None = None,
        insert_into: str | None = None,
        select_star: bool = False,
    ) -> None:
        self.select_items = tuple(select_items)
        self.select_star = select_star
        self.from_items = tuple(from_items)
        self.where = where
        self.group_by = tuple(group_by)
        self.having = having
        self.insert_into = insert_into

    def aliases(self) -> list[str]:
        return [item.alias for item in self.from_items]

    def __repr__(self) -> str:
        target = f" INTO {self.insert_into}" if self.insert_into else ""
        return (
            f"SelectStatement({len(self.select_items)} items, "
            f"FROM {', '.join(self.aliases())}{target})"
        )


def iter_and_terms(expr: Expression | None) -> Iterator[Expression]:
    """Flatten a WHERE clause into its top-level AND conjuncts."""
    from ...dsms.expressions import And

    if expr is None:
        return
    if isinstance(expr, And):
        for operand in expr.operands:
            yield from iter_and_terms(operand)
    else:
        yield expr
