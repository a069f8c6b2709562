"""Semantic analysis for ESL-EV SELECT statements.

The analyzer sits between the parser and the compiler.  Given a parsed
:class:`SelectStatement` and the engine catalogs, it:

* resolves FROM items against the stream/table catalogs;
* splits the WHERE clause into top-level conjuncts and classifies them:
  the (at most one) temporal operator predicate, EXISTS sub-queries,
  CLEVEL_SEQ threshold comparisons, star-gap (``previous``) constraints,
  equality join keys suitable for partition hoisting, and plain residual
  predicates (:func:`exists_correlation_keys` does the same for an EXISTS
  sub-query's WHERE: the correlated equalities a probe can hash on);
* promotes :class:`FunctionCall` nodes to :class:`AggregateCall` when the
  name is a registered aggregate (SELECT list and HAVING only);
* determines the query's shape (temporal / aggregate / filter / one-shot
  table query) and its output behaviour (single-row vs. per-star-tuple
  multi-return, paper footnote 4).

The result is a :class:`Analysis` record the compiler consumes.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from ...dsms.engine import Engine
from ...dsms.errors import EslSemanticError
from ...dsms.schema import FieldType, Schema
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
from .ast_nodes import (
    ExistsPredicate,
    FromItem,
    PreviousRef,
    SelectItem,
    SelectStatement,
    SeqPredicate,
    StarAggregate,
    iter_and_terms,
)
from .parser import AggregateCall


class ClevelThreshold:
    """A ``CLEVEL_SEQ(...) <op> k`` conjunct, normalized.

    ``accepts(level)`` decides whether an outcome with the given completion
    level satisfies the comparison.
    """

    __slots__ = ("predicate", "op", "value")

    def __init__(self, predicate: SeqPredicate, op: str, value: float) -> None:
        self.predicate = predicate
        self.op = op
        self.value = value

    def accepts(self, level: int) -> bool:
        if self.op == "<":
            return level < self.value
        if self.op == "<=":
            return level <= self.value
        if self.op == ">":
            return level > self.value
        if self.op == ">=":
            return level >= self.value
        if self.op == "=":
            return level == self.value
        if self.op in ("<>", "!="):
            return level != self.value
        raise EslSemanticError(f"unsupported CLEVEL comparison {self.op!r}")

    def __repr__(self) -> str:
        return f"ClevelThreshold(level {self.op} {self.value:g})"


class SourceInfo:
    """A resolved FROM item."""

    __slots__ = ("item", "is_stream", "is_table")

    def __init__(self, item: FromItem, is_stream: bool, is_table: bool) -> None:
        self.item = item
        self.is_stream = is_stream
        self.is_table = is_table

    @property
    def alias(self) -> str:
        return self.item.alias

    @property
    def name(self) -> str:
        return self.item.name

    def __repr__(self) -> str:
        kind = "stream" if self.is_stream else "table"
        return f"SourceInfo({self.name} AS {self.alias}: {kind})"


class Analysis:
    """Everything the compiler needs to know about one SELECT statement."""

    def __init__(self, statement: SelectStatement) -> None:
        self.statement = statement
        self.sources: list[SourceInfo] = []
        self.temporal: SeqPredicate | None = None
        self.clevel: ClevelThreshold | None = None
        self.exists_terms: list[ExistsPredicate] = []
        self.gap_terms: list[Expression] = []       # contain PreviousRef
        self.guard_terms: list[Expression] = []     # everything else
        self.partition_field: str | None = None     # hoisted equality key
        self.has_aggregates = False
        self.multi_return_alias: str | None = None  # starred alias returned per-tuple
        self.kind = "filter"  # temporal | aggregate | filter | table_query

    def source_for(self, alias: str) -> SourceInfo:
        for source in self.sources:
            if source.alias.lower() == alias.lower():
                return source
        raise EslSemanticError(
            f"unknown alias {alias!r}; FROM defines "
            f"{', '.join(s.alias for s in self.sources)}"
        )

    def __repr__(self) -> str:
        return (
            f"Analysis(kind={self.kind}, sources={len(self.sources)}, "
            f"temporal={self.temporal is not None}, "
            f"aggregates={self.has_aggregates})"
        )


# ---------------------------------------------------------------------------
# Expression rewriting: FunctionCall -> AggregateCall promotion
# ---------------------------------------------------------------------------


def rewrite(
    expr: Expression, fn: Callable[[Expression], Expression]
) -> Expression:
    """Rebuild *expr* bottom-up, replacing each node with ``fn(node)``.

    Children are rewritten before their parent.  Leaves, aggregate calls
    and the query-level nodes (EXISTS, SEQ) keep their subtrees as-is.
    """

    def sub(child: Expression) -> Expression:
        return rewrite(child, fn)

    if isinstance(expr, FunctionCall):
        expr = FunctionCall(expr.name, [sub(arg) for arg in expr.args])
    elif isinstance(expr, BinaryOp):
        expr = BinaryOp(expr.op, sub(expr.left), sub(expr.right))
    elif isinstance(expr, And):
        expr = And(*map(sub, expr.operands))
    elif isinstance(expr, Or):
        expr = Or(*map(sub, expr.operands))
    elif isinstance(expr, Not):
        expr = Not(sub(expr.operand))
    elif isinstance(expr, Negate):
        expr = Negate(sub(expr.operand))
    elif isinstance(expr, IsNull):
        expr = IsNull(sub(expr.operand), expr.negate)
    elif isinstance(expr, Between):
        expr = Between(
            sub(expr.operand), sub(expr.low), sub(expr.high), expr.negate
        )
    elif isinstance(expr, InList):
        expr = InList(
            sub(expr.operand), [sub(option) for option in expr.options],
            expr.negate,
        )
    elif isinstance(expr, Like):
        expr = Like(sub(expr.operand), sub(expr.pattern), expr.negate)
    elif isinstance(expr, Case):
        expr = Case(
            [(sub(cond), sub(value)) for cond, value in expr.branches],
            sub(expr.default) if expr.default is not None else None,
        )
    return fn(expr)


def promote_aggregates(expr: Expression, engine: Engine) -> Expression:
    """Return *expr* with registered-aggregate calls promoted.

    Only single-argument calls are promoted (SQL aggregates take one
    argument); multi-argument calls stay scalar functions.
    """

    def promote(node: Expression) -> Expression:
        if (
            isinstance(node, FunctionCall)
            and node.name.lower() in engine.aggregates
            and len(node.args) <= 1
        ):
            return AggregateCall(
                node.name.lower(), node.args[0] if node.args else None
            )
        return node

    return rewrite(expr, promote)


def collect_aggregate_calls(expr: Expression) -> Iterator[AggregateCall]:
    """Yield every AggregateCall node in *expr* (depth-first)."""
    if isinstance(expr, AggregateCall):
        yield expr
        return
    for child in expr.children():
        yield from collect_aggregate_calls(child)


# ---------------------------------------------------------------------------
# Main analysis
# ---------------------------------------------------------------------------


def analyze(statement: SelectStatement, engine: Engine) -> Analysis:
    """Analyze *statement* against the engine catalogs."""
    analysis = classify(statement, engine)
    _detect_shape(analysis)
    if analysis.kind == "temporal":
        _hoist_partition_key(analysis)
        _detect_multi_return(analysis)
    return analysis


def classify(statement: SelectStatement, engine: Engine) -> Analysis:
    """Resolve FROM, promote aggregates and split WHERE, without fixing a
    continuous-query shape (a snapshot may join several streams)."""
    analysis = Analysis(statement)
    _resolve_sources(analysis, engine)
    _promote_select_aggregates(analysis, engine)
    _classify_where(analysis)
    return analysis


def _resolve_sources(analysis: Analysis, engine: Engine) -> None:
    seen: set[str] = set()
    for item in analysis.statement.from_items:
        key = item.alias.lower()
        if key in seen:
            raise EslSemanticError(f"duplicate FROM alias {item.alias!r}")
        seen.add(key)
        is_stream = item.name in engine.streams
        is_table = item.name in engine.tables
        if not is_stream and not is_table:
            raise EslSemanticError(
                f"unknown stream or table {item.name!r} in FROM"
            )
        analysis.sources.append(SourceInfo(item, is_stream, is_table))


def _promote_select_aggregates(analysis: Analysis, engine: Engine) -> None:
    statement = analysis.statement
    new_items: list[SelectItem] = []
    for item in statement.select_items:
        promoted = promote_aggregates(item.expr, engine)
        new_items.append(SelectItem(promoted, item.alias))
    statement.select_items = tuple(new_items)
    if statement.having is not None:
        statement.having = promote_aggregates(statement.having, engine)
    analysis.has_aggregates = any(
        any(True for _ in collect_aggregate_calls(item.expr))
        for item in statement.select_items
    ) or (
        statement.having is not None
        and any(True for _ in collect_aggregate_calls(statement.having))
    )


def _contains_seq(expr: Expression) -> bool:
    if isinstance(expr, SeqPredicate):
        return True
    return any(_contains_seq(child) for child in expr.children())


def _contains_previous(expr: Expression) -> bool:
    if isinstance(expr, PreviousRef):
        return True
    return any(_contains_previous(child) for child in expr.children())


def _classify_where(analysis: Analysis) -> None:
    statement = analysis.statement
    for term in iter_and_terms(statement.where):
        if isinstance(term, SeqPredicate):
            if analysis.temporal is not None or analysis.clevel is not None:
                raise EslSemanticError(
                    "only one temporal operator per query is supported"
                )
            analysis.temporal = term
            continue
        clevel = _match_clevel(term)
        if clevel is not None:
            if analysis.temporal is not None or analysis.clevel is not None:
                raise EslSemanticError(
                    "only one temporal operator per query is supported"
                )
            analysis.clevel = clevel
            continue
        if isinstance(term, ExistsPredicate):
            analysis.exists_terms.append(term)
            continue
        if isinstance(term, Not) and isinstance(term.operand, ExistsPredicate):
            inner = term.operand
            analysis.exists_terms.append(
                ExistsPredicate(inner.query, not inner.negate)
            )
            continue
        if _contains_seq(term):
            raise EslSemanticError(
                "temporal operators must appear as top-level AND-terms of "
                "WHERE (not inside OR/NOT or nested expressions)"
            )
        if _contains_previous(term):
            analysis.gap_terms.append(term)
            continue
        analysis.guard_terms.append(term)


def _match_clevel(term: Expression) -> ClevelThreshold | None:
    """Recognize ``(CLEVEL_SEQ(...) OVER [...]) <op> literal`` (either side)."""
    if not isinstance(term, BinaryOp) or term.op not in (
        "<", "<=", ">", ">=", "=", "<>", "!=",
    ):
        return None
    left, right = term.left, term.right
    if isinstance(left, SeqPredicate) and left.op_name == "CLEVEL_SEQ":
        if not isinstance(right, Literal):
            raise EslSemanticError("CLEVEL_SEQ must be compared to a literal")
        return ClevelThreshold(left, term.op, float(right.value))
    if isinstance(right, SeqPredicate) and right.op_name == "CLEVEL_SEQ":
        if not isinstance(left, Literal):
            raise EslSemanticError("CLEVEL_SEQ must be compared to a literal")
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(
            term.op, term.op
        )
        return ClevelThreshold(right, flipped, float(left.value))
    if isinstance(left, SeqPredicate) or isinstance(right, SeqPredicate):
        raise EslSemanticError(
            "SEQ/EXCEPTION_SEQ cannot appear inside comparisons; "
            "only CLEVEL_SEQ yields a value"
        )
    return None


def _detect_shape(analysis: Analysis) -> None:
    statement = analysis.statement
    if analysis.temporal is not None or analysis.clevel is not None:
        analysis.kind = "temporal"
        return
    if any(source.is_stream for source in analysis.sources):
        stream_sources = [s for s in analysis.sources if s.is_stream]
        if len(stream_sources) > 1:
            raise EslSemanticError(
                "joining multiple streams requires a temporal operator "
                "(SEQ/EXCEPTION_SEQ); plain multi-stream joins are not "
                "supported"
            )
        analysis.kind = "aggregate" if (
            analysis.has_aggregates or statement.group_by
        ) else "filter"
        return
    analysis.kind = "table_query"


def _hoist_partition_key(analysis: Analysis) -> None:
    """Detect an all-aliases equality chain on one shared field.

    ``C1.tagid = C2.tagid AND C1.tagid = C3.tagid AND C1.tagid = C4.tagid``
    lets the operator shard its state by ``tagid``.  Hoisting requires every
    temporal-operator alias to join the chain on the *same field name* — the
    common RFID case.  The hoisted equality terms are *removed* from the
    guard: per-field partitioning makes them tautological within a
    partition, and a guard-free operator can apply the RECENT domination
    purge (the paper's "aggressive purge of tuple history").
    """
    predicate = analysis.temporal or (
        analysis.clevel.predicate if analysis.clevel else None
    )
    if predicate is None:
        return
    aliases = {arg.name.lower() for arg in predicate.args}
    if len(aliases) < 2:
        return
    joined: dict[str, str] = {}
    field_names: set[str] = set()
    hoistable: list[Expression] = []
    for term in analysis.guard_terms:
        if not isinstance(term, BinaryOp) or term.op != "=":
            continue
        left, right = term.left, term.right
        if not isinstance(left, Column) or not isinstance(right, Column):
            continue
        if left.alias is None or right.alias is None:
            continue
        la, ra = left.alias.lower(), right.alias.lower()
        if la in aliases and ra in aliases:
            joined[la] = left.field
            joined[ra] = right.field
            field_names.add(left.field.lower())
            field_names.add(right.field.lower())
            hoistable.append(term)
    if len(field_names) == 1 and set(joined) == aliases:
        analysis.partition_field = next(iter(field_names))
        hoisted = set(map(id, hoistable))
        analysis.guard_terms = [
            term for term in analysis.guard_terms if id(term) not in hoisted
        ]


#: Node types a correlation key's outer side may be built from: pure,
#: binding-only evaluation (no function calls, so a UDF's side effects
#: never depend on whether the probe is keyed).
_KEY_NODES = (Column, Literal, BinaryOp, Negate)


def exists_correlation_keys(
    exists: ExistsPredicate, inner_schema: Schema
) -> list[tuple[str, Expression]]:
    """The correlation keys of an EXISTS sub-query's WHERE.

    A key is a top-level ``=`` conjunct with a typed (non-``any``) column
    of the sub-query's own FROM item on one side and, on the other, an
    expression over enclosing aliases only — at least one of them, so
    uncorrelated terms are not keys.  Bare columns resolve the way
    :meth:`Env.lookup_column` does: the sub-query's own item first (its
    schema has the field), then outward.  ``r2.tag_id = r1.tag_id`` and
    Example 2's ``tagid = tid`` are keys; ``r2.ts > r1.ts``, an ``OR`` of
    equalities and ``r2.tag_id = 'x'`` are not.

    Returns ``(inner field, outer expression)`` pairs sorted by field, the
    first conjunct per field.  The conjuncts stay in the WHERE: a keyed
    probe only narrows its candidates to one hash bucket and still
    evaluates every conjunct on each of them.  Same role as
    :func:`_hoist_partition_key`, for sub-queries.
    """
    inner_alias = exists.query.from_items[0].alias.lower()

    def inner_field(expr: Expression) -> str | None:
        """The field, when *expr* reads a typed column of the own item."""
        if not isinstance(expr, Column) or expr.field not in inner_schema:
            return None
        if expr.alias is not None and expr.alias.lower() != inner_alias:
            return None
        field = inner_schema.fields[inner_schema.position(expr.field)]
        return None if field.type is FieldType.ANY else expr.field

    def outer_only(expr: Expression) -> bool:
        correlated = False
        for node in expr.walk():
            if not isinstance(node, _KEY_NODES):
                return False
            if isinstance(node, Column):
                if node.alias is None:
                    if node.field in inner_schema:
                        return False
                elif node.alias.lower() == inner_alias:
                    return False
                correlated = True
        return correlated

    keys: dict[str, Expression] = {}
    for term in iter_and_terms(exists.query.where):
        if not isinstance(term, BinaryOp) or term.op != "=":
            continue
        for inner, outer in ((term.left, term.right), (term.right, term.left)):
            field = inner_field(inner)
            if field is not None and outer_only(outer):
                keys.setdefault(field, outer)
                break
    return sorted(keys.items())


def _detect_multi_return(analysis: Analysis) -> None:
    """Paper footnote 4: per-tuple output for a single starred argument.

    A SELECT item that references a starred alias directly (``R1.tagid``
    rather than ``FIRST(R1*).tagid``) requests one output row per tuple of
    the star run.  Allowed for exactly one starred alias.
    """
    predicate = analysis.temporal
    if predicate is None:
        return
    starred = {arg.name.lower() for arg in predicate.args if arg.starred}
    if not starred:
        return
    referenced: set[str] = set()
    for item in analysis.statement.select_items:
        for node in item.expr.walk():
            if isinstance(node, Column) and node.alias is not None:
                if node.alias.lower() in starred:
                    referenced.add(node.alias.lower())
    if not referenced:
        return
    if len(referenced) > 1:
        raise EslSemanticError(
            "per-tuple return is allowed for only one starred argument "
            "(paper footnote 4); use FIRST/LAST/COUNT for the others"
        )
    analysis.multi_return_alias = next(iter(referenced))
