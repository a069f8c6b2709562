"""Compiler: lowers ESL-EV statements onto the DSMS and operator runtimes.

:func:`compile_program` is the entry point used by
:meth:`repro.dsms.engine.Engine.query`.  It parses the text, executes DDL
immediately, and wires each SELECT into a live pipeline:

* **temporal** queries (SEQ / EXCEPTION_SEQ / CLEVEL_SEQ in WHERE) become
  operator instances from :mod:`repro.core.operators`, with WHERE residuals
  compiled into operator guards, ``previous`` constraints hoisted into star
  gap checks, and all-alias equality chains hoisted into state partitioning;
* **filter** queries over a stream (plus optional tables) become per-tuple
  evaluation pipelines, with EXISTS sub-queries compiled to window/table
  probes (hash-keyed on their correlated equalities) — or, for symmetric
  PRECEDING-AND-FOLLOWING windows, to a
  :class:`~repro.core.operators.subquery.SymmetricExistsOperator`;
* **aggregate** queries become running (or windowed) states per group key,
  emitting updated rows per arrival;
* **table queries** execute once and leave their rows on the handle;
  :func:`execute_snapshot` (``Engine.snapshot``) runs the same one-shot
  evaluation over stream histories and tables.

Aggregate, table and snapshot queries share one source binder
(:func:`_bind_sources`) and one grouping evaluator (:class:`_Grouping`).

Every SELECT emits through one callback: a derived stream, a table, or a
*deliver* callable (by default a fresh :class:`~repro.dsms.engine.Collector`
on the handle).  Operators retain nothing themselves.

Every query in the paper compiles through this module verbatim.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ...dsms.aggregates import Aggregate
from ...dsms.engine import Collector, Engine, QueryHandle
from ...dsms.errors import EslRuntimeError, EslSemanticError
from ...dsms.expressions import (
    Column,
    CompileContext,
    Env,
    EvalFn,
    Expression,
    Literal,
    truthy,
)
from ...dsms.schema import Schema, TYPE_NAMES, FieldType
from ...dsms.streams import Stream
from ...dsms.table import Table
from ...dsms.tuples import Tuple
from ...dsms.uda import SqlUda
from ...dsms.windows import RangeWindowBuffer, RowsWindowBuffer
from ..operators import (
    ExceptionSeqOperator,
    OperatorWindow,
    PairingMode,
    SeqArg,
    SeqMatch,
    SeqOperator,
    SymmetricExistsOperator,
    make_sequence_operator,
)
from ..operators.exception_seq import SequenceOutcome
from ..operators.guards import build_compiled_guard
from .analyzer import (
    Analysis,
    ClevelThreshold,
    analyze,
    classify,
    exists_correlation_keys,
    rewrite,
)
from .ast_nodes import (
    CreateAggregate,
    CreateStream,
    CreateTable,
    DeleteStatement,
    ExistsPredicate,
    InsertValues,
    PreviousRef,
    SelectItem,
    SelectStatement,
    SeqPredicate,
    StarAggregate,
    Statement,
    UpdateStatement,
    iter_and_terms,
)
from .parser import AggregateCall, parse_program

# The one output callback of a sink-less SELECT.
Deliver = Callable[[Tuple], None]

# Bound once here rather than per query: every emit closure shares it.
_trusted = Tuple.trusted


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def compile_program(
    engine: Engine, text: str, label: str, deliver: Deliver | None = None
) -> QueryHandle:
    """Compile every statement in *text*; return the last statement's handle.

    *deliver*, when given, receives the last statement's result tuples
    in place of a Collector (see :class:`_Sink`).
    """
    statements = parse_program(text)
    handle: QueryHandle | None = None
    last = len(statements) - 1
    for index, statement in enumerate(statements):
        suffix = f"{label}[{index}]" if last else label
        handle = compile_statement(
            engine, statement, suffix, deliver if index == last else None
        )
    assert handle is not None  # parse_program rejects empty programs
    return handle


def compile_statement(
    engine: Engine,
    statement: Statement,
    label: str,
    deliver: Deliver | None = None,
) -> QueryHandle:
    if isinstance(statement, CreateStream):
        engine.create_stream(statement.name, _columns_to_schema(statement.columns))
        return _ddl_handle(engine, label)
    if isinstance(statement, CreateTable):
        engine.create_table(statement.name, _columns_to_schema(statement.columns))
        return _ddl_handle(engine, label)
    if isinstance(statement, CreateAggregate):
        uda = SqlUda(
            statement.name,
            statement.init_block,
            statement.iterate_block,
            statement.terminate_expr,
            functions=engine.functions.as_mapping(),
            param=statement.param,
        )
        engine.register_uda(statement.name, uda.factory())
        return _ddl_handle(engine, label)
    if isinstance(statement, InsertValues):
        return _compile_insert_values(engine, statement, label)
    if isinstance(statement, DeleteStatement):
        return _execute_delete(engine, statement, label)
    if isinstance(statement, UpdateStatement):
        return _execute_update(engine, statement, label)
    if isinstance(statement, SelectStatement):
        return _compile_select(engine, statement, label, deliver)
    raise EslSemanticError(f"unsupported statement type {type(statement).__name__}")


def _ddl_handle(engine: Engine, label: str) -> QueryHandle:
    handle = QueryHandle(engine, label, None, Collector(label))
    return engine.register_query(handle)


def _columns_to_schema(columns: Sequence[tuple[str, str | None]]) -> Schema:
    fields = []
    for name, type_name in columns:
        if type_name is None:
            fields.append((name, FieldType.ANY))
        else:
            key = type_name.lower()
            if key not in TYPE_NAMES:
                raise EslSemanticError(f"unknown column type {type_name!r}")
            fields.append((name, TYPE_NAMES[key]))
    return Schema(fields)


def _compile_insert_values(
    engine: Engine, statement: InsertValues, label: str
) -> QueryHandle:
    if statement.target not in engine.tables:
        raise EslSemanticError(
            f"INSERT ... VALUES targets a table; {statement.target!r} is not one"
        )
    table = engine.tables.get(statement.target)
    ctx = CompileContext(engine.functions.as_mapping())
    env = Env(functions=ctx.functions)
    for row in statement.rows:
        table.insert([expr.compile(ctx)(env) for expr in row])
    return _ddl_handle(engine, label)


def _row_evaluator(
    engine: Engine, table: Table, exprs: Sequence[Expression]
) -> Callable[[tuple[Any, ...]], list[Any]]:
    """Compile *exprs* once for DELETE/UPDATE: the returned function
    evaluates them over one table row (the table's columns are in scope
    unqualified or under the table name)."""
    key = table.name.lower()
    ctx = CompileContext(engine.functions.as_mapping(), {key: table.schema})
    fns = [expr.compile(ctx) for expr in exprs]

    def evaluate(row: tuple[Any, ...]) -> list[Any]:
        env = Env({key: Tuple(table.schema, row, 0.0, table.name)}, ctx.functions)
        return [fn(env) for fn in fns]

    return evaluate


def _row_predicate(
    engine: Engine, table: Table, where: Expression | None
) -> Callable[[tuple[Any, ...]], bool]:
    """The WHERE of a DELETE/UPDATE as a predicate over table rows."""
    if where is None:
        return lambda row: True
    evaluate = _row_evaluator(engine, table, [where])
    return lambda row: evaluate(row)[0] is True


def _execute_delete(engine: Engine, statement: DeleteStatement, label: str) -> QueryHandle:
    table = engine.tables.get(statement.target)
    removed = table.delete_where(_row_predicate(engine, table, statement.where))
    handle = _ddl_handle(engine, label)
    handle.affected_rows = removed  # type: ignore[attr-defined]
    return handle


def _execute_update(engine: Engine, statement: UpdateStatement, label: str) -> QueryHandle:
    table = engine.tables.get(statement.target)
    columns = [column for column, _expr in statement.assignments]
    evaluate = _row_evaluator(
        engine, table, [expr for _column, expr in statement.assignments]
    )
    changed = table.update_where(
        _row_predicate(engine, table, statement.where),
        lambda row: dict(zip(columns, evaluate(row))),
    )
    handle = _ddl_handle(engine, label)
    handle.affected_rows = changed  # type: ignore[attr-defined]
    return handle


# ---------------------------------------------------------------------------
# SELECT compilation
# ---------------------------------------------------------------------------


def _compile_select(
    engine: Engine,
    statement: SelectStatement,
    label: str,
    deliver: Deliver | None,
) -> QueryHandle:
    analysis = analyze(statement, engine)
    if analysis.kind == "temporal":
        handle = _compile_temporal(engine, analysis, label, deliver)
    elif analysis.kind == "table_query":
        handle = _compile_table_query(engine, analysis, label, deliver)
    else:
        symmetric = _find_symmetric_exists(analysis)
        if symmetric is not None:
            handle = _compile_symmetric(
                engine, analysis, symmetric, label, deliver
            )
        elif analysis.kind == "aggregate":
            handle = _compile_aggregate(engine, analysis, label, deliver)
        else:
            handle = _compile_filter(engine, analysis, label, deliver)
    handle.analysis = analysis
    # Routing metadata for sharded execution (ShardedEngine): which streams
    # feed this query, and the hoisted all-alias equality key, if any.
    handle.partition_field = analysis.partition_field
    handle.source_streams = tuple(
        source.name for source in analysis.sources if source.is_stream
    )
    return handle


# -- output plumbing ----------------------------------------------------------


class _Sink:
    """Where result rows go: a derived stream, a table, or *deliver*.

    A SELECT without INSERT INTO hands each result Tuple to *deliver*;
    when none is given, a fresh :class:`Collector` (left on the handle)
    is the callback.
    """

    def __init__(
        self,
        engine: Engine,
        target: str | None,
        schema: Schema,
        label: str,
        deliver: Deliver | None = None,
    ) -> None:
        self.engine = engine
        self.schema = schema
        self.stream: Stream | None = None
        self.table: Table | None = None
        self.collector: Collector | None = None
        self.deliver = deliver
        if target is None:
            if deliver is None:
                self.collector = self.deliver = Collector(label)
                # Result-row schema, for consumers that rebuild Tuples
                # from raw collected values (the sharded merge does).
                self.collector.schema = schema
        elif target in engine.tables:
            self.table = engine.tables.get(target)
            self._check_arity(len(self.table.schema))
        elif target in engine.streams:
            self.stream = engine.streams.get(target)
            self._check_arity(len(self.stream.schema))
        else:
            # Auto-create the derived stream with the projected schema —
            # convenient for pipelines whose DDL omits intermediates.
            self.stream = engine.create_stream(target, schema)

    def _check_arity(self, expected: int) -> None:
        if len(self.schema) != expected:
            raise EslSemanticError(
                f"SELECT produces {len(self.schema)} columns but the INSERT "
                f"target expects {expected}"
            )

    def bound_emit(self) -> Callable[[Sequence[Any], float], None]:
        """The emit path ``(values, ts) -> None``: the one place the target
        is decided, once, at wiring time."""
        if self.table is not None:
            insert = self.table.insert
            return lambda values, ts: insert(list(values))
        if self.stream is not None:
            push, stream_schema = self.stream.push, self.stream.schema
            return lambda values, ts: push(Tuple(stream_schema, values, ts))
        schema, collector = self.schema, self.collector
        # A collecting query appends to its own Collector's list directly,
        # skipping a Python-level __call__ per row.
        deliver = self.deliver if collector is None else collector.results.append

        def emit(values: Sequence[Any], ts: float) -> None:
            # Select-item evaluation yields exactly one value per schema
            # column and a float timestamp, so the checked constructor's
            # re-validation is dead weight on this hot path.
            deliver(_trusted(schema, values, ts))

        return emit


def _unique_names(raw: Sequence[str]) -> list[str]:
    seen: dict[str, int] = {}
    out: list[str] = []
    for name in raw:
        base = name or "col"
        if base not in seen:
            seen[base] = 1
            out.append(base)
        else:
            seen[base] += 1
            out.append(f"{base}_{seen[base]}")
    return out


def _item_name(item: SelectItem, index: int) -> str:
    if item.alias:
        return item.alias
    expr = item.expr
    if isinstance(expr, Column):
        return expr.field
    if isinstance(expr, StarAggregate):
        if expr.field:
            return f"{expr.func}_{expr.alias}_{expr.field}"
        return f"{expr.func}_{expr.alias}"
    if isinstance(expr, AggregateCall):
        if expr.arg is None:
            return expr.name.replace("(*)", "_all")
        if isinstance(expr.arg, Column):
            return f"{expr.name}_{expr.arg.field}"
        return expr.name
    return f"col{index + 1}"


def _select_schema(items: Sequence[SelectItem]) -> Schema:
    names = _unique_names([_item_name(item, i) for i, item in enumerate(items)])
    return Schema.of(*names)


def _expand_star_items(
    analysis: Analysis, engine: Engine
) -> list[SelectItem]:
    """Expand ``SELECT *`` into explicit column items."""
    items: list[SelectItem] = []
    for source in analysis.sources:
        schema = (
            engine.streams.get(source.name).schema
            if source.is_stream
            else engine.tables.get(source.name).schema
        )
        many = len(analysis.sources) > 1
        for field in schema.names:
            name = f"{source.alias}_{field}" if many else field
            items.append(SelectItem(Column(field, alias=source.alias), name))
    return items


def _resolved_items(analysis: Analysis, engine: Engine) -> list[SelectItem]:
    if analysis.statement.select_star:
        return _expand_star_items(analysis, engine)
    return list(analysis.statement.select_items)


# -- shared predicate helpers ---------------------------------------------------


def _source_schema(engine: Engine, source: Any) -> Schema:
    if source.is_stream:
        return engine.streams.get(source.name).schema
    return engine.tables.get(source.name).schema


def _compile_ctx(
    engine: Engine,
    analysis: Analysis | None = None,
    extra: Mapping[str, Schema] | None = None,
) -> CompileContext:
    """The query's :class:`CompileContext`: the engine's live UDF mapping
    and every FROM alias's schema, so column references lower to
    positional access.
    """
    schemas: dict[str, Schema] = {}
    if analysis is not None:
        for source in analysis.sources:
            schemas[source.alias.lower()] = _source_schema(engine, source)
    if extra:
        for alias, schema in extra.items():
            schemas[alias.lower()] = schema
    return CompileContext(engine.functions.as_mapping(), schemas)


def _term_evaluators(
    terms: Sequence[Expression], ctx: CompileContext
) -> list[EvalFn]:
    """Closures for *terms*, compiled under *ctx*."""
    return [term.compile(ctx) for term in terms]


def _compile_where_probe(
    terms: Sequence[Expression],
    exists_probes: Sequence[Callable[[Env], bool]],
    ctx: CompileContext,
) -> Callable[[Env], bool]:
    """A strict WHERE evaluator over residual terms plus compiled EXISTS."""
    fns = _term_evaluators(terms, ctx)

    def check(env: Env) -> bool:
        for fn in fns:
            if fn(env) is not True:  # strict: NULL counts as false
                return False
        for probe in exists_probes:
            if not probe(env):
                return False
        return True

    return check


def _bind_sources(
    env: Env,
    sources: Sequence[tuple[str, Callable[[], Iterable[Tuple]]]],
    depth: int = 0,
) -> Iterator[Env]:
    """Nested-loop join: bind each ``(alias key, rows)`` source on *env* in
    turn and yield *env* once per complete binding (the same object,
    rebound — copy what must outlive the next step)."""
    if depth == len(sources):
        yield env
        return
    key, rows = sources[depth]
    bindings = env.bindings
    for tup in rows():
        bindings[key] = tup
        yield from _bind_sources(env, sources, depth + 1)
    bindings.pop(key, None)


# ---------------------------------------------------------------------------
# EXISTS sub-queries
# ---------------------------------------------------------------------------


def _find_symmetric_exists(analysis: Analysis) -> ExistsPredicate | None:
    """Detect an Example-8 style symmetric-window EXISTS conjunct."""
    for exists in analysis.exists_terms:
        inner = exists.query
        if len(inner.from_items) != 1:
            continue
        window = inner.from_items[0].window
        if window is not None and window.symmetric:
            return exists
    return None


def _compile_exists_probe(
    engine: Engine,
    exists: ExistsPredicate,
    outer_alias: str | None,
    teardowns: list[Callable[[], None]],
    ctx: CompileContext,
) -> Callable[[Env], bool]:
    """Compile EXISTS/NOT EXISTS into a synchronous probe.

    Supports: table sub-queries (correlated, Example 2), and windowed stream
    sub-queries anchored at the current outer tuple (Example 1).  Symmetric
    windows never reach here (handled by :func:`_compile_symmetric`).

    The probe loops candidates against one reused child Env (sub-query
    evaluation is synchronous, so rebinding is safe), with the inner WHERE
    terms compiled under *ctx* extended by the sub-query alias's schema.

    A table or RANGE-window sub-query with correlation keys
    (:func:`exists_correlation_keys`) reads one hash bucket instead of
    every row: the table's index on the key columns, or the window buffer's
    keyed side index, both created here.  Each bucket candidate still runs
    the whole inner WHERE, so the index narrows the candidates and never
    decides a result.  An outer key that cannot be evaluated or hashed
    scans everything for that probe, and so does a sub-query with no key.
    """
    inner = exists.query
    if len(inner.from_items) != 1:
        raise EslSemanticError("EXISTS sub-queries must have a single FROM item")
    item = inner.from_items[0]
    inner_key = item.alias.lower()
    is_table = item.name in engine.tables
    if not is_table and item.name not in engine.streams:
        raise EslSemanticError(f"unknown stream or table {item.name!r} in EXISTS")
    inner_schema = (
        engine.tables.get(item.name).schema
        if is_table
        else engine.streams.get(item.name).schema
    )
    inner_ctx = CompileContext(
        ctx.functions, {**ctx.schemas, inner_key: inner_schema}
    )
    inner_terms = list(iter_and_terms(inner.where))
    nested = [t for t in inner_terms if isinstance(t, ExistsPredicate)]
    plain = [t for t in inner_terms if not isinstance(t, ExistsPredicate)]
    nested_probes = [
        _compile_exists_probe(engine, sub, outer_alias, teardowns, inner_ctx)
        for sub in nested
    ]
    if any(isinstance(t, SeqPredicate) for t in plain):
        raise EslSemanticError("temporal operators are not allowed in EXISTS")
    plain_fns = _term_evaluators(plain, inner_ctx)
    negate = exists.negate

    def scan(env: Env, candidates: Any) -> bool:
        child = env.child({})
        bindings = child.bindings
        for candidate in candidates:
            bindings[inner_key] = candidate
            qualified = True
            for fn in plain_fns:
                if fn(child) is not True:
                    qualified = False
                    break
            if qualified:
                for probe in nested_probes:
                    if not probe(child):
                        qualified = False
                        break
            if qualified:
                return not negate
        return negate

    keys = exists_correlation_keys(exists, inner_schema)
    key_fields = [field for field, _outer in keys]
    key_fns = [outer.compile(ctx) for _field, outer in keys]

    def probe_over(
        everything: Callable[[Env], Iterable[Tuple]],
        bucket: Callable[[Env, tuple], Iterable[Tuple]] | None = None,
    ) -> Callable[[Env], bool]:
        """The probe: over the outer key's bucket when given one, else
        over everything."""
        if bucket is None:
            return lambda env: scan(env, everything(env))

        def keyed_probe(env: Env) -> bool:
            try:
                candidates = bucket(env, tuple([fn(env) for fn in key_fns]))
            except (EslRuntimeError, TypeError):  # unevaluable or unhashable
                candidates = everything(env)
            return scan(env, candidates)

        return keyed_probe

    if is_table:
        table = engine.tables.get(item.name)

        def rows(env: Env) -> Iterable[Tuple]:
            return table.as_tuples()

        if not keys:
            return probe_over(rows)
        index = table.create_index(*key_fields)
        return probe_over(rows, lambda env, key: table.bucket(index, key))

    # Stream sub-query: needs a window (unbounded stream scans are rejected).
    window = item.window
    if window is None:
        raise EslSemanticError(
            "EXISTS over a stream requires a window "
            "(e.g. TABLE(s OVER (RANGE 1 SECONDS PRECEDING CURRENT)))"
        )
    if window.symmetric:
        raise EslSemanticError(
            "symmetric EXISTS windows compile to a dedicated operator; "
            "they cannot be combined with other query shapes"
        )
    stream = engine.streams.get(item.name)
    anchor_name = window.anchor if window.anchor != "CURRENT" else outer_alias

    def anchor_of(env: Env) -> Tuple:
        if anchor_name is None:
            raise EslRuntimeError(
                "windowed EXISTS needs an outer stream tuple to anchor on"
            )
        return env.lookup_alias(anchor_name)

    if window.kind == "rows":
        row_limit = int(window.preceding or 0)
        # When the sub-query reads the same stream as the outer query, the
        # probing tuple itself sits in the buffer (it is excluded from the
        # probe by identity) — hold one extra row so N true predecessors
        # remain visible; the probe re-applies the N limit below.
        row_buffer = RowsWindowBuffer(row_limit + 1)
        teardowns.append(stream.subscribe(row_buffer.append))

        def last_rows(env: Env) -> list[Tuple]:
            anchor = anchor_of(env)
            held = list(row_buffer.tuples_preceding(anchor, include_anchor=False))
            return held[-row_limit:] if row_limit else []

        return probe_over(last_rows)

    buffer = RangeWindowBuffer(window.preceding)
    teardowns.append(stream.subscribe(buffer.append))
    duration = window.preceding if window.preceding is not None else float("inf")

    def preceding(env: Env) -> Iterable[Tuple]:
        return buffer.tuples_preceding(anchor_of(env), duration, include_anchor=False)

    if not keys:
        return probe_over(preceding)
    buffer.create_index(inner_schema.key_getter(key_fields))
    return probe_over(
        preceding,
        lambda env, key: buffer.bucket_preceding(anchor_of(env), duration, key),
    )


# ---------------------------------------------------------------------------
# Filter queries (single stream + optional tables)
# ---------------------------------------------------------------------------


def _stream_source(analysis: Analysis) -> Any:
    streams = [s for s in analysis.sources if s.is_stream]
    if len(streams) != 1:
        raise EslSemanticError("expected exactly one stream source")
    return streams[0]


def _compile_filter(
    engine: Engine, analysis: Analysis, label: str, deliver: Deliver | None
) -> QueryHandle:
    statement = analysis.statement
    source = _stream_source(analysis)
    if source.item.window is not None:
        raise EslSemanticError(
            "a window on the main FROM stream is only meaningful for "
            "aggregates; use SnapshotView for ad-hoc windowed scans"
        )
    table_sources = [
        (s.alias.lower(), engine.tables.get(s.name).as_tuples)
        for s in analysis.sources
        if s.is_table
    ]
    items = _resolved_items(analysis, engine)
    schema = _select_schema(items)
    sink = _Sink(engine, statement.insert_into, schema, label, deliver)
    teardowns: list[Callable[[], None]] = []
    ctx = _compile_ctx(engine, analysis)
    exists_probes = [
        _compile_exists_probe(engine, ex, source.alias, teardowns, ctx)
        for ex in analysis.exists_terms
    ]
    check = _compile_where_probe(analysis.guard_terms, exists_probes, ctx)
    item_fns = _term_evaluators([item.expr for item in items], ctx)
    stream = engine.streams.get(source.name)
    functions = engine.functions.as_mapping()
    source_key = source.alias.lower()
    emit = sink.bound_emit()

    if table_sources:

        def on_tuple(tup: Tuple) -> None:
            base = Env({source_key: tup}, functions)
            for env in _bind_sources(base, table_sources):
                if not check(env):
                    continue
                emit([fn(env) for fn in item_fns], tup.ts)

    else:
        # Single-stream hot path: one fresh Env per tuple (an Env must not
        # outlive the tuple it binds — sinks may re-enter this pipeline),
        # no generator frame.
        def on_tuple(tup: Tuple) -> None:
            env = Env({source_key: tup}, functions)
            if check(env):
                emit([fn(env) for fn in item_fns], tup.ts)

    teardowns.append(stream.subscribe(on_tuple))
    handle = QueryHandle(engine, label, sink.stream, sink.collector, teardowns)
    handle.sink_table = sink.table  # type: ignore[attr-defined]
    return engine.register_query(handle)


# ---------------------------------------------------------------------------
# Grouped evaluation (aggregate queries, table queries, snapshots)
# ---------------------------------------------------------------------------


class _AggSlot(Expression):
    """Placeholder for an aggregate's current value inside a select item."""

    __slots__ = ("cell",)

    def __init__(self) -> None:
        self.cell: list[Any] = [None]

    def compile(self, ctx: CompileContext) -> EvalFn:
        cell = self.cell
        return lambda env: cell[0]


def _rewrite_with_slots(
    expr: Expression, slots: list[tuple[AggregateCall, _AggSlot]]
) -> Expression:
    """Replace AggregateCall nodes with slots, appending each to *slots*."""

    def slot_for(node: Expression) -> Expression:
        if not isinstance(node, AggregateCall):
            return node
        slot = _AggSlot()
        slots.append((node, slot))
        return slot

    return rewrite(expr, slot_for)


class _AggState:
    """Aggregate states for one group key."""

    __slots__ = ("aggs", "states")

    def __init__(self, aggs: Sequence[Aggregate]) -> None:
        self.aggs = aggs
        self.states = [agg.initialize() for agg in aggs]

    def update(self, arg_fns: Sequence[EvalFn], env: Env) -> None:
        states = self.states
        for index, agg in enumerate(self.aggs):
            states[index] = agg.iterate(states[index], arg_fns[index](env))

    def values(self) -> list[Any]:
        return [agg.terminate(state) for agg, state in zip(self.aggs, self.states)]


class _Grouping:
    """The one grouping evaluator of a SELECT: GROUP BY key, per-group
    :class:`_AggState`, HAVING, and the projected row.

    Aggregate calls in the select items and HAVING become slots; the group
    keys, aggregate arguments, items and HAVING lower once through
    :func:`_term_evaluators`.  Continuous queries drive
    :meth:`key` / :meth:`new_state` / :meth:`row` per arrival; one-shot
    queries hand every binding to :meth:`fold`.
    """

    def __init__(
        self,
        engine: Engine,
        items: Sequence[SelectItem],
        statement: SelectStatement,
        ctx: CompileContext,
    ) -> None:
        slots: list[tuple[AggregateCall, _AggSlot]] = []
        item_exprs = [_rewrite_with_slots(item.expr, slots) for item in items]
        having = statement.having
        having_fns = _term_evaluators(
            [] if having is None else [_rewrite_with_slots(having, slots)], ctx
        )
        self.having_fn = having_fns[0] if having_fns else None
        self.item_fns = _term_evaluators(item_exprs, ctx)
        self.key_fns = _term_evaluators(list(statement.group_by), ctx)
        self.calls = [call for call, _slot in slots]
        self.slots = [slot for _call, slot in slots]
        self.arg_fns = _term_evaluators(
            [Literal(1) if call.arg is None else call.arg for call in self.calls],
            ctx,
        )
        self.engine = engine

    def key(self, env: Env) -> Any:
        key_fns = self.key_fns
        return tuple([fn(env) for fn in key_fns]) if key_fns else None

    def new_state(self) -> _AggState:
        create = self.engine.aggregates.create
        return _AggState([create(call.name) for call in self.calls])

    def row(self, state: _AggState, env: Env) -> list[Any] | None:
        """The select row for one group's *state*, non-aggregate items read
        from *env*; None when HAVING rejects the group."""
        for slot, value in zip(self.slots, state.values()):
            slot.cell[0] = value
        if self.having_fn is not None and not truthy(self.having_fn(env)):
            return None
        return [fn(env) for fn in self.item_fns]

    def fold(self, bound: Iterable[Env]) -> Iterator[list[Any]]:
        """Fold every binding into its group, then yield one row per group
        in first-seen order; non-aggregate items read the group's first
        binding."""
        groups: dict[Any, tuple[_AggState, Env]] = {}
        for env in bound:
            key = self.key(env)
            entry = groups.get(key)
            if entry is None:
                entry = groups[key] = (
                    self.new_state(),
                    Env(env.bindings, env.functions),
                )
            entry[0].update(self.arg_fns, env)
        if not groups and not self.key_fns:
            # SQL: aggregates over empty input still form one group, of
            # identities/NULLs — unless a non-aggregate item needs a row.
            env = Env(functions=self.engine.functions.as_mapping())
            try:
                row = self.row(self.new_state(), env)
            except EslRuntimeError:
                return
            if row is not None:
                yield row
            return
        for state, env in groups.values():
            row = self.row(state, env)
            if row is not None:
                yield row


def _compile_aggregate(
    engine: Engine, analysis: Analysis, label: str, deliver: Deliver | None
) -> QueryHandle:
    statement = analysis.statement
    source = _stream_source(analysis)
    if [s for s in analysis.sources if s.is_table]:
        raise EslSemanticError(
            "aggregate queries over stream-table joins are not supported; "
            "stage the join through a derived stream first"
        )
    items = _resolved_items(analysis, engine)
    sink = _Sink(engine, statement.insert_into, _select_schema(items), label, deliver)
    teardowns: list[Callable[[], None]] = []
    ctx = _compile_ctx(engine, analysis)
    exists_probes = [
        _compile_exists_probe(engine, ex, source.alias, teardowns, ctx)
        for ex in analysis.exists_terms
    ]
    check = _compile_where_probe(analysis.guard_terms, exists_probes, ctx)
    grouping = _Grouping(engine, items, statement, ctx)
    arg_fns = grouping.arg_fns
    stream = engine.streams.get(source.name)
    functions = engine.functions.as_mapping()
    source_key = source.alias.lower()
    emit = sink.bound_emit()

    window = source.item.window
    window_buffer: RangeWindowBuffer | RowsWindowBuffer | None = None
    if window is not None:
        if window.symmetric or window.anchor != "CURRENT":
            raise EslSemanticError(
                "aggregate windows must be RANGE/ROWS ... PRECEDING CURRENT"
            )
        if window.kind == "rows":
            window_buffer = RowsWindowBuffer(int(window.preceding or 0))
        else:
            window_buffer = RangeWindowBuffer(window.preceding)

    # Running (cumulative) state per group key.
    groups: dict[Any, _AggState] = {}

    def on_tuple(tup: Tuple) -> None:
        env = Env({source_key: tup}, functions)
        if not check(env):
            return
        if window_buffer is not None:
            window_buffer.append(tup)
            key = grouping.key(env)
            # Recompute the group over the window in one pass.  WHERE is
            # re-checked on every held tuple: its EXISTS probes may have
            # changed their answer since the tuple arrived.
            state = grouping.new_state()
            held_env = Env(functions=functions)
            for held in window_buffer:
                held_env.bindings[source_key] = held
                if check(held_env) and grouping.key(held_env) == key:
                    state.update(arg_fns, held_env)
        else:
            key = grouping.key(env)
            state = groups.get(key)
            if state is None:
                state = groups[key] = grouping.new_state()
            state.update(arg_fns, env)
        row = grouping.row(state, env)
        if row is not None:
            emit(row, tup.ts)

    teardowns.append(stream.subscribe(on_tuple))
    handle = QueryHandle(engine, label, sink.stream, sink.collector, teardowns)
    handle.sink_table = sink.table  # type: ignore[attr-defined]
    return engine.register_query(handle)


# ---------------------------------------------------------------------------
# One-shot queries (table-only SELECTs and Engine.snapshot)
# ---------------------------------------------------------------------------


def _one_shot_rows(
    engine: Engine,
    analysis: Analysis,
    items: Sequence[SelectItem],
    rows_of: Sequence[Callable[[], Iterable[Tuple]]],
    teardowns: list[Callable[[], None]],
) -> Iterator[list[Any]]:
    """The result rows of a one-shot SELECT; ``rows_of[i]()`` reads FROM
    item *i*'s tuples.  Grouped or aggregate SELECTs fold through
    :class:`_Grouping`; the rest project each qualifying binding."""
    statement = analysis.statement
    ctx = _compile_ctx(engine, analysis)
    exists_probes = [
        _compile_exists_probe(engine, ex, None, teardowns, ctx)
        for ex in analysis.exists_terms
    ]
    check = _compile_where_probe(analysis.guard_terms, exists_probes, ctx)
    sources = [
        (source.alias.lower(), rows) for source, rows in zip(analysis.sources, rows_of)
    ]
    base = Env(functions=engine.functions.as_mapping())
    bound = (env for env in _bind_sources(base, sources) if check(env))
    if analysis.has_aggregates or statement.group_by:
        return _Grouping(engine, items, statement, ctx).fold(bound)
    item_fns = _term_evaluators([item.expr for item in items], ctx)
    return ([fn(env) for fn in item_fns] for env in bound)


def _compile_table_query(
    engine: Engine, analysis: Analysis, label: str, deliver: Deliver | None
) -> QueryHandle:
    items = _resolved_items(analysis, engine)
    sink = _Sink(
        engine, analysis.statement.insert_into, _select_schema(items), label, deliver
    )
    teardowns: list[Callable[[], None]] = []
    rows_of = [engine.tables.get(source.name).as_tuples for source in analysis.sources]
    emit = sink.bound_emit()
    for values in _one_shot_rows(engine, analysis, items, rows_of, teardowns):
        emit(values, float(engine.now))
    handle = QueryHandle(engine, label, sink.stream, sink.collector, teardowns)
    handle.sink_table = sink.table  # type: ignore[attr-defined]
    return engine.register_query(handle)


# ---------------------------------------------------------------------------
# Symmetric-window EXISTS (Example 8)
# ---------------------------------------------------------------------------


def _compile_symmetric(
    engine: Engine,
    analysis: Analysis,
    exists: ExistsPredicate,
    label: str,
    deliver: Deliver | None,
) -> QueryHandle:
    statement = analysis.statement
    source = _stream_source(analysis)
    if len(analysis.exists_terms) != 1 or analysis.has_aggregates:
        raise EslSemanticError(
            "a symmetric-window EXISTS must be the only sub-query of a "
            "plain filter query"
        )
    inner = exists.query
    item = inner.from_items[0]
    window = item.window
    assert window is not None
    if window.anchor.lower() != source.alias.lower():
        raise EslSemanticError(
            f"symmetric window anchor {window.anchor!r} must be the outer "
            f"FROM alias {source.alias!r}"
        )
    if item.name not in engine.streams:
        raise EslSemanticError("symmetric EXISTS requires a stream sub-query")
    inner_terms = list(iter_and_terms(inner.where))
    if any(isinstance(t, (ExistsPredicate, SeqPredicate)) for t in inner_terms):
        raise EslSemanticError("nested predicates are not allowed here")

    items = _resolved_items(analysis, engine)
    schema = _select_schema(items)
    sink = _Sink(engine, statement.insert_into, schema, label, deliver)
    inner_stream_schema = engine.streams.get(item.name).schema
    ctx = _compile_ctx(engine, analysis, {item.alias: inner_stream_schema})
    outer_fns = _term_evaluators(analysis.guard_terms, ctx)
    inner_fns = _term_evaluators(inner_terms, ctx)
    item_fns = _term_evaluators([sel.expr for sel in items], ctx)
    functions = engine.functions.as_mapping()
    outer_key = source.alias.lower()
    inner_key = item.alias.lower()
    emit = sink.bound_emit()

    def outer_where(tup: Tuple) -> bool:
        env = Env({outer_key: tup}, functions)
        return all(fn(env) is True for fn in outer_fns)

    def inner_where(candidate: Tuple, outer: Tuple) -> bool:
        env = Env({outer_key: outer, inner_key: candidate}, functions)
        return all(fn(env) is True for fn in inner_fns)

    def on_result(outer: Tuple, decided_at: float) -> None:
        env = Env({outer_key: outer}, functions)
        emit([fn(env) for fn in item_fns], decided_at)

    operator = SymmetricExistsOperator(
        engine,
        outer_stream=source.name,
        inner_stream=item.name,
        preceding=window.preceding or 0.0,
        following=window.following,
        outer_where=outer_where,
        inner_where=inner_where,
        negate=exists.negate,
        on_result=on_result,
    )
    handle = QueryHandle(
        engine, label, sink.stream, sink.collector, [operator.stop]
    )
    handle.operator = operator  # type: ignore[attr-defined]
    handle.sink_table = sink.table  # type: ignore[attr-defined]
    return engine.register_query(handle)


# ---------------------------------------------------------------------------
# Temporal queries
# ---------------------------------------------------------------------------


def _build_seq_args(
    engine: Engine,
    analysis: Analysis,
    predicate: SeqPredicate,
    ctx: CompileContext,
) -> list[SeqArg]:
    args: list[SeqArg] = []
    gap_terms_by_alias: dict[str, list[Expression]] = {}
    for term in analysis.gap_terms:
        aliases = {
            node.alias.lower()
            for node in term.walk()
            if isinstance(node, PreviousRef)
        }
        if len(aliases) != 1:
            raise EslSemanticError(
                "a 'previous' constraint must reference exactly one argument"
            )
        gap_terms_by_alias.setdefault(next(iter(aliases)), []).append(term)

    starred_aliases = {a.name.lower() for a in predicate.args if a.starred}
    for alias, terms in gap_terms_by_alias.items():
        if alias not in starred_aliases:
            raise EslSemanticError(
                f"'previous' constraint on {alias!r}, which is not a starred "
                "argument of the temporal operator"
            )

    for arg_syntax in predicate.args:
        source = analysis.source_for(arg_syntax.name)
        if not source.is_stream:
            raise EslSemanticError(
                f"temporal operator argument {arg_syntax.name!r} must be a "
                "stream"
            )
        gap_check = None
        alias_key = arg_syntax.name.lower()
        if alias_key in gap_terms_by_alias:
            terms = gap_terms_by_alias[alias_key]
            functions = engine.functions.as_mapping()

            def make_check(
                terms: Sequence[Expression], alias: str
            ) -> Callable[[Tuple, Tuple], bool]:
                fns = _term_evaluators(terms, ctx)
                prev_key = f"{alias}.previous"
                # One scratch Env, rebound per call: gap checks never nest.
                env = Env(functions=functions)

                def gap_check(prev: Tuple, cur: Tuple) -> bool:
                    env.bindings = {alias: cur, prev_key: prev}
                    return all(fn(env) is True for fn in fns)

                return gap_check

            gap_check = make_check(terms, alias_key)
        args.append(
            SeqArg(
                source.name,
                alias=arg_syntax.name,
                starred=arg_syntax.starred,
                gap_check=gap_check,
            )
        )
    return args


def _build_window(
    predicate: SeqPredicate, args: Sequence[SeqArg]
) -> OperatorWindow | None:
    if predicate.window is None:
        return None
    anchor_name = predicate.window.anchor.lower()
    for index, arg in enumerate(args):
        if arg.alias.lower() == anchor_name:
            return OperatorWindow(
                predicate.window.seconds, index, predicate.window.direction
            )
    raise EslSemanticError(
        f"window anchor {predicate.window.anchor!r} is not an operator argument"
    )


def _compile_temporal(
    engine: Engine, analysis: Analysis, label: str, deliver: Deliver | None
) -> QueryHandle:
    statement = analysis.statement
    if statement.group_by or statement.having is not None:
        raise EslSemanticError(
            "GROUP BY / HAVING cannot be combined with temporal operators"
        )
    predicate = analysis.temporal or analysis.clevel.predicate  # type: ignore[union-attr]
    if analysis.exists_terms:
        raise EslSemanticError(
            "EXISTS sub-queries cannot be combined with temporal operators"
        )
    ctx = _compile_ctx(engine, analysis)
    args = _build_seq_args(engine, analysis, predicate, ctx)
    window = _build_window(predicate, args)
    # Single-alias conjuncts are decided at admission time, cross-alias
    # ones at pairing time.
    guard = (
        build_compiled_guard(analysis.guard_terms, ctx, [arg.alias for arg in args])
        if analysis.guard_terms
        else None
    )
    partition_by = None
    if analysis.partition_field is not None:
        field = analysis.partition_field
        # Route on a positional read keyed by schema identity (id() of
        # objects the streams keep alive), falling back to name lookup for
        # pass-through tuples from elsewhere.
        position_of = {
            id(schema): schema.position(field)
            for schema in (engine.streams.get(arg.stream).schema for arg in args)
            if field in schema
        }.get

        def partition_by(tup: Tuple) -> Any:
            position = position_of(id(tup.schema))
            if position is not None:
                return tup.values[position]
            return tup.get(field)

    items = _resolved_items_temporal(analysis, engine, args)
    schema = _select_schema(items)
    sink = _Sink(engine, statement.insert_into, schema, label, deliver)

    if predicate.op_name == "SEQ":
        return _wire_seq(
            engine, analysis, predicate, args, window, guard, partition_by,
            items, sink, label, ctx,
        )
    return _wire_exception_seq(
        engine, analysis, predicate, args, window, guard, partition_by,
        items, sink, label, ctx,
    )


def _resolved_items_temporal(
    analysis: Analysis, engine: Engine, args: Sequence[SeqArg]
) -> list[SelectItem]:
    if not analysis.statement.select_star:
        return list(analysis.statement.select_items)
    # SELECT * over a temporal match: flatten plain aliases; starred aliases
    # contribute their run count (per-tuple expansion must be explicit).
    items: list[SelectItem] = []
    for arg in args:
        schema = engine.streams.get(arg.stream).schema
        if arg.starred:
            items.append(
                SelectItem(StarAggregate("COUNT", arg.alias), f"{arg.alias}_count")
            )
            continue
        for field in schema.names:
            items.append(
                SelectItem(Column(field, alias=arg.alias), f"{arg.alias}_{field}")
            )
    return items


def _eval_items(fns: Sequence[EvalFn], env: Env) -> list[Any]:
    """Evaluate compiled select items, yielding NULL for unbound references
    (EXCEPTION_SEQ partial sequences leave later stages unbound)."""
    values: list[Any] = []
    for fn in fns:
        try:
            values.append(fn(env))
        except EslRuntimeError:
            values.append(None)
    return values


def _column_extraction_plan(
    engine: Engine,
    args: Sequence[SeqArg],
    items: Sequence[SelectItem],
    multi_alias: str | None,
) -> list[tuple[int, int]] | None:
    """A direct positional plan for an all-Column SEQ select list, or None.

    Returns ``[(argument index, field position), ...]``, one entry per
    item, when every argument is star-free and every item is an
    ``alias.field`` read whose stream schema carries the field: a match
    chain then yields each value as ``chain[index].values[position]``.
    Anything else (expressions, bare columns, ``previous``, star runs)
    takes the general Env-based evaluation over a SeqMatch.
    """
    if multi_alias is not None or any(arg.starred for arg in args):
        return None
    by_alias = {
        arg.alias.lower(): (index, engine.streams.get(arg.stream).schema)
        for index, arg in enumerate(args)
    }
    plan: list[tuple[int, int]] = []
    for item in items:
        expr = item.expr
        if type(expr) is not Column or expr.alias is None:
            return None
        entry = by_alias.get(expr.alias.lower())
        if entry is None or expr.field not in entry[1]:
            return None
        plan.append((entry[0], entry[1].position(expr.field)))
    return plan


def _wire_seq(
    engine: Engine,
    analysis: Analysis,
    predicate: SeqPredicate,
    args: list[SeqArg],
    window: OperatorWindow | None,
    guard: Callable[[Mapping[str, Any]], bool] | None,
    partition_by: Callable[[Tuple], Any] | None,
    items: list[SelectItem],
    sink: _Sink,
    label: str,
    ctx: CompileContext,
) -> QueryHandle:
    mode = (
        PairingMode.parse(predicate.mode)
        if predicate.mode is not None
        else PairingMode.UNRESTRICTED
    )
    multi_alias = analysis.multi_return_alias
    emit = sink.bound_emit()

    plan = _column_extraction_plan(engine, args, items, multi_alias)
    if plan is not None:
        # Build each row straight from the match chain: no bindings dict,
        # no SeqMatch.  A tuple at chain[index] arrived on that argument's
        # stream, whose push contract guarantees an equal schema, so the
        # positional read needs no per-match checks.  The values are
        # copied out at once because UNRESTRICTED reuses the chain list.

        def on_chain(chain: Sequence[Tuple]) -> None:
            values = tuple([chain[index].values[pos] for index, pos in plan])
            emit(values, chain[-1].ts)

        operator = SeqOperator(
            engine, args, mode, window, guard, partition_by, on_chain
        )
    else:
        item_fns = _term_evaluators([item.expr for item in items], ctx)
        functions = engine.functions.as_mapping()

        def on_match(match: SeqMatch) -> None:
            env = Env(functions=functions)
            bindings = env.bindings
            for alias, bound in match.bindings.items():
                bindings[alias.lower()] = bound
            if multi_alias is not None:
                run = match.run_for(multi_alias)
                for tup in run:
                    child = env.child({multi_alias: tup})
                    emit(_eval_items(item_fns, child), match.ts)
                return
            emit(_eval_items(item_fns, env), match.ts)

        operator = make_sequence_operator(
            engine, args, mode, window, guard, partition_by, on_match
        )
    handle = QueryHandle(
        engine, label, sink.stream, sink.collector, [operator.stop]
    )
    handle.operator = operator  # type: ignore[attr-defined]
    handle.sink_table = sink.table
    return engine.register_query(handle)


def _wire_exception_seq(
    engine: Engine,
    analysis: Analysis,
    predicate: SeqPredicate,
    args: list[SeqArg],
    window: OperatorWindow | None,
    guard: Callable[[Mapping[str, Any]], bool] | None,
    partition_by: Callable[[Tuple], Any] | None,
    items: list[SelectItem],
    sink: _Sink,
    label: str,
    ctx: CompileContext,
) -> QueryHandle:
    clevel: ClevelThreshold | None = analysis.clevel
    n = len(args)
    mode = (
        PairingMode.parse(predicate.mode)
        if predicate.mode is not None
        else PairingMode.CONSECUTIVE
    )
    item_fns = _term_evaluators([item.expr for item in items], ctx)
    functions = engine.functions.as_mapping()
    alias_keys = [arg.alias.lower() for arg in args]
    starred = [arg.starred for arg in args]
    emit = sink.bound_emit()

    def accepts(level: int) -> bool:
        if clevel is not None:
            return clevel.accepts(level)
        return level < n  # EXCEPTION_SEQ: any incomplete sequence

    def on_outcome(outcome: SequenceOutcome) -> None:
        if not accepts(outcome.level):
            return
        env = Env(functions=functions)
        bindings = env.bindings
        for key, is_star, run in zip(alias_keys, starred, outcome.runs):
            bindings[key] = list(run) if is_star else run[-1]
        emit(_eval_items(item_fns, env), outcome.ts)

    operator = ExceptionSeqOperator(
        engine,
        args,
        window=window,
        mode=mode,
        guard=guard,
        partition_by=partition_by,
        on_outcome=on_outcome,
    )
    handle = QueryHandle(
        engine, label, sink.stream, sink.collector, [operator.stop]
    )
    handle.operator = operator  # type: ignore[attr-defined]
    handle.sink_table = sink.table
    return engine.register_query(handle)


# ---------------------------------------------------------------------------
# Ad-hoc snapshot queries (Engine.snapshot)
# ---------------------------------------------------------------------------


def execute_snapshot(engine: Engine, text: str) -> list[dict[str, Any]]:
    """One-shot SELECT over current state (paper section 2.1, ad-hoc
    queries).

    Streams in FROM read from their enabled histories
    (:meth:`Engine.enable_history`); tables read their current rows.
    Evaluation is the one-shot path table-only queries compile to, so
    ``snapshot()`` and ``query(...).rows()`` agree row for row on tables.
    Temporal operators and stream EXISTS sub-queries are for continuous
    queries, not snapshots.
    """
    statements = parse_program(text)
    if len(statements) != 1 or not isinstance(statements[0], SelectStatement):
        raise EslSemanticError("snapshot() takes exactly one SELECT statement")
    statement = statements[0]
    if statement.insert_into is not None:
        raise EslSemanticError("snapshot queries cannot INSERT")
    if any(item.window is not None for item in statement.from_items):
        raise EslSemanticError(
            "snapshot FROM items take no window; the retention was set "
            "by enable_history()"
        )
    analysis = classify(statement, engine)
    if analysis.temporal is not None or analysis.clevel is not None:
        raise EslSemanticError(
            "temporal operators need a continuous query, not a snapshot"
        )
    if any(
        ex.query.from_items[0].name not in engine.tables
        for ex in analysis.exists_terms
    ):
        raise EslSemanticError("snapshot EXISTS sub-queries must read tables")
    rows_of = [
        engine.history(source.name).current
        if source.is_stream
        else engine.tables.get(source.name).as_tuples
        for source in analysis.sources
    ]
    items = _resolved_items(analysis, engine)
    names = _select_schema(items).names
    return [
        dict(zip(names, values))
        for values in _one_shot_rows(engine, analysis, items, rows_of, [])
    ]
