"""Oracle for the non-temporal query shapes, and a runner for programs.

* Filters over one stream, joined with tables, with ``EXISTS`` / ``NOT
  EXISTS`` sub-queries over a table (Example 2) or over a window of a
  stream anchored at the outer tuple (Example 1).
* The symmetric ``PRECEDING AND FOLLOWING`` window (Example 8).
* Running aggregates over one stream (Example 3) and one-shot SELECTs
  over tables, grouped or not.

Where the paper or SQL leaves a point open, these are the readings taken
(docs/LANGUAGE.md states each):

* **Windowed EXISTS** sees the sub-query stream's tuples that arrived
  before the outer tuple: ``RANGE d`` those stamped ``>= t - d``, ``ROWS
  n`` the last n.  The outer tuple never witnesses for itself.
* **Table EXISTS** sees the table as it is when the outer tuple arrives,
  including the rows the query itself inserted before.
* **Correlation keys.**  When the sub-query's WHERE has top-level
  equalities between a typed column of its own FROM item and an
  expression over outer columns only, a candidate whose key differs is
  never evaluated, so a conjunct that would raise on it does not.
* **Symmetric windows** decide an outer tuple ``t`` at ``t + f``: NOT
  EXISTS emits it then, stamped ``t + f``, unless an inner tuple stamped
  in ``[t - p, t + f)`` qualified.  A tuple stamped exactly ``t + f``
  arrives after the decision.  EXISTS emits ``t`` at its first witness.
* **Aggregates.**  ``COUNT(*)`` counts rows; ``COUNT``, ``SUM``, ``MIN``,
  ``MAX`` and ``AVG`` skip NULLs, and are NULL over no values (``COUNT``
  is 0).  Groups come out in first-seen order; a grouped item that is not
  an aggregate reads the group's first row.  Without GROUP BY an
  aggregate query over no rows still yields one row, unless HAVING
  rejects it.  A running aggregate emits one row per arrival that passes
  WHERE, its non-aggregate items read from that arrival.  Over a
  ``RANGE d`` / ``ROWS n`` window it folds the arrival's group over the
  arrivals that passed WHERE and are still in the window: those stamped
  ``>= t - d``, or the last n, the arrival included.
"""

from __future__ import annotations

from repro.core.language import parse_program
from repro.core.language.ast_nodes import (
    ExistsPredicate,
    InsertValues,
    SeqPredicate,
    iter_and_terms,
)
from repro.core.language.parser import AggregateCall
from repro.dsms.expressions import (
    BinaryOp,
    Column,
    FunctionCall,
    Literal,
    Negate,
    Not,
)

from .filter import Scope, value
from .temporal import events, run_temporal

AGGREGATES = ("count", "sum", "avg", "min", "max")


def fields_of(spec):
    """``"a str, b float"`` -> ``[("a", "str"), ("b", "float")]``."""
    out = []
    for part in spec.split(","):
        words = part.split()
        out.append((words[0], words[1].lower() if len(words) > 1 else "any"))
    return out


def run_program(text, streams, tables, trace, until=None):
    """What each SELECT of *text* leaves behind after *trace*.

    *streams* and *tables* map names to column specs; *until* is the
    clock time the run ends at.  A SELECT into a table yields the table's
    final rows (dicts); any other yields its ``(values, ts)`` rows.
    Continuous SELECTs run over the whole trace, each seeing only its own
    inserts; table-only SELECTs run where they stand, before the trace.
    """
    catalog = {
        name.lower(): fields_of(spec) for name, spec in {**streams, **tables}.items()
    }
    contents = {name.lower(): [] for name in tables}
    outputs = []
    for statement in parse_program(text):
        if isinstance(statement, InsertValues):
            names = [field for field, _ in catalog[statement.target.lower()]]
            contents[statement.target.lower()].extend(
                dict(zip(names, (value(expr, Scope({})) for expr in row)))
                for row in statement.rows
            )
        else:
            outputs.append(run_select(statement, catalog, contents, trace, until))
    return outputs


def run_select(statement, catalog, contents, trace, until=None):
    """One SELECT's output (see :func:`run_program`)."""
    tables = {name: list(rows) for name, rows in contents.items()}
    target = (statement.insert_into or "").lower()
    if _temporal(statement):
        fields = {name: [f for f, _ in spec] for name, spec in catalog.items()}
        out = run_temporal(statement, trace, fields, until)
    elif all(item.name.lower() in tables for item in statement.from_items):
        out = [(row, 0.0) for row in one_shot(statement, catalog, tables)]
    else:
        out = continuous(statement, catalog, tables, trace, until)
    if target not in tables:
        return out
    names = [field for field, _ in catalog[target]]
    tables[target].extend(dict(zip(names, values)) for values, _ in out)
    return tables[target]


def _temporal(statement):
    return any(
        SeqPredicate in (type(term), type(getattr(term, "left", None)),
                         type(getattr(term, "right", None)))
        for term in iter_and_terms(statement.where)
    )


def _items(statement, catalog):
    if not statement.select_star:
        return [item.expr for item in statement.select_items]
    return [
        Column(field, item.alias)
        for item in statement.from_items
        for field, _ in catalog[item.name.lower()]
    ]


def _split_where(statement):
    """Plain WHERE terms, and ``(sub-query, negated)`` EXISTS probes."""
    plain, probes = [], []
    for term in iter_and_terms(statement.where):
        if isinstance(term, ExistsPredicate):
            probes.append((term.query, term.negate))
        elif isinstance(term, Not) and isinstance(term.operand, ExistsPredicate):
            probes.append((term.operand.query, not term.operand.negate))
        else:
            plain.append(term)
    return plain, probes


# ---------------------------------------------------------------------------
# Continuous queries over one stream
# ---------------------------------------------------------------------------


def continuous(statement, catalog, tables, trace, until=None):
    """A stream query: filter, running aggregate or symmetric EXISTS.

    Rows into a table in *tables* land there as they are produced, so
    the query's own EXISTS probes see them (Example 2); the return value
    is then empty.
    """
    stream = next(
        item for item in statement.from_items if item.name.lower() not in tables
    )
    joined = [item for item in statement.from_items if item is not stream]
    plain, probes = _split_where(statement)
    items = _items(statement, catalog)
    evs = events(trace)
    for query, negate in probes:
        window = query.from_items[0].window
        if window is not None and window.following > 0:
            return _symmetric(stream, plain, query, negate, items, evs, until)
    grouping = _Grouping(statement, items) if _Grouping.wanted(statement, items) else None
    window = stream.window
    held = []  # windowed aggregates: (scope, ts) of the qualifying arrivals
    target = (statement.insert_into or "").lower()
    sink = tables.get(target)
    names = [field for field, _ in catalog[target]] if sink is not None else ()
    out = []
    for e in evs:
        if e.stream != stream.name.lower():
            continue
        for scope in _bind(Scope({stream.alias: e.row}), joined, tables):
            if not all(value(term, scope) is True for term in plain):
                continue
            if not all(
                _exists(query, scope, catalog, tables, evs, e) != negate
                for query, negate in probes
            ):
                continue
            if grouping is not None and window is not None:
                held = _slide(held + [(scope, e.ts)], window, e.ts)
                row = grouping.over([s for s, _ in held], scope)
            elif grouping is not None:
                row = grouping.step(scope)
            else:
                row = tuple(value(expr, scope) for expr in items)
            if row is None:
                continue
            if sink is not None:
                sink.append(dict(zip(names, row)))
            else:
                out.append((row, e.ts))
    return out


def _slide(held, window, now):
    """The ``(scope, ts)`` entries of *held* still in *window* at *now*."""
    if window.kind == "rows":
        count = int(window.preceding or 0)
        return held[max(len(held) - count, 0):] if count else []
    if window.preceding is None:
        return held
    return [(scope, ts) for scope, ts in held if ts >= now - window.preceding]


def _bind(scope, items, tables):
    """Nested-loop join: *scope* extended by one row of each table item."""
    if not items:
        yield scope
        return
    first, rest = items[0], items[1:]
    for row in tables[first.name.lower()]:
        yield from _bind(Scope({**scope.bindings, first.alias: row}), rest, tables)


def _exists(query, outer, catalog, tables, evs=(), anchor=None):
    """Whether sub-query *query* has a row for the *outer* scope; a
    windowed one is anchored at the event *anchor*, and so are the
    sub-queries nested in its WHERE."""
    (item,) = query.from_items
    name = item.name.lower()
    if name in tables:
        candidates = tables[name]
    else:
        window = item.window
        earlier = [e for e in evs[:anchor.index] if e.stream == name]
        if window.kind == "rows":
            count = int(window.preceding or 0)
            earlier = earlier[max(len(earlier) - count, 0):] if count else []
        elif window.preceding is not None:
            earlier = [e for e in earlier if e.ts >= anchor.ts - window.preceding]
        candidates = [e.row for e in earlier]
    plain, probes = _split_where(query)

    def qualifies(row):
        scope = Scope({item.alias: row}, outer)
        return all(value(term, scope) is True for term in plain) and all(
            _exists(sub, scope, catalog, tables, evs, anchor) != negate
            for sub, negate in probes
        )

    return any(
        qualifies(row)
        for row in _bucket(item, plain, outer, catalog[name], candidates)
    )


def _bucket(item, terms, outer, spec, candidates):
    """*candidates* narrowed to the bucket of the correlation keys, when
    the sub-query has any and their outer values evaluate and hash."""
    inner = item.alias.lower()
    typed = {field for field, kind in spec if kind != "any"}
    own = {field for field, _ in spec}

    def inner_field(expr):
        if (
            isinstance(expr, Column) and expr.field in typed
            and (expr.alias is None or expr.alias.lower() == inner)
        ):
            return expr.field
        return None

    def outer_only(expr):
        correlated = False
        for node in expr.walk():
            if not isinstance(node, (Column, Literal, BinaryOp, Negate)):
                return False
            if isinstance(node, Column):
                if (node.alias is None and node.field in own) or (
                    node.alias is not None and node.alias.lower() == inner
                ):
                    return False
                correlated = True
        return correlated

    keys = {}
    for term in terms:
        if isinstance(term, BinaryOp) and term.op == "=":
            for mine, theirs in ((term.left, term.right), (term.right, term.left)):
                field = inner_field(mine)
                if field is not None and outer_only(theirs):
                    keys.setdefault(field, theirs)
                    break
    if not keys:
        return candidates
    try:
        wanted = {field: value(expr, outer) for field, expr in keys.items()}
        hash(tuple(wanted.values()))
    except (LookupError, TypeError):
        return candidates
    return [
        row for row in candidates
        if all(row[field] == want for field, want in wanted.items())
    ]


# ---------------------------------------------------------------------------
# Symmetric windows (Example 8)
# ---------------------------------------------------------------------------


def _symmetric(outer_item, outer_terms, query, negate, items, evs, until):
    (inner_item,) = query.from_items
    before = inner_item.window.preceding or 0.0
    after = inner_item.window.following
    inner_terms = list(iter_and_terms(query.where))
    outer_stream, inner_stream = outer_item.name.lower(), inner_item.name.lower()
    pending = []  # [outer event, deadline], in arrival (= deadline) order
    out = []

    def witness(candidate, outer):
        scope = Scope({outer_item.alias: outer.row, inner_item.alias: candidate.row})
        return (
            candidate.index != outer.index
            and outer.ts - before <= candidate.ts <= outer.ts + after
            and all(value(term, scope) is True for term in inner_terms)
        )

    def emit(outer, ts):
        scope = Scope({outer_item.alias: outer.row})
        out.append((tuple(value(expr, scope) for expr in items), ts))

    def decide(upto):
        for entry in [p for p in pending if p[1] <= upto]:
            pending.remove(entry)
            if negate:
                emit(*entry)

    for e in evs:
        decide(e.ts)
        if e.stream == inner_stream:
            for entry in [p for p in pending if witness(e, p[0])]:
                pending.remove(entry)
                if not negate:
                    emit(entry[0], e.ts)
        if e.stream != outer_stream:
            continue
        if not all(
            value(term, Scope({outer_item.alias: e.row})) is True
            for term in outer_terms
        ):
            continue
        seen = any(
            c.stream == inner_stream and witness(c, e) for c in evs[:e.index]
        )
        if seen or not after:
            if seen != negate:
                emit(e, e.ts)
        else:
            pending.append([e, e.ts + after])
    if until is not None:
        decide(until)
    return out


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------


def _aggregate_calls(expr):
    """The aggregate calls in *expr*."""
    if isinstance(expr, AggregateCall) or (
        isinstance(expr, FunctionCall)
        and expr.name.lower() in AGGREGATES
        and len(expr.args) <= 1
    ):
        return [expr]
    return [call for child in expr.children() for call in _aggregate_calls(child)]


def _fold(call, values):
    """One aggregate over the values its argument took, in row order."""
    name = "count(*)" if isinstance(call, AggregateCall) else call.name.lower()
    if name == "count(*)":
        return len(values)
    present = [v for v in values if v is not None]
    if name == "count":
        return len(present)
    if not present:
        return None
    if name == "avg":
        total = 0.0
        for v in present:
            total += v
        return total / len(present)
    step = {"sum": lambda a, b: a + b, "min": min, "max": max}[name]
    result = present[0]
    for v in present[1:]:
        result = step(result, v)
    return result


class _Grouping:
    """GROUP BY keys, each group's argument values, HAVING and the row."""

    @staticmethod
    def wanted(statement, items):
        return bool(statement.group_by) or any(
            _aggregate_calls(expr) for expr in [*items, statement.having] if expr
        )

    def __init__(self, statement, items):
        self.items = items
        self.having = statement.having
        self.keys = list(statement.group_by)
        self.calls = [
            call for expr in [*items, self.having] if expr
            for call in _aggregate_calls(expr)
        ]
        self.groups = {}  # key -> (first scope, {id(call): [argument values]})

    def key(self, scope):
        return tuple(value(expr, scope) for expr in self.keys) if self.keys else None

    def add(self, scope):
        key = self.key(scope)
        if key not in self.groups:
            self.groups[key] = (scope, {id(call): [] for call in self.calls})
        for call in self.calls:
            arg = call.arg if isinstance(call, AggregateCall) else (call.args or [None])[0]
            self.groups[key][1][id(call)].append(
                1 if arg is None else value(arg, scope)
            )
        return key

    def row(self, key, scope):
        """The row for group *key*, other items read from *scope*; None
        when HAVING rejects it."""
        seen = self.groups[key][1] if key in self.groups else {}
        totals = {id(call): _fold(call, seen.get(id(call), [])) for call in self.calls}
        scope = Scope(scope.bindings, scope.outer, totals)
        if self.having is not None and value(self.having, scope) is not True:
            return None
        return tuple(value(expr, scope) for expr in self.items)

    def step(self, scope):
        """Running aggregate: fold one arrival in, then its group's row."""
        return self.row(self.add(scope), scope)

    def over(self, held, scope):
        """Windowed aggregate: *scope*'s group folded afresh over the
        *held* scopes, then its row."""
        key = self.key(scope)
        self.groups = {}
        for other in held:
            if self.key(other) == key:
                self.add(other)
        return self.row(key, scope)


def one_shot(statement, catalog, tables):
    """Rows of a table-only SELECT."""
    items = _items(statement, catalog)
    plain, probes = _split_where(statement)
    bound = [
        scope for scope in _bind(Scope({}), list(statement.from_items), tables)
        if all(value(term, scope) is True for term in plain)
        and all(
            _exists(query, scope, catalog, tables) != negate
            for query, negate in probes
        )
    ]
    if not _Grouping.wanted(statement, items):
        return [tuple(value(expr, scope) for expr in items) for scope in bound]
    grouping = _Grouping(statement, items)
    for scope in bound:
        grouping.add(scope)
    if not grouping.groups and not grouping.keys:
        try:
            row = grouping.row(None, Scope({}))
        except LookupError:
            return []
        return [] if row is None else [row]
    rows = (grouping.row(key, first) for key, (first, _) in grouping.groups.items())
    return [row for row in rows if row is not None]
