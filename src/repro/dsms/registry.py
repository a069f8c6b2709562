"""Shared multi-query execution: registry, predicate routing, plan dedup.

One :class:`~repro.dsms.engine.Engine` normally runs one compiled plan; a
production deployment runs thousands of concurrent continuous queries over
the same RFID streams.  :class:`QueryRegistry` makes N registered queries
cost far less than N engines, three ways:

* **Shared ingestion.**  Every query compiles into the one engine, so
  stream admission, schema decode and clock advancement run once per
  tuple for the whole registry, not once per query.

* **Predicate-indexed routing.**  Each compiled plan's stream callbacks
  are relocated behind a per-stream :class:`StreamRouter`.  Plans whose
  admission predicates hoist to literal equality/range constraints on one
  field (the SASE predicate-index idea, reusing the same single-alias
  conjunct analysis as the shard-routing key hoist) enter that field's
  index: a hash bucket per equality value, and a stabbing index over the
  range entries' numeric endpoints, so a number finds the ranges that
  hold it with one ``bisect``.  Values the stabbing index cannot place
  (strings, ``bool``, NaN), and every value on a field holding a range
  it cannot (non-numeric or infinite endpoints, or an equality set
  beside the ranges), are decided by :meth:`AdmissionConstraint.admits`
  one range entry at a time.
  Plans with no gate sit on a residual list that sees every tuple.
  Routing may over-admit — a plan re-checks delivered tuples with its
  own compiled predicate — but never under-admits.  The one exception
  is the parameterized literal below, which the equality index decides
  exactly (an unhashable value is compared with each key by ``==``).

* **One plan per query shape.**  Statements are fingerprinted
  structurally; N registrations of an identical query share one
  compiled plan (one SEQ operator, one NFA state set) and fan out
  per-subscriber at the emit stage: the plan's
  :meth:`SharedPlan.deliver` is the compiled query's output callback
  and hands each answer to every live subscriber.  A plain filter whose
  router gate is a single ``column = literal`` (a ``str``, ``int`` or
  ``float``; see :func:`_literal_slot`) is fingerprinted and compiled
  without that conjunct, so registrations differing only in the literal
  share one plan: they are parsed and fingerprinted but never analyzed
  or compiled again.  Each literal is one equality-index entry with its
  own subscribers (:class:`_KeyEntry`), which points the plan's fan-out
  at them before it runs the plan on a tuple.  Range gates stay in
  their plans: :meth:`AdmissionConstraint.admits` over-admits on a
  ``TypeError``, where the plan's own comparison raises.

Subscribers register/cancel at runtime (the SesameStream subscription
model): :meth:`QueryRegistry.register` returns a :class:`Subscription`
whose answers arrive on its own sink, and :meth:`Subscription.cancel` is
an idempotent detach that frees all per-query state.

Routing soundness notes (why gating a tuple away from a plan is exact):

* Filter plans evaluate WHERE strictly per tuple with no cross-tuple
  state, so dropping a tuple that provably fails an indexed conjunct
  cannot change any other output row.  NULL field values fail strict
  comparisons, so a strict gate drops them.
* Temporal SEQ plans are gated only when the pairing mode is not
  CONSECUTIVE (where non-matching arrivals interrupt runs) and no
  argument is starred: on
  those plans the operator's own admission check drops exactly the same
  tuples before *any* state mutation, so upstream gating is
  output-identical.  SEQ admission is lenient — a NULL comparison passes
  — so temporal gates deliver NULL-valued rows.
* Everything else (EXCEPTION_SEQ/CLEVEL, CONSECUTIVE, starred args,
  EXISTS probes, aggregates with window buffers)
  routes through the residual list and sees every tuple, exactly as if
  directly subscribed.
"""

from __future__ import annotations

import itertools
import math
import re
from bisect import bisect_left
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..core.language.ast_nodes import (
    ExistsPredicate,
    PreviousRef,
    SeqPredicate,
    StarAggregate,
    iter_and_terms,
)
from ..core.language.parser import AggregateCall
from .engine import Collector, Engine, QueryHandle
from .errors import EslSemanticError
from .expressions import (
    AdmissionConstraint,
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
    Negate,
    Not,
    Or,
    admission_constraint,
)
from .schema import Schema
from .streams import Stream
from .tuples import Tuple

__all__ = [
    "QueryRegistry",
    "StreamRouter",
    "Subscription",
    "fingerprint_statement",
]


# ---------------------------------------------------------------------------
# Statement fingerprinting (sub-plan dedup keys)
# ---------------------------------------------------------------------------


def _fp_expr(expr: Any) -> Any:
    """A hashable structural fingerprint of an expression tree.

    Node reprs are not uniformly complete (``Case``, ``ExistsPredicate``
    elide children), so the fingerprint recurses explicitly over the node
    kinds that carry semantics and falls back to ``(repr, children)`` for
    anything else.  Alias/field case is preserved: resolution is
    case-insensitive but output column naming is not, so case-variant
    twins must not dedupe into one schema.
    """
    if expr is None:
        return None
    if isinstance(expr, Literal):
        return ("lit", type(expr.value).__name__, expr.value)
    if isinstance(expr, Column):
        return ("col", expr.alias, expr.field)
    if isinstance(expr, BinaryOp):
        return ("bin", expr.op, _fp_expr(expr.left), _fp_expr(expr.right))
    if isinstance(expr, (And, Or)):
        return (
            type(expr).__name__.lower(),
            tuple(_fp_expr(op) for op in expr.operands),
        )
    if isinstance(expr, (Not, Negate)):
        return (type(expr).__name__.lower(), _fp_expr(expr.operand))
    if isinstance(expr, IsNull):
        return ("isnull", expr.negate, _fp_expr(expr.operand))
    if isinstance(expr, Between):
        return (
            "between", expr.negate, _fp_expr(expr.operand),
            _fp_expr(expr.low), _fp_expr(expr.high),
        )
    if isinstance(expr, InList):
        return (
            "in", expr.negate, _fp_expr(expr.operand),
            tuple(_fp_expr(option) for option in expr.options),
        )
    if isinstance(expr, Like):
        return (
            "like", expr.negate, _fp_expr(expr.operand),
            _fp_expr(expr.pattern),
        )
    if isinstance(expr, FunctionCall):
        return (
            "fn", expr.name.lower(),
            tuple(_fp_expr(arg) for arg in expr.args),
        )
    if isinstance(expr, Case):
        return (
            "case",
            tuple(
                (_fp_expr(cond), _fp_expr(value))
                for cond, value in expr.branches
            ),
            _fp_expr(expr.default),
        )
    if isinstance(expr, SeqPredicate):
        return (
            "seq", expr.op_name, expr.mode, repr(expr.window),
            tuple((arg.name, arg.starred) for arg in expr.args),
        )
    if isinstance(expr, ExistsPredicate):
        return ("exists", expr.negate, fingerprint_statement(expr.query))
    if isinstance(expr, StarAggregate):
        return ("stagg", expr.func, expr.alias, expr.field)
    if isinstance(expr, PreviousRef):
        return ("prev", expr.alias, expr.field)
    return (
        "node", type(expr).__name__, repr(expr),
        tuple(_fp_expr(child) for child in expr.children()),
    )


def fingerprint_statement(statement: Any) -> Any:
    """A hashable dedup key for a parsed SELECT statement.

    Structurally identical statements (same select list, sources,
    windows, WHERE conjuncts, grouping) share a key and therefore one
    compiled plan.  Statements the fingerprint cannot hash fall back to
    an identity key, which disables dedup for them but never mis-shares.
    """
    fp = (
        "select",
        statement.select_star,
        tuple(
            (_fp_expr(item.expr), item.alias)
            for item in statement.select_items
        ),
        tuple(
            (item.name.lower(), item.alias, repr(item.window))
            for item in statement.from_items
        ),
        _fp_expr(statement.where),
        tuple(_fp_expr(expr) for expr in statement.group_by),
        _fp_expr(statement.having),
        statement.insert_into,
    )
    try:
        hash(fp)
    except TypeError:
        return ("identity", id(statement))
    return fp


# ---------------------------------------------------------------------------
# Subscriptions
# ---------------------------------------------------------------------------


class Subscription:
    """A registered query's per-subscriber handle.

    Answers arrive on :attr:`on_answer` when given, else accumulate in
    :attr:`collector` (a :class:`~repro.dsms.engine.Collector`, read via
    :attr:`results` / :meth:`rows`).  :attr:`sink` is whichever of the two
    the plan delivers to.  :meth:`cancel` detaches idempotently.
    """

    __slots__ = (
        "id", "text", "on_answer", "collector", "sink", "active", "plan",
        "entry", "_owner",
    )

    def __init__(
        self,
        owner: Any,
        sub_id: int,
        text: str,
        on_answer: Callable[[Tuple], None] | None,
        schema: Schema | None,
    ) -> None:
        self.id = sub_id
        self.text = text
        self.on_answer = on_answer
        self.collector = (
            Collector(f"sub#{sub_id}", schema) if on_answer is None else None
        )
        self.sink: Callable[[Tuple], None] = (
            self.collector if on_answer is None else on_answer
        )
        self.active = True
        self.plan: "SharedPlan | None" = None
        # The literal's entry when the plan is parameterized, else None.
        self.entry: "_KeyEntry | None" = None
        self._owner = owner

    @property
    def results(self) -> list[Tuple]:
        """Accumulated answers (always empty when :attr:`on_answer` is set)."""
        return [] if self.collector is None else self.collector.results

    def rows(self) -> list[dict[str, Any]]:
        """Accumulated answers as plain dicts."""
        return [] if self.collector is None else self.collector.rows()

    def cancel(self) -> None:
        """Detach from the registry.  Safe to call repeatedly."""
        self._owner.cancel(self)

    def __repr__(self) -> str:
        state = "active" if self.active else "cancelled"
        answers = 0 if self.collector is None else len(self.collector)
        return f"Subscription(#{self.id}, {state}, {answers} answers)"


# ---------------------------------------------------------------------------
# Per-stream predicate-indexed routing
# ---------------------------------------------------------------------------


class _PlanEntry:
    """One plan's relocated callbacks on one stream, plus its gate."""

    __slots__ = ("plan", "callbacks", "constraint", "lenient")

    def __init__(
        self,
        plan: "SharedPlan",
        callbacks: Sequence[Callable[[Tuple], None]],
        constraint: AdmissionConstraint | None,
        lenient: bool,
    ) -> None:
        self.plan = plan
        self.callbacks = tuple(callbacks)
        self.constraint = constraint
        self.lenient = lenient

    def deliver(self, tup: Tuple) -> None:
        for callback in self.callbacks:
            callback(tup)


class _Fanout:
    """The subscribers one answer stream is handed to: ``sinks`` (the
    :class:`Subscription` objects) and ``fanout``, their sink callables."""

    __slots__ = ()

    def attach(self, subscription: Subscription) -> None:
        self.sinks.append(subscription)
        self.fanout = self.fanout + (subscription.sink,)

    def detach(self, subscription: Subscription) -> None:
        if subscription in self.sinks:
            self.sinks.remove(subscription)
        self.fanout = tuple(sub.sink for sub in self.sinks)


class _KeyEntry(_PlanEntry, _Fanout):
    """One literal of a parameterized plan: its equality-index entry and
    its own subscribers.

    The shared plan's WHERE no longer tests the literal; this entry's
    bucket in the router is the only place it lives.  A filter plan emits
    synchronously inside its stream callback, so pointing the plan's
    fan-out at this literal's sinks before calling it routes each answer
    to exactly the subscribers of the literal that admitted the tuple.
    """

    __slots__ = ("key", "sinks", "fanout")

    def __init__(
        self,
        plan: "SharedPlan",
        callbacks: Sequence[Callable[[Tuple], None]],
        field: str,
        key: Any,
    ) -> None:
        super().__init__(
            plan, callbacks, AdmissionConstraint(field, frozenset((key,))), False
        )
        self.key = key
        self.sinks: list[Subscription] = []
        self.fanout: tuple[Callable[[Tuple], None], ...] = ()

    def deliver(self, tup: Tuple) -> None:
        self.plan.fanout = self.fanout
        for callback in self.callbacks:
            callback(tup)


def _field_position(schema: Schema, field: str) -> int | None:
    """*field*'s position in *schema*, matched case-insensitively."""
    if field in schema:
        return schema.position(field)
    key = field.lower()
    for position, name in enumerate(schema.names):
        if name.lower() == key:
            return position
    return None


def _finite(end: Any) -> bool:
    """Whether a range endpoint is a finite ``int``/``float`` (not bool)."""
    kind = type(end)
    return kind is int or (kind is float and math.isfinite(end))


def _stabbable(constraint: AdmissionConstraint) -> bool:
    """Whether the stabbing index decides *constraint* exactly: ranges
    only, every endpoint open or a finite number."""
    return constraint.values is None and all(
        end is None or _finite(end)
        for lo, hi, _lo_incl, _hi_incl in constraint.ranges
        for end in (lo, hi)
    )


class _FieldIndex:
    """The router's index for one gated field of one stream.

    Range entries (``scan``, in registration order) are also held in a
    stabbing index when every one of them is stabbable (``stabbing``).
    Its ``points`` are their distinct endpoints, sorted, with ``inf``
    appended as a sentinel; for ``i = bisect_left(points, v)``, ``at[i]``
    holds the entries admitting ``v == points[i]`` and ``between[i]``
    those admitting a value strictly between ``points[i - 1]`` and
    ``points[i]`` (2k+1 distinct slots for k endpoints; ``at[k]`` is
    ``between[k]``, everything above the last).  Every slot is a tuple in
    registration order.  A field with an entry the slots cannot decide
    keeps no points and scans ``scan`` with ``admits``.  ``scan_lenient``
    holds the range entries a NULL passes.  All of these are derived from
    ``scan`` by :meth:`rebuild`, run lazily on the first dispatch after a
    range entry comes or goes (``points is None``).
    """

    __slots__ = (
        "field", "position", "eq", "lenient", "scan",
        "points", "at", "between", "stabbing", "scan_lenient", "fallbacks",
    )

    def __init__(self, field: str, position: int) -> None:
        self.field = field
        self.position = position
        self.eq: dict[Any, list[_PlanEntry]] = {}
        self.lenient: list[_PlanEntry] = []  # eq-only entries passing NULL
        self.scan: list[_PlanEntry] = []     # entries with range components
        self.points: list[Any] | None = None
        self.at: list[tuple[_PlanEntry, ...]] = []
        self.between: list[tuple[_PlanEntry, ...]] = []
        self.stabbing = True
        self.scan_lenient: tuple[_PlanEntry, ...] = ()
        # Tuples whose value needed admits(): it could not be stabbed
        # (not an int/float, a bool or NaN), or ``stabbing`` is False; and
        # unhashable values, which also scan the equality keys with ``==``.
        self.fallbacks = 0

    @property
    def empty(self) -> bool:
        return not self.eq and not self.lenient and not self.scan

    def rebuild(self) -> None:
        """Derive the stabbing index from ``scan`` in one sort and sweep."""
        self.stabbing = all(_stabbable(e.constraint) for e in self.scan)
        exact = self.scan if self.stabbing else []
        points = sorted({
            end
            for entry in exact
            for lo, hi, _lo_incl, _hi_incl in entry.constraint.ranges
            for end in (lo, hi)
            if end is not None
        })
        rank = {point: i for i, point in enumerate(points)}
        # Slot 2i is the open interval below points[i], slot 2i+1 the
        # point itself, slot 2k everything above the last point.
        slots: list[list[_PlanEntry]] = [[] for _ in range(2 * len(points) + 1)]
        for entry in exact:
            for lo, hi, lo_incl, hi_incl in entry.constraint.ranges:
                first = 0 if lo is None else 2 * rank[lo] + (1 if lo_incl else 2)
                last = (
                    len(slots) - 1 if hi is None
                    else 2 * rank[hi] + (1 if hi_incl else 0)
                )
                for slot in slots[first:last + 1]:
                    if not slot or slot[-1] is not entry:
                        slot.append(entry)
        self.between = [tuple(slot) for slot in slots[::2]]
        self.at = [tuple(slot) for slot in slots[1::2]] + [self.between[-1]]
        self.points = points + [math.inf]
        self.scan_lenient = tuple(e for e in self.scan if e.lenient)

    def stab(self, value: Any) -> tuple[_PlanEntry, ...]:
        """The range entries admitting *value*, a non-NaN int or float,
        on a built index with ``stabbing`` set."""
        points = self.points
        i = bisect_left(points, value)
        return self.at[i] if points[i] == value else self.between[i]


class StreamRouter:
    """The single subscriber a routed stream fans out through.

    Holds the predicate index: per-field equality buckets and a stabbing
    index over range entries, plus the residual list for plans whose
    predicates did not hoist.  A tuple costs one hash lookup per indexed
    field and, on a field with range entries, one ``bisect`` when its
    value is an ``int``/``float`` (other values scan the range entries
    with ``admits``), plus the residual list — independent of how many
    equality- or range-routed plans are registered.
    """

    def __init__(self, stream: Stream) -> None:
        self.stream = stream
        self.residual: list[_PlanEntry] = []
        self._fields: dict[str, _FieldIndex] = {}
        self._field_list: tuple[_FieldIndex, ...] = ()
        self.dispatched = 0
        self.delivered = 0
        self._unsubscribe: Callable[[], None] | None = stream.subscribe(self)

    # -- registration -----------------------------------------------------

    def add(
        self,
        plan: "SharedPlan",
        callbacks: Sequence[Callable[[Tuple], None]],
        constraint: AdmissionConstraint | None,
        lenient: bool,
    ) -> _PlanEntry:
        return self.insert(_PlanEntry(plan, callbacks, constraint, lenient))

    def insert(self, entry: _PlanEntry) -> _PlanEntry:
        constraint = entry.constraint
        position = (
            _field_position(self.stream.schema, constraint.field)
            if constraint is not None
            else None
        )
        if constraint is None or position is None:
            entry.constraint = None
            self.residual.append(entry)
        else:
            index = self._fields.get(constraint.field.lower())
            if index is None:
                index = _FieldIndex(constraint.field, position)
                self._fields[constraint.field.lower()] = index
                self._field_list = tuple(self._fields.values())
            if constraint.ranges:
                index.scan.append(entry)
                index.points = None
            else:
                for value in constraint.values or ():
                    index.eq.setdefault(value, []).append(entry)
                if entry.lenient:
                    index.lenient.append(entry)
        return entry

    def remove(self, entry: _PlanEntry) -> None:
        constraint = entry.constraint
        if constraint is None:
            if entry in self.residual:
                self.residual.remove(entry)
            return
        index = self._fields.get(constraint.field.lower())
        if index is None:
            return
        if constraint.ranges:
            if entry in index.scan:
                index.scan.remove(entry)
                index.points = None
        else:
            for value in constraint.values or ():
                bucket = index.eq.get(value)
                if bucket and entry in bucket:
                    bucket.remove(entry)
                    if not bucket:
                        del index.eq[value]
            if entry.lenient and entry in index.lenient:
                index.lenient.remove(entry)
        if index.empty:
            del self._fields[constraint.field.lower()]
            self._field_list = tuple(self._fields.values())

    @property
    def empty(self) -> bool:
        return not self.residual and not self._fields

    def close(self) -> None:
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    # -- dispatch ---------------------------------------------------------

    def __call__(self, tup: Tuple) -> None:
        self.dispatched += 1
        delivered = self.delivered
        values = tup.values
        for index in self._field_list:
            value = values[index.position]
            if value is None:
                for entry in index.lenient:
                    delivered += 1
                    entry.deliver(tup)
                if index.scan:
                    if index.points is None:
                        index.rebuild()
                    for entry in index.scan_lenient:
                        delivered += 1
                        entry.deliver(tup)
                continue
            try:
                bucket = index.eq.get(value)
            except TypeError:
                # Unhashable: compare with every key, as the plans' own
                # ``=`` would, then scan the range entries.
                index.fallbacks += 1
                for key, bucket in list(index.eq.items()):
                    if key == value:
                        for entry in bucket:
                            delivered += 1
                            entry.deliver(tup)
                for entry in index.scan:
                    if entry.constraint.admits(value):
                        delivered += 1
                        entry.deliver(tup)
                continue
            if bucket:
                for entry in bucket:
                    delivered += 1
                    entry.deliver(tup)
            if not index.scan:
                continue
            kind = type(value)
            if (kind is float or kind is int) and value == value:
                if index.points is None:
                    index.rebuild()
                if index.stabbing:
                    for entry in index.stab(value):
                        delivered += 1
                        entry.deliver(tup)
                    continue
            index.fallbacks += 1
            for entry in index.scan:
                if entry.constraint.admits(value):
                    delivered += 1
                    entry.deliver(tup)
        for entry in self.residual:
            delivered += 1
            entry.deliver(tup)
        self.delivered = delivered

    # -- introspection ----------------------------------------------------

    def describe(self) -> dict[str, Any]:
        for index in self._field_list:
            if index.points is None:
                index.rebuild()
        return {
            "stream": self.stream.name,
            "fields": [
                {
                    "field": index.field,
                    "eq_keys": len(index.eq),
                    "eq_entries": sum(len(b) for b in index.eq.values()),
                    "range_entries": len(index.scan),
                    "range_points": len(index.points) - 1,
                    "range_fallbacks": index.fallbacks,
                    "lenient_entries": len(index.lenient),
                }
                for index in self._field_list
            ],
            "residual": len(self.residual),
            "dispatched": self.dispatched,
            "delivered": self.delivered,
        }

    def __repr__(self) -> str:
        return (
            f"StreamRouter({self.stream.name!r}, "
            f"fields={len(self._fields)}, residual={len(self.residual)})"
        )


# ---------------------------------------------------------------------------
# Shared plans and the registry
# ---------------------------------------------------------------------------


class SharedPlan(_Fanout):
    """One compiled plan shared by every query of one shape.

    :meth:`deliver` is the compiled query's output callback — the dedup
    fan-out point — handing each answer to every sink in :attr:`fanout`.
    A plain plan's subscribers are :attr:`sinks`.  A parameterized plan
    (:attr:`keys` is not None) serves one gated ``column = literal`` per
    key: each :class:`_KeyEntry` holds its literal's subscribers and
    points :attr:`fanout` at them while it delivers; :attr:`gate` is the
    ``(router, callbacks, field)`` a new literal's entry is built from.
    """

    __slots__ = (
        "fingerprint", "text", "handle", "entries", "sinks", "fanout",
        "gate", "keys",
    )

    def __init__(self, fingerprint: Any, text: str) -> None:
        self.fingerprint = fingerprint
        self.text = text
        self.handle: QueryHandle | None = None
        self.entries: list[tuple[StreamRouter, _PlanEntry]] = []
        self.sinks: list[Subscription] = []
        self.fanout: tuple[Callable[[Tuple], None], ...] = ()
        self.gate: tuple[StreamRouter, tuple, str] | None = None
        self.keys: dict[Any, _KeyEntry] | None = None

    def deliver(self, tup: Tuple) -> None:
        for sink in self.fanout:
            sink(tup)

    def subscriptions(self) -> list[Subscription]:
        if self.keys is None:
            return list(self.sinks)
        return [sub for entry in self.keys.values() for sub in entry.sinks]

    def __repr__(self) -> str:
        return (
            f"SharedPlan({self.handle.name!r}, "
            f"{len(self.subscriptions())} subscribers)"
        )


class QueryRegistry:
    """Register/cancel continuous queries sharing one engine.

    See the module docstring for the execution model.  The registry owns
    no ingestion API — push tuples at the engine (or through
    :class:`~repro.dsms.multi_engine.MultiQueryEngine`, which wraps both).
    """

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.closed = False
        self._plans: dict[Any, SharedPlan] = {}
        self._routers: dict[str, StreamRouter] = {}
        self._counter = itertools.count(1)
        self._plan_counter = itertools.count(1)

    # -- registration -----------------------------------------------------

    def register(
        self,
        text: str,
        on_answer: Callable[[Tuple], None] | None = None,
        name: str | None = None,
    ) -> Subscription:
        """Compile (or share) *text* and subscribe a sink to its answers.

        *text* must be a single SELECT without INSERT INTO — registered
        queries deliver to per-subscriber sinks, not shared tables or
        derived streams.  Returns a live :class:`Subscription`.
        """
        if self.closed:
            raise EslSemanticError("query registry is closed")
        statement = _parse_select(text)
        if all(item.name in self.engine.tables for item in statement.from_items):
            raise EslSemanticError(
                "a SELECT over tables only answers once, when it is "
                "compiled, so there is nothing to subscribe to; run it "
                "with Engine.query or Engine.snapshot"
            )
        slot = _literal_slot(statement, self.engine)
        if slot is None:
            fingerprint = fingerprint_statement(statement)
        else:
            # The gated conjunct leaves the statement: its literal lives
            # only in the router, so every literal shares one plan.
            term, field, value = slot
            statement.where = _without(statement.where, term)
            fingerprint = (
                "param", field.lower(), type(value).__name__,
                fingerprint_statement(statement),
            )
        plan = self._plans.get(fingerprint)
        if plan is None:
            plan = self._compile_plan(statement, text, fingerprint, name, slot)
            self._plans[fingerprint] = plan
        subscription = Subscription(
            self, next(self._counter), text, on_answer, plan.handle.schema
        )
        subscription.plan = plan
        if slot is None:
            plan.attach(subscription)
            return subscription
        entry = plan.keys.get(value)
        if entry is None:
            router, callbacks, field = plan.gate
            entry = plan.keys[value] = router.insert(
                _KeyEntry(plan, callbacks, field, value)
            )
        subscription.entry = entry
        entry.attach(subscription)
        return subscription

    def _compile_plan(
        self,
        statement: Any,
        text: str,
        fingerprint: Any,
        name: str | None,
        slot: tuple[Any, str, Any] | None,
    ) -> SharedPlan:
        # Not engine.query(text): the statement is already parsed, and the
        # compiler's Analysis (left on the handle) feeds the gates below.
        from ..core.language.compiler import compile_statement

        engine = self.engine
        before = {
            stream.name: stream.subscriber_count for stream in engine.streams
        }
        plan = SharedPlan(
            fingerprint, text if slot is None else _shape_text(text, *slot[1:])
        )
        handle = plan.handle = compile_statement(
            engine,
            statement,
            name or f"mq{next(self._plan_counter)}",
            plan.deliver,
        )
        gates, lenient = (
            _plan_gates(handle.analysis) if slot is None else ({}, False)
        )
        entries: list[tuple[StreamRouter, _PlanEntry]] = []
        for stream in engine.streams:
            taken = stream.take_subscribers(before.get(stream.name, 0))
            if not taken:
                continue
            router = self._routers.get(stream.name.lower())
            if router is None:
                router = StreamRouter(stream)
                self._routers[stream.name.lower()] = router
            if slot is not None:  # one stream source: see _literal_slot
                plan.gate = (router, tuple(taken), slot[1])
                plan.keys = {}
                continue
            entry = router.add(
                plan, taken, gates.get(stream.name.lower()), lenient
            )
            entries.append((router, entry))
        plan.entries = entries
        return plan

    # -- cancellation -----------------------------------------------------

    def cancel(self, subscription: Subscription) -> None:
        """Detach *subscription*; tears the plan down after the last one.

        A parameterized plan's literal leaves the router with its last
        subscriber, so cancelling costs work in that literal's subscribers,
        not the plan's.  Idempotent: cancelling an already-cancelled
        subscription (or one belonging to a closed registry) is a no-op.
        """
        if not subscription.active:
            return
        subscription.active = False
        plan = subscription.plan
        if plan is None:
            return
        entry = subscription.entry
        owner = plan if entry is None else entry
        owner.detach(subscription)
        if owner.sinks:
            return
        if entry is not None:
            del plan.keys[entry.key]
            self._unroute(plan.gate[0], entry)
            if plan.keys:
                return
        self._teardown_plan(plan)

    def _unroute(self, router: StreamRouter, entry: _PlanEntry) -> None:
        router.remove(entry)
        if router.empty:
            router.close()
            self._routers.pop(router.stream.name.lower(), None)

    def _teardown_plan(self, plan: SharedPlan) -> None:
        self._plans.pop(plan.fingerprint, None)
        for router, entry in plan.entries:
            self._unroute(router, entry)
        plan.entries = []
        # stop() cancels operator timers and is already idempotent; the
        # stream unsubscribes inside it are no-ops for moved callbacks.
        plan.handle.stop()

    def close(self) -> None:
        """Cancel every subscription and release all routers.  Idempotent."""
        if self.closed:
            return
        for plan in list(self._plans.values()):
            for subscription in plan.subscriptions():
                self.cancel(subscription)
        self.closed = True

    def __enter__(self) -> "QueryRegistry":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- introspection ----------------------------------------------------

    @property
    def subscription_count(self) -> int:
        return sum(len(plan.subscriptions()) for plan in self._plans.values())

    @property
    def plan_count(self) -> int:
        return len(self._plans)

    def plans(self) -> Iterator[SharedPlan]:
        return iter(self._plans.values())

    def routers(self) -> Iterator[StreamRouter]:
        return iter(self._routers.values())

    def state_size(self) -> int:
        """Total operator state held across all shared plans (O(plans))."""
        total = 0
        for plan in self._plans.values():
            operator = getattr(plan.handle, "operator", None)
            if operator is not None:
                total += operator.state_size
        return total

    def stats(self) -> dict[str, Any]:
        indexed = residual = 0
        for router in self._routers.values():
            residual += len(router.residual)
            for index in router._field_list:
                indexed += len(index.scan) + len(index.lenient)
                seen = set()
                for bucket in index.eq.values():
                    for entry in bucket:
                        seen.add(id(entry))
                indexed += len(seen - {id(e) for e in index.lenient})
        return {
            "subscriptions": self.subscription_count,
            "shared_plans": self.plan_count,
            "streams_routed": len(self._routers),
            "indexed_entries": indexed,
            "residual_entries": residual,
            "tuples_routed": sum(
                router.dispatched for router in self._routers.values()
            ),
            "deliveries": sum(
                router.delivered for router in self._routers.values()
            ),
            "state_size": self.state_size(),
        }

    def __repr__(self) -> str:
        return (
            f"QueryRegistry(plans={self.plan_count}, "
            f"subscriptions={self.subscription_count}, "
            f"routers={len(self._routers)})"
        )


# ---------------------------------------------------------------------------
# Gate derivation
# ---------------------------------------------------------------------------


def _parse_select(text: str) -> Any:
    """Parse *text* as exactly one sink-less SELECT, or raise."""
    from ..core.language.ast_nodes import SelectStatement
    from ..core.language.parser import parse_program

    statements = parse_program(text)
    if len(statements) != 1 or not isinstance(statements[0], SelectStatement):
        raise EslSemanticError(
            "registered queries must be a single SELECT statement; run DDL "
            "through the engine (or MultiQueryEngine catalog methods) first"
        )
    statement = statements[0]
    if statement.insert_into is not None:
        raise EslSemanticError(
            "registered queries deliver answers to subscriber sinks; "
            "INSERT INTO is not supported — subscribe instead"
        )
    return statement


def _single_alias_terms(
    terms: Sequence[Any], alias: str, allow_bare: bool
) -> list[Any]:
    """Conjuncts whose column references all belong to *alias*."""
    alias_key = alias.lower()
    out = []
    for term in terms:
        ok = True
        any_ref = False
        for ref_alias, _field in term.references():
            any_ref = True
            if ref_alias is None:
                if not allow_bare:
                    ok = False
                    break
            elif ref_alias.lower() != alias_key:
                ok = False
                break
        if ok and any_ref:
            out.append(term)
    return out


def _any_node(expr: Any, test: Callable[[Any], bool]) -> bool:
    """Whether *test* holds for *expr* or any node below it."""
    return test(expr) or any(_any_node(child, test) for child in expr.children())


def _not_per_tuple(node: Any) -> bool:
    """Nodes that take a WHERE out of the plain per-tuple filter: temporal
    operators, EXISTS probes and PREVIOUS references."""
    return isinstance(node, (SeqPredicate, ExistsPredicate, PreviousRef))


def _literal_slot(statement: Any, engine: Engine) -> tuple[Any, str, Any] | None:
    """The ``column = literal`` conjunct the router can decide alone, as
    ``(conjunct, field, literal)``, or None.

    The conjunct may leave the plan only where nothing would re-check it
    and the equality index decides it exactly: a plain filter (one
    stream in FROM; no grouping, aggregate, temporal operator, EXISTS or
    PREVIOUS) whose router gate (:func:`_plan_gates`) is one ``=``
    against a ``str``, ``int`` or ``float`` literal, on a field of the
    stream that no other conjunct indexes.  Python ``==`` (the plan's
    ``=``) and the index's hash lookup then agree on every non-NULL
    value, and a NULL fails both.
    """
    if (
        statement.group_by
        or statement.having is not None
        or len(statement.from_items) != 1
    ):
        return None
    source = statement.from_items[0]
    if source.name not in engine.streams:
        return None
    terms = list(iter_and_terms(statement.where))
    if any(_any_node(term, _not_per_tuple) for term in terms):
        return None
    aggregates = engine.aggregates

    def aggregate(node: Any) -> bool:
        return isinstance(node, (AggregateCall, StarAggregate)) or (
            isinstance(node, FunctionCall)
            and node.name.lower() in aggregates
            and len(node.args) <= 1
        )

    if any(_any_node(item.expr, aggregate) for item in statement.select_items):
        return None
    alias = source.alias
    terms = _single_alias_terms(terms, alias, True)
    gate = admission_constraint(terms, alias, True)
    if gate is None or gate.values is None or len(gate.values) != 1:
        return None
    field = gate.field.lower()
    gated = [
        term for term in terms
        if (own := admission_constraint([term], alias, True)) is not None
        and own.field.lower() == field
    ]
    if len(gated) != 1 or not isinstance(gated[0], BinaryOp) or gated[0].op != "=":
        return None
    (value,) = gate.values
    kind = type(value)
    if not (kind is str or kind is int or (kind is float and value == value)):
        return None
    if _field_position(engine.streams.get(source.name).schema, field) is None:
        return None
    return gated[0], gate.field, value


def _without(where: Any, term: Any) -> Any:
    """*where* with the top-level conjunct *term* removed."""
    rest = [other for other in iter_and_terms(where) if other is not term]
    if not rest:
        return None
    return rest[0] if len(rest) == 1 else And(*rest)


#: How the lexer spells an ``int`` and a ``float`` literal.
_SPELLING = {
    int: r"[0-9]+(?![.eE0-9])",
    float: r"[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?",
}


def _shape_text(text: str, field: str, value: Any) -> str:
    """*text* with its gated literal written ``?``: a parameterized plan
    shows its shape, not the literal it was first registered with.
    Returns *text* unchanged when the conjunct is not found in it."""
    kind = type(value)
    if kind is str:
        literal = re.escape("'" + value.replace("'", "''") + "'")
    else:
        literal = _SPELLING[kind]
    column = r"(?<![\w.])(?:\w+\s*\.\s*)?" + re.escape(field) + r"(?!\w)"
    for pattern in (
        column + r"\s*=\s*(" + literal + ")",
        r"(" + literal + r")\s*=\s*" + column,
    ):
        for match in re.finditer(pattern, text, re.IGNORECASE):
            spelled = match.group(1)
            if kind is str or kind(spelled) == value:
                start, end = match.span(1)
                return text[:start] + "?" + text[end:]
    return text


def _plan_gates(
    analysis: Any,
) -> tuple[Mapping[str, AdmissionConstraint], bool]:
    """Derive per-stream routing gates from a compiled plan's Analysis.

    Returns ``({stream_name_lower: constraint}, lenient)``.  Streams
    absent from the mapping route residually.  Gating is conservative:
    any shape whose upstream drop is not provably output-identical gets
    no gate (see the module docstring's soundness notes).
    """
    from ..core.operators.base import PairingMode

    if analysis.exists_terms:
        return {}, False
    if analysis.kind == "filter":
        streams = [s for s in analysis.sources if s.is_stream]
        if len(streams) != 1:
            return {}, False
        source = streams[0]
        tables = [s for s in analysis.sources if s.is_table]
        allow_bare = not tables
        terms = _single_alias_terms(
            analysis.guard_terms, source.alias, allow_bare
        )
        constraint = admission_constraint(terms, source.alias, allow_bare)
        if constraint is None:
            return {}, False
        return {source.name.lower(): constraint}, False
    if analysis.kind != "temporal":
        return {}, False
    # Temporal plans: SEQ only, non-CONSECUTIVE, star-free.
    if analysis.clevel is not None:
        return {}, True
    predicate = analysis.temporal
    if predicate is None or predicate.op_name != "SEQ":
        return {}, True
    try:
        mode = (
            PairingMode.parse(predicate.mode)
            if predicate.mode is not None
            else PairingMode.UNRESTRICTED
        )
    except Exception:  # noqa: BLE001 - unknown mode: compiler will reject
        return {}, True
    if mode is PairingMode.CONSECUTIVE:
        return {}, True
    if any(arg.starred for arg in predicate.args):
        return {}, True
    arg_aliases = {arg.name.lower() for arg in predicate.args}
    alias_streams: dict[str, str] = {}
    for source in analysis.sources:
        if source.is_stream and source.alias.lower() in arg_aliases:
            alias_streams[source.alias.lower()] = source.name.lower()
    gates: dict[str, AdmissionConstraint] = {}
    dead: set[str] = set()
    for alias in arg_aliases:
        stream_key = alias_streams.get(alias)
        if stream_key is None:
            return {}, True  # alias without a stream source: stay residual
        if stream_key in dead:
            continue
        terms = _single_alias_terms(analysis.guard_terms, alias, False)
        constraint = admission_constraint(terms, alias, False)
        if constraint is None:
            # One unconstrained alias makes its whole stream unindexable
            # (the stream-level gate is the union over its aliases).
            gates.pop(stream_key, None)
            dead.add(stream_key)
            continue
        existing = gates.get(stream_key)
        if existing is None:
            gates[stream_key] = constraint
        else:
            merged = existing.union(constraint)
            if merged is None:
                gates.pop(stream_key, None)
                dead.add(stream_key)
            else:
                gates[stream_key] = merged
    return gates, True
