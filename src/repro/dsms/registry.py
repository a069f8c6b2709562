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
  conjunct analysis as the shard-routing key hoist) enter a hash/interval
  index; an incoming tuple is dispatched only to candidate plans, plus a
  residual scan list for everything unindexable.  Routing may over-admit
  — every plan re-checks delivered tuples with its own compiled
  predicate — but never under-admits.

* **Sub-plan dedup.**  Statements are fingerprinted structurally; N
  registrations of an identical query share one compiled plan (one SEQ
  operator, one NFA state set) and fan out per-subscriber at the emit
  stage: the plan's :meth:`SharedPlan.deliver` is the compiled query's
  output callback and hands each answer to every live subscriber.

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
from typing import Any, Callable, Iterator, Mapping, Sequence

from .engine import Collector, Engine, QueryHandle
from .errors import EslSemanticError
from .expressions import AdmissionConstraint, admission_constraint
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
    from ..core.language.ast_nodes import (
        ExistsPredicate,
        PreviousRef,
        SeqPredicate,
        StarAggregate,
    )
    from .expressions import (
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
    )

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
        "_owner",
    )

    def __init__(
        self,
        owner: Any,
        sub_id: int,
        text: str,
        on_answer: Callable[[Tuple], None] | None,
    ) -> None:
        self.id = sub_id
        self.text = text
        self.on_answer = on_answer
        self.collector = (
            Collector(f"sub#{sub_id}") if on_answer is None else None
        )
        self.sink: Callable[[Tuple], None] = (
            self.collector if on_answer is None else on_answer
        )
        self.active = True
        self.plan: "SharedPlan | None" = None
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
        return f"Subscription(#{self.id}, {state}, {len(self.results)} answers)"


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


class _FieldIndex:
    """The router's index for one gated field of one stream."""

    __slots__ = ("field", "position", "eq", "lenient", "scan")

    def __init__(self, field: str, position: int) -> None:
        self.field = field
        self.position = position
        self.eq: dict[Any, list[_PlanEntry]] = {}
        self.lenient: list[_PlanEntry] = []  # eq-only entries passing NULL
        self.scan: list[_PlanEntry] = []     # entries with range components

    @property
    def empty(self) -> bool:
        return not self.eq and not self.lenient and not self.scan


class StreamRouter:
    """The single subscriber a routed stream fans out through.

    Holds the predicate index: per-field equality buckets and range scan
    lists for gated entries, plus the residual list for plans whose
    predicates did not hoist.  Dispatch visits only candidate entries —
    the per-tuple cost is one hash lookup per indexed field plus the
    residual scan, independent of how many equality-routed plans are
    registered.
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

    def _position_of(self, field: str) -> int | None:
        schema = self.stream.schema
        if field in schema:
            return schema.position(field)
        key = field.lower()
        for position, name in enumerate(schema.names):
            if name.lower() == key:
                return position
        return None

    def add(
        self,
        plan: "SharedPlan",
        callbacks: Sequence[Callable[[Tuple], None]],
        constraint: AdmissionConstraint | None,
        lenient: bool,
    ) -> _PlanEntry:
        entry = _PlanEntry(plan, callbacks, constraint, lenient)
        position = (
            self._position_of(constraint.field)
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
            else:
                for value in constraint.values or ():
                    index.eq.setdefault(value, []).append(entry)
                if lenient:
                    index.lenient.append(entry)
        return entry

    def remove(self, entry: _PlanEntry) -> None:
        constraint = entry.constraint
        if constraint is None:
            if entry in self.residual:
                self.residual.remove(entry)
        else:
            index = self._fields.get(constraint.field.lower())
            if index is not None:
                if entry in index.scan:
                    index.scan.remove(entry)
                for value in constraint.values or ():
                    bucket = index.eq.get(value)
                    if bucket and entry in bucket:
                        bucket.remove(entry)
                        if not bucket:
                            del index.eq[value]
                if entry in index.lenient:
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
            else:
                bucket = index.eq.get(value)
                if bucket:
                    for entry in bucket:
                        delivered += 1
                        entry.deliver(tup)
            for entry in index.scan:
                if value is None:
                    if entry.lenient:
                        delivered += 1
                        entry.deliver(tup)
                elif entry.constraint.admits(value):
                    delivered += 1
                    entry.deliver(tup)
        for entry in self.residual:
            delivered += 1
            entry.deliver(tup)
        self.delivered = delivered

    # -- introspection ----------------------------------------------------

    def describe(self) -> dict[str, Any]:
        return {
            "stream": self.stream.name,
            "fields": [
                {
                    "field": index.field,
                    "eq_keys": len(index.eq),
                    "eq_entries": sum(len(b) for b in index.eq.values()),
                    "range_entries": len(index.scan),
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


class SharedPlan:
    """One compiled plan shared by every structurally identical query.

    :meth:`deliver` is the compiled query's output callback — the dedup
    fan-out point — handing each answer to every live subscriber's sink.
    """

    __slots__ = ("fingerprint", "text", "handle", "entries", "sinks", "_fanout")

    def __init__(self, fingerprint: Any, text: str) -> None:
        self.fingerprint = fingerprint
        self.text = text
        self.handle: QueryHandle | None = None
        self.entries: list[tuple[StreamRouter, _PlanEntry]] = []
        self.sinks: list[Subscription] = []
        self._fanout: tuple[Callable[[Tuple], None], ...] = ()

    def deliver(self, tup: Tuple) -> None:
        for sink in self._fanout:
            sink(tup)

    def attach(self, subscription: Subscription) -> None:
        self.sinks.append(subscription)
        self._fanout = self._fanout + (subscription.sink,)

    def detach(self, subscription: Subscription) -> None:
        if subscription in self.sinks:
            self.sinks.remove(subscription)
        self._fanout = tuple(sub.sink for sub in self.sinks)

    def __repr__(self) -> str:
        return (
            f"SharedPlan({self.handle.name!r}, "
            f"{len(self.sinks)} subscribers)"
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
        fingerprint = fingerprint_statement(statement)
        plan = self._plans.get(fingerprint)
        if plan is None:
            plan = self._compile_plan(statement, text, fingerprint, name)
            self._plans[fingerprint] = plan
        subscription = Subscription(self, next(self._counter), text, on_answer)
        subscription.plan = plan
        plan.attach(subscription)
        return subscription

    def _compile_plan(
        self, statement: Any, text: str, fingerprint: Any, name: str | None
    ) -> SharedPlan:
        # Not engine.query(text): the statement is already parsed, and the
        # compiler's Analysis (left on the handle) feeds the gates below.
        from ..core.language.compiler import compile_statement

        engine = self.engine
        before = {
            stream.name: stream.subscriber_count for stream in engine.streams
        }
        plan = SharedPlan(fingerprint, text)
        handle = plan.handle = compile_statement(
            engine,
            statement,
            name or f"mq{next(self._plan_counter)}",
            plan.deliver,
        )
        gates, lenient = _plan_gates(handle.analysis)
        entries: list[tuple[StreamRouter, _PlanEntry]] = []
        for stream in engine.streams:
            taken = stream.take_subscribers(before.get(stream.name, 0))
            if not taken:
                continue
            router = self._routers.get(stream.name.lower())
            if router is None:
                router = StreamRouter(stream)
                self._routers[stream.name.lower()] = router
            entry = router.add(
                plan, taken, gates.get(stream.name.lower()), lenient
            )
            entries.append((router, entry))
        plan.entries = entries
        return plan

    # -- cancellation -----------------------------------------------------

    def cancel(self, subscription: Subscription) -> None:
        """Detach *subscription*; tears the plan down after the last one.

        Idempotent: cancelling an already-cancelled subscription (or one
        belonging to a closed registry) is a no-op.
        """
        if not subscription.active:
            return
        subscription.active = False
        plan = subscription.plan
        if plan is None:
            return
        plan.detach(subscription)
        if plan.sinks:
            return
        self._teardown_plan(plan)

    def _teardown_plan(self, plan: SharedPlan) -> None:
        self._plans.pop(plan.fingerprint, None)
        for router, entry in plan.entries:
            router.remove(entry)
            if router.empty:
                router.close()
                self._routers.pop(router.stream.name.lower(), None)
        plan.entries = []
        # stop() cancels operator timers and is already idempotent; the
        # stream unsubscribes inside it are no-ops for moved callbacks.
        plan.handle.stop()

    def close(self) -> None:
        """Cancel every subscription and release all routers.  Idempotent."""
        if self.closed:
            return
        for plan in list(self._plans.values()):
            for subscription in list(plan.sinks):
                self.cancel(subscription)
        self.closed = True

    def __enter__(self) -> "QueryRegistry":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- introspection ----------------------------------------------------

    @property
    def subscription_count(self) -> int:
        return sum(len(plan.sinks) for plan in self._plans.values())

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
