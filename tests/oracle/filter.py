"""The oracle's scalar evaluator, and single-stream ``SELECT ... WHERE``.

:func:`value` evaluates one expression node over a :class:`Scope` of
bound rows.  Expressions follow SQL three-valued (Kleene) logic:

* NULL in, NULL out for comparisons, arithmetic, ``||``, unary minus,
  LIKE and the tested value of IN / BETWEEN;
* AND and OR read their operands left to right and stop at the first
  FALSE (AND) or TRUE (OR): a later operand is not evaluated, so it
  cannot raise;
* ``x BETWEEN lo AND hi`` is ``x >= lo AND x <= hi`` and NOT BETWEEN its
  negation, so ``5 NOT BETWEEN NULL AND 3`` is TRUE; all three operands
  are evaluated, and the comparisons stop like AND;
* ``x IN (...)`` is NULL when x is, else TRUE on the first equal option
  (later options are not evaluated), else NULL when some option is NULL,
  else FALSE;
* ``/`` and ``%`` by zero give NULL; otherwise numbers follow Python
  (exact int/float comparison, true division, ``%`` signed like the
  divisor); ``||`` joins the operands' text forms;
* LIKE: ``%`` matches any run of characters, ``_`` exactly one, with no
  escape character;
* CASE takes the first branch whose condition is TRUE, else its ELSE
  value, else NULL;
* a built-in function is NULL when any argument is, except ``coalesce``
  and ``ifnull``, whose point is NULL handling.

Ordering two incomparable values (text and a number) raises TypeError,
and so does arithmetic on them; a reference the scope cannot resolve
raises :class:`Unbound`.  What a query does with those errors depends on
where the expression sits, so the callers decide.

:func:`run_filter` keeps a row when the WHERE clause is TRUE (FALSE and
NULL both drop it) and projects each select item; output order is trace
order.
"""

from __future__ import annotations

import operator

from repro.core.language.ast_nodes import (
    DurationLiteral,
    PreviousRef,
    StarAggregate,
)
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
    Negate,
    Not,
    Or,
)

COMPARE = {
    "=": operator.eq, "<>": operator.ne, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
ARITHMETIC = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "%": operator.mod,
}


class Unbound(LookupError):
    """A reference the scope cannot resolve: an alias not bound (yet), or
    a bare column that no bound row, or more than one, carries."""


class Scope:
    """Alias -> row bindings for one evaluation.

    A row is a field -> value dict; a starred alias binds its run, a list
    of rows, and ``"<alias>.previous"`` binds the run tuple before the
    current one.  *outer* is the enclosing query's scope (correlated
    sub-queries): every name resolves innermost first.
    """

    def __init__(self, bindings, outer=None, totals=None):
        self.bindings = {alias.lower(): row for alias, row in bindings.items()}
        self.outer = outer
        #: id(aggregate call node) -> its value, for grouped queries.
        self.totals = totals or {}

    def bound(self, alias):
        scope = self
        while scope is not None:
            if alias.lower() in scope.bindings:
                return scope.bindings[alias.lower()]
            scope = scope.outer
        raise Unbound(alias)

    def column(self, alias, field):
        if alias is not None:
            row = self.bound(alias)
            if isinstance(row, list):
                raise TypeError(f"{alias} is a star run, not a row")
            return row[field]
        scope = self
        while scope is not None:
            rows = [
                row for row in scope.bindings.values()
                if isinstance(row, dict) and field in row
            ]
            if len(rows) > 1:
                raise Unbound(f"ambiguous column {field}")
            if rows:
                return rows[0][field]
            scope = scope.outer
        raise Unbound(field)


def kleene_and(values):
    """AND over an iterable, consumed left to right up to a FALSE."""
    unknown = False
    for v in values:
        if v is False:
            return False
        unknown = unknown or v is None
    return None if unknown else True


def kleene_or(values):
    """OR over an iterable, consumed left to right up to a TRUE."""
    unknown = False
    for v in values:
        if v is True:
            return True
        unknown = unknown or v is None
    return None if unknown else False


def kleene_not(value):
    return None if value is None else not value


def compare(op, left, right):
    if left is None or right is None:
        return None
    return COMPARE[op](left, right)


def like(text, pattern):
    """Whether all of *text* matches *pattern* (a set-of-states walk)."""

    def close(states):
        out = set()
        for p in states:
            while p < len(pattern) and pattern[p] == "%":
                out.add(p)
                p += 1
            out.add(p)
        return out

    states = close({0})
    for ch in text:
        step = set()
        for p in states:
            if p < len(pattern):
                if pattern[p] == "%":
                    step.add(p)
                elif pattern[p] in ("_", ch):
                    step.add(p + 1)
        states = close(step)
    return len(pattern) in states


def _serial(epc):
    """Example 3's ``extract_serial``: the dotted EPC's last part as an
    int, NULL when there are fewer than three parts or it is not one."""
    parts = str(epc).split(".")
    if len(parts) < 3:
        return None
    try:
        return int(parts[-1])
    except ValueError:
        return None


def _substr(text, start, length=None):
    """SQL's 1-based substring."""
    begin = max(int(start) - 1, 0)
    text = str(text)
    return text[begin:] if length is None else text[begin:begin + int(length)]


#: Built-in functions by name, before NULL propagation.
FUNCTIONS = {
    "upper": lambda v: str(v).upper(),
    "lower": lambda v: str(v).lower(),
    "length": lambda v: len(str(v)),
    "abs": abs,
    "substr": _substr,
    "concat": lambda *parts: "".join(map(str, parts)),
    "extract_serial": _serial,
}
NULL_HANDLING = {
    "coalesce": lambda *args: next((a for a in args if a is not None), None),
    "ifnull": lambda v, default: default if v is None else v,
}


def call(name, args):
    name = name.lower()
    if name in NULL_HANDLING:
        return NULL_HANDLING[name](*args)
    if any(arg is None for arg in args):
        return None
    return FUNCTIONS[name](*args)


def value(node, scope):
    """*node*'s value in *scope* (a :class:`Scope`)."""
    kind = type(node)
    if kind is Literal:
        return node.value
    if kind is DurationLiteral:
        return node.seconds
    if kind is Column:
        return scope.column(node.alias, node.field)
    if kind is PreviousRef:
        return scope.bound(f"{node.alias}.previous")[node.field]
    if kind is StarAggregate:
        bound = scope.bound(node.alias)
        run = bound if isinstance(bound, list) else [bound]
        if node.func == "count":
            return len(run)
        return (run[0] if node.func == "first" else run[-1])[node.field]
    if kind is Negate:
        operand = value(node.operand, scope)
        return None if operand is None else -operand
    if kind is Not:
        return kleene_not(value(node.operand, scope))
    if kind is And:
        return kleene_and(value(op, scope) for op in node.operands)
    if kind is Or:
        return kleene_or(value(op, scope) for op in node.operands)
    if kind is IsNull:
        missing = value(node.operand, scope) is None
        return not missing if node.negate else missing
    if kind is BinaryOp:
        left, right = value(node.left, scope), value(node.right, scope)
        if node.op in COMPARE:
            return compare(node.op, left, right)
        if left is None or right is None:
            return None
        if node.op == "||":
            return str(left) + str(right)
        if node.op in ("/", "%") and right == 0:
            return None
        return ARITHMETIC[node.op](left, right)
    if kind is Between:
        subject, low, high = (
            value(node.operand, scope), value(node.low, scope),
            value(node.high, scope),
        )
        inside = kleene_and(
            compare(op, subject, bound) for op, bound in ((">=", low), ("<=", high))
        )
        return kleene_not(inside) if node.negate else inside
    if kind is InList:
        subject = value(node.operand, scope)
        if subject is None:
            return None
        found = kleene_or(
            compare("=", subject, value(option, scope)) for option in node.options
        )
        return kleene_not(found) if node.negate else found
    if kind is Like:
        subject = value(node.operand, scope)
        pattern = value(node.pattern, scope)
        if subject is None or pattern is None:
            return None
        found = like(str(subject), pattern)
        return not found if node.negate else found
    if kind is Case:
        for condition, result in node.branches:
            if value(condition, scope) is True:
                return value(result, scope)
        return None if node.default is None else value(node.default, scope)
    if id(node) in scope.totals:
        return scope.totals[id(node)]
    if kind is FunctionCall:
        return call(node.name, [value(arg, scope) for arg in node.args])
    raise NotImplementedError(f"oracle has no rule for {kind.__name__}")


def run_filter(statement, trace):
    """``[(values, ts)]`` that *statement* emits over *trace*, a complete
    list of ``(row dict, ts)`` in arrival order."""
    (source,) = statement.from_items
    return [
        (tuple(value(item.expr, scope) for item in statement.select_items), ts)
        for scope, ts in (
            (Scope({source.alias: row}), ts) for row, ts in trace
        )
        if value(statement.where, scope) is True
    ]
