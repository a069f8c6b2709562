"""Oracle for single-stream ``SELECT <items> FROM s [AS a] WHERE <pred>``.

A row is kept when the WHERE clause is TRUE (FALSE and NULL both drop it)
and projects each select item; output order is trace order.  Expressions
follow SQL three-valued (Kleene) logic:

* NULL in, NULL out for comparisons, arithmetic, ``||``, unary minus,
  LIKE and the tested value of IN / BETWEEN;
* ``x BETWEEN lo AND hi`` is ``x >= lo AND x <= hi`` and NOT BETWEEN its
  negation, so ``5 NOT BETWEEN NULL AND 3`` is TRUE;
* ``x IN (...)`` is TRUE on an equal option, else NULL when some option
  is NULL, else FALSE;
* ``/`` and ``%`` by zero give NULL; otherwise numbers follow Python
  (exact int/float comparison, true division, ``%`` signed like the
  divisor); ``||`` joins the operands' text forms;
* LIKE: ``%`` matches any run of characters, ``_`` exactly one, with no
  escape character.
"""

from __future__ import annotations

import operator

from repro.dsms.expressions import (
    And,
    Between,
    BinaryOp,
    Column,
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


def kleene_and(values):
    if any(v is False for v in values):
        return False
    return None if any(v is None for v in values) else True


def kleene_or(values):
    if any(v is True for v in values):
        return True
    return None if any(v is None for v in values) else False


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


def value(node, row):
    """*node*'s value on *row* (a field-name -> value dict)."""
    kind = type(node)
    if kind is Literal:
        return node.value
    if kind is Column:
        return row[node.field]
    if kind is Negate:
        operand = value(node.operand, row)
        return None if operand is None else -operand
    if kind is Not:
        return kleene_not(value(node.operand, row))
    if kind is And:
        return kleene_and([value(op, row) for op in node.operands])
    if kind is Or:
        return kleene_or([value(op, row) for op in node.operands])
    if kind is IsNull:
        missing = value(node.operand, row) is None
        return not missing if node.negate else missing
    if kind is BinaryOp:
        left, right = value(node.left, row), value(node.right, row)
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
        subject = value(node.operand, row)
        inside = kleene_and([
            compare(">=", subject, value(node.low, row)),
            compare("<=", subject, value(node.high, row)),
        ])
        return kleene_not(inside) if node.negate else inside
    if kind is InList:
        subject = value(node.operand, row)
        options = [value(option, row) for option in node.options]
        if subject is None:
            return None
        found = kleene_or([compare("=", subject, o) for o in options])
        return kleene_not(found) if node.negate else found
    if kind is Like:
        subject, pattern = value(node.operand, row), value(node.pattern, row)
        if subject is None or pattern is None:
            return None
        found = like(str(subject), pattern)
        return not found if node.negate else found
    raise NotImplementedError(f"oracle has no rule for {kind.__name__}")


def run_filter(statement, trace):
    """``[(values, ts)]`` that *statement* emits over *trace*, a complete
    list of ``(row dict, ts)`` in arrival order."""
    (source,) = statement.from_items
    names = {source.name.lower(), (source.alias or source.name).lower()}
    for node in _columns(statement):
        assert node.alias is None or node.alias.lower() in names, node
    return [
        (tuple(value(item.expr, row) for item in statement.select_items), ts)
        for row, ts in trace
        if value(statement.where, row) is True
    ]


def _columns(statement):
    stack = [statement.where, *(item.expr for item in statement.select_items)]
    while stack:
        node = stack.pop()
        if type(node) is Column:
            yield node
        stack.extend(node.children())
