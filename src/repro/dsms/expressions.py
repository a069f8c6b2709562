"""Expression AST and its one evaluator, ``compile``.

ESL-EV predicates and select-list items compile into these nodes.  Evaluation
follows SQL three-valued logic: any comparison involving NULL (Python
``None``) yields NULL, ``AND``/``OR`` use Kleene logic, and a WHERE clause
treats NULL as false.

Evaluation happens against an :class:`Env`, which binds stream aliases to
tuples.  A column reference ``r1.tag_id`` looks up alias ``r1``; a bare
``tag_id`` searches all bound tuples and must be unambiguous.

These nodes are deliberately plain (no metaclass tricks): each has a
``compile(ctx) -> Callable[[Env], Any]`` method, lowering it to nested
Python closures, and a ``references()`` helper used by the optimizer for
predicate pushdown.  Compilation folds constants and — when the
:class:`CompileContext` knows an alias's schema — turns ``alias.field``
into a single positional list index instead of a schema lookup.
"""

from __future__ import annotations

import operator as _operator
import re

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import EslRuntimeError, EslSemanticError, UnknownFunctionError
from .schema import Schema
from .tuples import Tuple


class Env:
    """Alias -> tuple bindings for one evaluation.

    Also carries the function registry (scalar built-ins + UDFs) and an
    optional parent, so correlated sub-queries can see outer bindings.
    """

    __slots__ = ("bindings", "functions", "parent")

    def __init__(
        self,
        bindings: Mapping[str, Tuple] | None = None,
        functions: Mapping[str, Callable[..., Any]] | None = None,
        parent: "Env | None" = None,
    ) -> None:
        self.bindings: dict[str, Tuple] = dict(bindings or {})
        self.functions = functions if functions is not None else {}
        self.parent = parent

    def child(self, bindings: Mapping[str, Tuple]) -> "Env":
        """A nested scope sharing this env's functions."""
        return Env(bindings, self.functions, parent=self)

    def lookup_alias(self, alias: str) -> Tuple:
        key = alias.lower()
        env: Env | None = self
        while env is not None:
            if key in env.bindings:
                return env.bindings[key]
            env = env.parent
        raise EslRuntimeError(f"alias {alias!r} is not bound")

    def lookup_column(self, alias: str | None, field: str) -> Any:
        if alias is not None:
            return self.lookup_alias(alias)[field]
        # Bare column: search this scope, then parents.
        env: Env | None = self
        while env is not None:
            matches = [t for t in env.bindings.values() if field in t]
            if len(matches) == 1:
                return matches[0][field]
            if len(matches) > 1:
                raise EslRuntimeError(
                    f"ambiguous column {field!r}: bound in multiple streams"
                )
            env = env.parent
        raise EslRuntimeError(f"unbound column {field!r}")

    def lookup_function(self, name: str) -> Callable[..., Any]:
        env: Env | None = self
        while env is not None:
            fn = env.functions.get(name.lower())
            if fn is not None:
                return fn
            env = env.parent
        raise UnknownFunctionError(f"unknown function {name!r}")


EvalFn = Callable[[Env], Any]


class CompileContext:
    """Static information available while lowering expressions to closures.

    ``functions`` should be the engine's *live* UDF mapping
    (:meth:`UdfRegistry.as_mapping`) so re-registered functions are picked
    up per call.  ``schemas`` maps
    alias -> :class:`Schema` for aliases whose layout is known at compile
    time; those column references lower to positional access.  ``bare``
    names the one alias a bare column can mean — a plan whose FROM has a
    single source and no EXISTS sub-query — so bare columns lower too;
    None keeps them on the dynamic multi-binding search.
    """

    __slots__ = ("functions", "schemas", "bare")

    def __init__(
        self,
        functions: Mapping[str, Callable[..., Any]] | None = None,
        schemas: Mapping[str, Schema] | None = None,
        bare: str | None = None,
    ) -> None:
        self.functions: Mapping[str, Callable[..., Any]] = (
            functions if functions is not None else {}
        )
        self.schemas: dict[str, Schema] = {
            alias.lower(): schema for alias, schema in (schemas or {}).items()
        }
        self.bare = None if bare is None else bare.lower()


class _ConstFn:
    """A compiled closure whose result is known at compile time.

    Doubles as the constant-folding marker: combinators check
    ``isinstance(fn, _ConstFn)`` to fold eagerly.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __call__(self, env: Env) -> Any:
        return self.value

    def __repr__(self) -> str:
        return f"_ConstFn({self.value!r})"


class Expression:
    """Base class for all expression nodes."""

    __slots__ = ()

    def compile(self, ctx: CompileContext) -> EvalFn:
        """Lower to a ``Callable[[Env], Any]``: the node's evaluator.

        Syntax nodes the compiler extracts before evaluation (temporal
        operators, EXISTS, aggregate calls) keep this one, which rejects
        them anywhere else.
        """
        raise EslSemanticError(
            f"{self!r} cannot be evaluated here: temporal operators and "
            "EXISTS must be top-level AND-terms of WHERE, and aggregates "
            "belong in SELECT or HAVING"
        )

    def references(self) -> Iterator[tuple[str | None, str]]:
        """Yield (alias, field) pairs this expression reads."""
        return iter(())

    def children(self) -> Iterable["Expression"]:
        return ()

    def walk(self) -> Iterator["Expression"]:
        """Depth-first traversal including self."""
        yield self
        for child in self.children():
            yield from child.walk()


class Literal(Expression):
    """A constant value."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def compile(self, ctx: CompileContext) -> EvalFn:
        return _ConstFn(self.value)

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


class Column(Expression):
    """A column reference, optionally alias-qualified: ``r1.tag_id``."""

    __slots__ = ("alias", "field")

    def __init__(self, field: str, alias: str | None = None) -> None:
        self.alias = alias
        self.field = field

    def compile(self, ctx: CompileContext) -> EvalFn:
        alias, field = self.alias, self.field
        # A bare column lowers only under ctx.bare, the plan's one FROM
        # alias; elsewhere it needs the dynamic multi-binding search.
        key = ctx.bare if alias is None else alias.lower()
        schema = None if key is None else ctx.schemas.get(key)
        if schema is not None and field in schema:
            position = schema.position(field)

            def positional(
                env: Env,
                _key: str = key,
                _pos: int = position,
                _schema: Schema = schema,
            ) -> Any:
                # Nearest-scope resolution, same as lookup_alias: check each
                # env up the parent chain so correlated sub-query closures
                # (outer alias in a parent scope) stay on the fast path.
                scope: Env | None = env
                while scope is not None:
                    bound = scope.bindings.get(_key)
                    if bound is not None:
                        if type(bound) is Tuple and bound.schema is _schema:
                            return bound.values[_pos]
                        break  # star-run list or re-declared schema
                    scope = scope.parent
                # Fall back to the named lookup (same binding, full error
                # handling).
                return env.lookup_column(alias, field)

            return positional

        def dynamic(env: Env) -> Any:
            return env.lookup_column(alias, field)

        return dynamic

    def references(self) -> Iterator[tuple[str | None, str]]:
        yield (self.alias, self.field)

    def __repr__(self) -> str:
        if self.alias:
            return f"Column({self.alias}.{self.field})"
        return f"Column({self.field})"


def _is_null(value: Any) -> bool:
    return value is None


def _compare(op: str, left: Any, right: Any) -> bool | None:
    if _is_null(left) or _is_null(right):
        return None
    try:
        if op == "=":
            return left == right
        if op in ("<>", "!="):
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError as exc:
        raise EslRuntimeError(
            f"cannot compare {left!r} {op} {right!r}"
        ) from exc
    raise EslRuntimeError(f"unknown comparison operator {op!r}")


def _arith(op: str, left: Any, right: Any) -> Any:
    if _is_null(left) or _is_null(right):
        return None
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                return None  # SQL: division by zero -> NULL in stream context
            return left / right
        if op == "%":
            if right == 0:
                return None
            return left % right
        if op == "||":
            return str(left) + str(right)
    except TypeError as exc:
        raise EslRuntimeError(f"cannot apply {left!r} {op} {right!r}") from exc
    raise EslRuntimeError(f"unknown arithmetic operator {op!r}")


# Raw Python operators behind each comparison; the compiled closures wrap
# these with the NULL-in/NULL-out and TypeError conventions of _compare.
_CMP_FUNCS: dict[str, Callable[[Any, Any], bool]] = {
    "=": _operator.eq,
    "<>": _operator.ne,
    "!=": _operator.ne,
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
}

_ARITH_FUNCS: dict[str, Callable[[Any, Any], Any]] = {
    "+": _operator.add,
    "-": _operator.sub,
    "*": _operator.mul,
}


def _compile_comparison(op: str, left: EvalFn, right: EvalFn) -> EvalFn:
    base = _CMP_FUNCS[op]

    def compare(env: Env) -> bool | None:
        lhs = left(env)
        rhs = right(env)
        if lhs is None or rhs is None:
            return None
        try:
            return base(lhs, rhs)
        except TypeError as exc:
            raise EslRuntimeError(f"cannot compare {lhs!r} {op} {rhs!r}") from exc

    return compare


def _compile_arithmetic(op: str, left: EvalFn, right: EvalFn) -> EvalFn:
    base = _ARITH_FUNCS.get(op)
    if base is not None:

        def arith(env: Env) -> Any:
            lhs = left(env)
            rhs = right(env)
            if lhs is None or rhs is None:
                return None
            try:
                return base(lhs, rhs)
            except TypeError as exc:
                raise EslRuntimeError(f"cannot apply {lhs!r} {op} {rhs!r}") from exc

        return arith

    # Division/modulo (zero -> NULL) and || keep the shared helper.
    def general(env: Env) -> Any:
        return _arith(op, left(env), right(env))

    return general


class BinaryOp(Expression):
    """Arithmetic, comparison, or string concatenation."""

    COMPARISONS = frozenset({"=", "<>", "!=", "<", "<=", ">", ">="})
    ARITHMETIC = frozenset({"+", "-", "*", "/", "%", "||"})

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in self.COMPARISONS and op not in self.ARITHMETIC:
            raise EslSemanticError(f"unknown binary operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def compile(self, ctx: CompileContext) -> EvalFn:
        left = self.left.compile(ctx)
        right = self.right.compile(ctx)
        op = self.op
        comparison = op in self.COMPARISONS
        if isinstance(left, _ConstFn) and isinstance(right, _ConstFn):
            apply = _compare if comparison else _arith
            try:
                return _ConstFn(apply(op, left.value, right.value))
            except EslRuntimeError:
                pass  # defer the error to evaluation time
        if comparison:
            return _compile_comparison(op, left, right)
        return _compile_arithmetic(op, left, right)

    def references(self) -> Iterator[tuple[str | None, str]]:
        yield from self.left.references()
        yield from self.right.references()

    def children(self) -> Iterable[Expression]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class And(Expression):
    """Kleene-logic conjunction over two or more operands."""

    __slots__ = ("operands",)

    def __init__(self, *operands: Expression) -> None:
        self.operands = operands

    def compile(self, ctx: CompileContext) -> EvalFn:
        fns: list[EvalFn] = []
        saw_const_null = False
        for operand in self.operands:
            fn = operand.compile(ctx)
            if isinstance(fn, _ConstFn):
                if fn.value is False:
                    # Evaluation short-circuits on the first False, so a
                    # constant False makes later operands unreachable *after
                    # the ones already collected* — but since those earlier
                    # closures may themselves raise, only fold when False is
                    # the sole survivor so far.
                    if not fns:
                        return _ConstFn(False)
                    fns.append(fn)
                elif fn.value is None:
                    saw_const_null = True
                # constant True contributes nothing; drop it
                continue
            fns.append(fn)
        if not fns:
            return _ConstFn(None if saw_const_null else True)

        if not saw_const_null and len(fns) == 1:
            sole = fns[0]

            def single(env: Env) -> bool | None:
                value = sole(env)
                if value is False:
                    return False
                return None if value is None else True

            return single

        def conjunction(env: Env) -> bool | None:
            saw_null = saw_const_null
            for fn in fns:
                value = fn(env)
                if value is False:
                    return False
                if value is None:
                    saw_null = True
            return None if saw_null else True

        return conjunction

    def references(self) -> Iterator[tuple[str | None, str]]:
        for operand in self.operands:
            yield from operand.references()

    def children(self) -> Iterable[Expression]:
        return self.operands

    def __repr__(self) -> str:
        return "And(" + ", ".join(map(repr, self.operands)) + ")"


class Or(Expression):
    """Kleene-logic disjunction."""

    __slots__ = ("operands",)

    def __init__(self, *operands: Expression) -> None:
        self.operands = operands

    def compile(self, ctx: CompileContext) -> EvalFn:
        fns: list[EvalFn] = []
        saw_const_null = False
        for operand in self.operands:
            fn = operand.compile(ctx)
            if isinstance(fn, _ConstFn):
                if fn.value is True:
                    if not fns:
                        return _ConstFn(True)
                    fns.append(fn)
                elif fn.value is None:
                    saw_const_null = True
                # constant False contributes nothing; drop it
                continue
            fns.append(fn)
        if not fns:
            return _ConstFn(None if saw_const_null else False)

        def disjunction(env: Env) -> bool | None:
            saw_null = saw_const_null
            for fn in fns:
                value = fn(env)
                if value is True:
                    return True
                if value is None:
                    saw_null = True
            return None if saw_null else False

        return disjunction

    def references(self) -> Iterator[tuple[str | None, str]]:
        for operand in self.operands:
            yield from operand.references()

    def children(self) -> Iterable[Expression]:
        return self.operands

    def __repr__(self) -> str:
        return "Or(" + ", ".join(map(repr, self.operands)) + ")"


class Not(Expression):
    """Kleene-logic negation."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expression) -> None:
        self.operand = operand

    def compile(self, ctx: CompileContext) -> EvalFn:
        fn = self.operand.compile(ctx)
        if isinstance(fn, _ConstFn):
            return _ConstFn(None if fn.value is None else not fn.value)

        def negation(env: Env) -> bool | None:
            value = fn(env)
            if value is None:
                return None
            return not value

        return negation

    def references(self) -> Iterator[tuple[str | None, str]]:
        yield from self.operand.references()

    def children(self) -> Iterable[Expression]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"Not({self.operand!r})"


class Negate(Expression):
    """Arithmetic unary minus."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expression) -> None:
        self.operand = operand

    def compile(self, ctx: CompileContext) -> EvalFn:
        fn = self.operand.compile(ctx)
        if isinstance(fn, _ConstFn):
            try:
                return _ConstFn(None if fn.value is None else -fn.value)
            except TypeError:
                pass  # defer the error to evaluation time

        def negate(env: Env) -> Any:
            value = fn(env)
            return None if value is None else -value

        return negate

    def references(self) -> Iterator[tuple[str | None, str]]:
        yield from self.operand.references()

    def children(self) -> Iterable[Expression]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"Negate({self.operand!r})"


class IsNull(Expression):
    """``expr IS NULL`` / ``expr IS NOT NULL`` (set negate=True)."""

    __slots__ = ("operand", "negate")

    def __init__(self, operand: Expression, negate: bool = False) -> None:
        self.operand = operand
        self.negate = negate

    def compile(self, ctx: CompileContext) -> EvalFn:
        fn = self.operand.compile(ctx)
        if isinstance(fn, _ConstFn):
            result = fn.value is None
            return _ConstFn(not result if self.negate else result)
        if self.negate:
            return lambda env: fn(env) is not None
        return lambda env: fn(env) is None

    def references(self) -> Iterator[tuple[str | None, str]]:
        yield from self.operand.references()

    def children(self) -> Iterable[Expression]:
        return (self.operand,)

    def __repr__(self) -> str:
        op = "IS NOT NULL" if self.negate else "IS NULL"
        return f"IsNull({self.operand!r} {op})"


def _between(value: Any, low: Any, high: Any, negate: bool) -> bool | None:
    """SQL's ``value >= low AND value <= high`` in Kleene logic — a NULL
    bound decides nothing once the other bound fails — then NOT when
    *negate*."""
    if value is None:
        return None
    above = None if low is None else low <= value
    below = None if above is False or high is None else value <= high
    if above is False or below is False:
        result = False
    elif above is None or below is None:
        return None
    else:
        result = True
    return not result if negate else result


class Between(Expression):
    """``expr BETWEEN low AND high`` (inclusive both ends, per SQL)."""

    __slots__ = ("operand", "low", "high", "negate")

    def __init__(
        self,
        operand: Expression,
        low: Expression,
        high: Expression,
        negate: bool = False,
    ) -> None:
        self.operand = operand
        self.low = low
        self.high = high
        self.negate = negate

    def compile(self, ctx: CompileContext) -> EvalFn:
        operand = self.operand.compile(ctx)
        low = self.low.compile(ctx)
        high = self.high.compile(ctx)
        negate = self.negate

        def between(env: Env) -> bool | None:
            return _between(operand(env), low(env), high(env), negate)

        return between

    def references(self) -> Iterator[tuple[str | None, str]]:
        yield from self.operand.references()
        yield from self.low.references()
        yield from self.high.references()

    def children(self) -> Iterable[Expression]:
        return (self.operand, self.low, self.high)

    def __repr__(self) -> str:
        word = "NOT BETWEEN" if self.negate else "BETWEEN"
        return f"Between({self.operand!r} {word} {self.low!r} AND {self.high!r})"


class InList(Expression):
    """``expr IN (v1, v2, ...)``."""

    __slots__ = ("operand", "options", "negate")

    def __init__(
        self, operand: Expression, options: Sequence[Expression], negate: bool = False
    ) -> None:
        self.operand = operand
        self.options = tuple(options)
        self.negate = negate

    def compile(self, ctx: CompileContext) -> EvalFn:
        operand = self.operand.compile(ctx)
        option_fns = [option.compile(ctx) for option in self.options]
        negate = self.negate

        def membership(env: Env) -> bool | None:
            value = operand(env)
            if value is None:
                return None
            saw_null = False
            for fn in option_fns:
                candidate = fn(env)
                if candidate is None:
                    saw_null = True
                elif candidate == value:
                    return False if negate else True
            if saw_null:
                return None
            return True if negate else False

        return membership

    def references(self) -> Iterator[tuple[str | None, str]]:
        yield from self.operand.references()
        for option in self.options:
            yield from option.references()

    def children(self) -> Iterable[Expression]:
        return (self.operand, *self.options)

    def __repr__(self) -> str:
        word = "NOT IN" if self.negate else "IN"
        return f"InList({self.operand!r} {word} {list(self.options)!r})"


# Module-level LIKE pattern memo: every Like node funnels through
# Like._regex, so identical patterns —
# common when the same EPC prefix appears in many registered queries —
# compile exactly once per process rather than once per Like node.
_LIKE_REGEX_MEMO: dict[str, Any] = {}


class Like(Expression):
    """SQL ``LIKE`` with ``%`` and ``_`` wildcards (used for EPC prefixes)."""

    __slots__ = ("operand", "pattern", "negate")

    def __init__(
        self, operand: Expression, pattern: Expression, negate: bool = False
    ) -> None:
        self.operand = operand
        self.pattern = pattern
        self.negate = negate

    @staticmethod
    def _regex(pattern: str) -> Any:
        compiled = _LIKE_REGEX_MEMO.get(pattern)
        if compiled is None:
            compiled = _LIKE_REGEX_MEMO[pattern] = re.compile(
                "".join(
                    ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
                    for ch in pattern
                )
                + r"\Z",
                re.DOTALL,
            )
        return compiled

    def compile(self, ctx: CompileContext) -> EvalFn:
        operand = self.operand.compile(ctx)
        pattern_fn = self.pattern.compile(ctx)
        negate = self.negate
        if isinstance(pattern_fn, _ConstFn) and pattern_fn.value is not None:
            regex = self._regex(pattern_fn.value)

            def match_const(env: Env) -> bool | None:
                value = operand(env)
                if value is None:
                    return None
                result = regex.match(str(value)) is not None
                return not result if negate else result

            return match_const

        cache: list[tuple[str, Any] | None] = [None]

        def match(env: Env) -> bool | None:
            value = operand(env)
            pattern = pattern_fn(env)
            if value is None or pattern is None:
                return None
            cached = cache[0]
            if cached is None or cached[0] != pattern:
                cached = cache[0] = (pattern, self._regex(pattern))
            result = cached[1].match(str(value)) is not None
            return not result if negate else result

        return match

    def references(self) -> Iterator[tuple[str | None, str]]:
        yield from self.operand.references()
        yield from self.pattern.references()

    def children(self) -> Iterable[Expression]:
        return (self.operand, self.pattern)

    def __repr__(self) -> str:
        word = "NOT LIKE" if self.negate else "LIKE"
        return f"Like({self.operand!r} {word} {self.pattern!r})"


class FunctionCall(Expression):
    """A scalar function or UDF call: looked up in the Env's registry."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expression]) -> None:
        self.name = name
        self.args = tuple(args)

    def compile(self, ctx: CompileContext) -> EvalFn:
        arg_fns = [arg.compile(ctx) for arg in self.args]
        key = self.name.lower()
        # ctx.functions is the engine's live registry mapping: look the
        # callable up per call so a later re-registration is honoured.
        functions = ctx.functions

        def call(env: Env) -> Any:
            target = functions.get(key)
            if target is None:
                target = env.lookup_function(key)
            return target(*[fn(env) for fn in arg_fns])

        return call

    def references(self) -> Iterator[tuple[str | None, str]]:
        for arg in self.args:
            yield from arg.references()

    def children(self) -> Iterable[Expression]:
        return self.args

    def __repr__(self) -> str:
        return f"FunctionCall({self.name}, {list(self.args)!r})"


class Case(Expression):
    """``CASE WHEN cond THEN value ... ELSE default END``."""

    __slots__ = ("branches", "default")

    def __init__(
        self,
        branches: Sequence[tuple[Expression, Expression]],
        default: Expression | None = None,
    ) -> None:
        self.branches = tuple(branches)
        self.default = default

    def compile(self, ctx: CompileContext) -> EvalFn:
        branch_fns = [
            (condition.compile(ctx), value.compile(ctx))
            for condition, value in self.branches
        ]
        default_fn = None if self.default is None else self.default.compile(ctx)

        def case(env: Env) -> Any:
            for condition, value in branch_fns:
                if condition(env) is True:
                    return value(env)
            if default_fn is not None:
                return default_fn(env)
            return None

        return case

    def references(self) -> Iterator[tuple[str | None, str]]:
        for condition, value in self.branches:
            yield from condition.references()
            yield from value.references()
        if self.default is not None:
            yield from self.default.references()

    def children(self) -> Iterable[Expression]:
        out: list[Expression] = []
        for condition, value in self.branches:
            out.append(condition)
            out.append(value)
        if self.default is not None:
            out.append(self.default)
        return out

    def __repr__(self) -> str:
        return f"Case({len(self.branches)} branches)"


def truthy(value: Any) -> bool:
    """SQL WHERE-clause semantics: NULL counts as false."""
    return value is True


def conjoin(terms: Sequence[Expression]) -> Expression:
    """Combine predicate terms into a single expression (TRUE when empty)."""
    if not terms:
        return Literal(True)
    if len(terms) == 1:
        return terms[0]
    return And(*terms)


# ---------------------------------------------------------------------------
# Admission constraints (predicate-indexed query routing)
# ---------------------------------------------------------------------------
#
# The shared multi-query registry (:mod:`repro.dsms.registry`) indexes
# registered plans by the hoistable part of their admission predicates: the
# single-alias ``column = literal`` / ``IN (literals)`` / range conjuncts a
# tuple can be tested against *before* the plan's own callbacks run.  An
# :class:`AdmissionConstraint` is the index key material for one alias —
# one field plus an equality value set and/or literal ranges.  A
# constraint may over-admit (the plan re-checks every delivered tuple)
# but must never reject a tuple the plan's own predicate would accept, so
# extraction is deliberately conservative — anything it cannot prove
# indexable simply contributes no constraint.


class AdmissionConstraint:
    """One alias's indexable admission predicate on a single field.

    ``values`` is a frozenset of literals the field may equal (None when
    the constraint has no equality component — not "all values"), and
    ``ranges`` holds ``(lo, hi, lo_incl, hi_incl)`` literal intervals with
    None for an open end.  :meth:`admits` decides non-None field values;
    NULL handling (strict WHERE vs lenient SEQ admission) is the router's
    job, not the constraint's.
    """

    __slots__ = ("field", "values", "ranges")

    def __init__(
        self,
        field: str,
        values: frozenset | None = None,
        ranges: Sequence[tuple] = (),
    ) -> None:
        self.field = field
        self.values = values
        self.ranges = tuple(ranges)

    def admits(self, value: Any) -> bool:
        """Whether a non-None *value* may satisfy the indexed conjuncts.

        Incomparable/unhashable values admit (over-admission is safe; the
        plan's own predicate decides, with its own error semantics).
        """
        try:
            if self.values is not None and value in self.values:
                return True
        except TypeError:
            return True
        for lo, hi, lo_incl, hi_incl in self.ranges:
            try:
                if lo is not None and (
                    value < lo or (not lo_incl and value == lo)
                ):
                    continue
                if hi is not None and (
                    value > hi or (not hi_incl and value == hi)
                ):
                    continue
            except TypeError:
                return True
            return True
        return False

    def intersect(self, other: "AdmissionConstraint") -> "AdmissionConstraint":
        """Conjunction with *other* (same field).

        Exact where representable; otherwise returns ``self`` unchanged,
        which over-admits and stays sound.
        """
        if self.values is not None and other.values is not None:
            return AdmissionConstraint(self.field, self.values & other.values)
        if self.values is not None:
            kept = frozenset(v for v in self.values if other.admits(v))
            return AdmissionConstraint(self.field, kept)
        if other.values is not None:
            kept = frozenset(v for v in other.values if self.admits(v))
            return AdmissionConstraint(self.field, kept)
        if len(self.ranges) == 1 and len(other.ranges) == 1:
            merged = _intersect_ranges(self.ranges[0], other.ranges[0])
            if merged is None:
                return AdmissionConstraint(self.field, frozenset())
            return AdmissionConstraint(self.field, None, (merged,))
        return self

    def union(self, other: "AdmissionConstraint") -> "AdmissionConstraint | None":
        """Disjunction with *other*, or None when fields differ.

        Used when several operator aliases read the same stream: the
        stream-level gate must admit a tuple any alias would admit.
        """
        if self.field.lower() != other.field.lower():
            return None
        values: frozenset | None = None
        if self.values is not None or other.values is not None:
            values = (self.values or frozenset()) | (other.values or frozenset())
        return AdmissionConstraint(
            self.field, values, self.ranges + other.ranges
        )

    def __repr__(self) -> str:
        parts = []
        if self.values is not None:
            parts.append(f"{len(self.values)} values")
        if self.ranges:
            parts.append(f"{len(self.ranges)} ranges")
        return f"AdmissionConstraint({self.field}: {', '.join(parts) or 'empty'})"


def _intersect_ranges(a: tuple, b: tuple) -> tuple | None:
    """Intersect two literal intervals; None when provably empty."""
    lo, lo_incl = a[0], a[2]
    try:
        # Tighter lower bound wins; equal bounds intersect inclusivity.
        if lo is None or (b[0] is not None and b[0] > lo):
            lo, lo_incl = b[0], b[2]
        elif b[0] is not None and b[0] == lo:
            lo_incl = lo_incl and b[2]
        hi, hi_incl = a[1], a[3]
        if hi is None or (b[1] is not None and b[1] < hi):
            hi, hi_incl = b[1], b[3]
        elif b[1] is not None and b[1] == hi:
            hi_incl = hi_incl and b[3]
        if lo is not None and hi is not None:
            if lo > hi or (lo == hi and not (lo_incl and hi_incl)):
                return None
    except TypeError:
        return a  # incomparable bound types: keep one side (over-admits)
    return (lo, hi, lo_incl, hi_incl)


def _constraint_column(
    expr: Expression, alias_key: str, allow_bare: bool
) -> Column | None:
    """*expr* as a Column owned by the target alias, else None."""
    if type(expr) is not Column:
        return None
    if expr.alias is None:
        return expr if allow_bare else None
    return expr if expr.alias.lower() == alias_key else None


_FLIPPED_OPS = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _term_admission_constraint(
    term: Expression, alias_key: str, allow_bare: bool
) -> AdmissionConstraint | None:
    """The indexable constraint one conjunct imposes, or None."""
    if isinstance(term, BinaryOp) and term.op in ("=", "<", "<=", ">", ">="):
        op = term.op
        column = _constraint_column(term.left, alias_key, allow_bare)
        literal = term.right
        if column is None:
            column = _constraint_column(term.right, alias_key, allow_bare)
            literal = term.left
            op = _FLIPPED_OPS.get(op, op)
        if column is None or not isinstance(literal, Literal):
            return None
        value = literal.value
        if value is None:
            return None  # comparisons to NULL never index
        if op == "=":
            try:
                return AdmissionConstraint(column.field, frozenset((value,)))
            except TypeError:
                return None
        bounds = {
            "<": (None, value, True, False),
            "<=": (None, value, True, True),
            ">": (value, None, False, True),
            ">=": (value, None, True, True),
        }
        return AdmissionConstraint(column.field, None, (bounds[op],))
    if isinstance(term, InList) and not term.negate:
        column = _constraint_column(term.operand, alias_key, allow_bare)
        if column is None:
            return None
        values = []
        for option in term.options:
            if not isinstance(option, Literal) or option.value is None:
                return None  # NULL options make a failed IN lenient-pass
            values.append(option.value)
        try:
            return AdmissionConstraint(column.field, frozenset(values))
        except TypeError:
            return None
    if isinstance(term, Between) and not term.negate:
        column = _constraint_column(term.operand, alias_key, allow_bare)
        if column is None:
            return None
        low, high = term.low, term.high
        if (
            not isinstance(low, Literal) or low.value is None
            or not isinstance(high, Literal) or high.value is None
        ):
            return None
        return AdmissionConstraint(
            column.field, None, ((low.value, high.value, True, True),)
        )
    return None


def admission_constraint(
    terms: Iterable[Expression], alias: str, allow_bare: bool = False
) -> AdmissionConstraint | None:
    """Fold guard *terms* into one alias's best indexable constraint.

    *terms* should already be restricted to conjuncts whose column
    references all belong to *alias* (bare references allowed only with
    *allow_bare* — the single-source case where they can only mean the
    stream).  Conjuncts on the same field intersect exactly; when several
    fields are constrained the equality-bearing one wins: a finite value
    set is the narrower gate, and its hash bucket decides any hashable
    value, where the router's range index places only ``int``/``float``
    values and scans the rest.  Returns None when nothing indexable was
    found — the plan then routes through the residual scan list.
    """
    alias_key = alias.lower()
    per_field: dict[str, AdmissionConstraint] = {}
    for term in terms:
        constraint = _term_admission_constraint(term, alias_key, allow_bare)
        if constraint is None:
            continue
        key = constraint.field.lower()
        existing = per_field.get(key)
        per_field[key] = (
            constraint if existing is None else existing.intersect(constraint)
        )
    best: AdmissionConstraint | None = None
    for constraint in per_field.values():
        if constraint.values is not None:
            if best is None or best.values is None:
                best = constraint
        elif best is None:
            best = constraint
    return best

