"""User-defined aggregates (UDAs), ESL style.

ESL lets end users define aggregates *in SQL itself* with three blocks —
INITIALIZE, ITERATE, TERMINATE — each operating on a small in-memory state
table.  The paper (section 2.1) leans on this to argue that arbitrarily
complex aggregation stays inside the query language.

This module gives two ways to define a UDA:

* :func:`uda_from_callables` — wrap three Python callables (the common path
  for library users).
* :class:`SqlUda` — the ESL textual form, where each block is a tiny
  sequence of assignments over a named state, compiled once per
  aggregate; the ESL-EV parser produces these from ``CREATE AGGREGATE``
  statements.

Both produce ordinary :class:`~repro.dsms.aggregates.Aggregate` factories,
so UDAs and built-ins are indistinguishable to the engine.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from .aggregates import Aggregate
from .errors import EslSemanticError
from .expressions import CompileContext, Env, EvalFn, Expression


def uda_from_callables(
    name: str,
    initialize: Callable[[], Any],
    iterate: Callable[[Any, Any], Any],
    terminate: Callable[[Any], Any],
    skip_nulls: bool = True,
) -> Callable[[], Aggregate]:
    """Build an aggregate factory from plain Python callables.

    >>> geometric_range = uda_from_callables(
    ...     'vrange',
    ...     initialize=lambda: (None, None),
    ...     iterate=lambda s, v: (v if s[0] is None else min(s[0], v),
    ...                           v if s[1] is None else max(s[1], v)),
    ...     terminate=lambda s: None if s[0] is None else s[1] - s[0])
    """

    def factory() -> Aggregate:
        return Aggregate(name, initialize, iterate, terminate, skip_nulls)

    return factory


class StateAssignment:
    """One ``var := expression`` step inside a UDA block.

    Expressions may reference the incoming value as the pseudo-column
    ``value`` and prior state variables by name.
    """

    __slots__ = ("target", "expression")

    def __init__(self, target: str, expression: Expression) -> None:
        self.target = target
        self.expression = expression

    def __repr__(self) -> str:
        return f"StateAssignment({self.target} := {self.expression!r})"


class _StateTuple:
    """Adapter exposing a state dict (plus the current value) as a tuple-like
    object so ordinary :class:`Expression` nodes can read it."""

    __slots__ = ("state",)

    def __init__(self, state: dict[str, Any]) -> None:
        self.state = state

    def __getitem__(self, name: str) -> Any:
        if name not in self.state:
            raise EslSemanticError(f"UDA references unknown state var {name!r}")
        return self.state[name]

    def __contains__(self, name: object) -> bool:
        return name in self.state


class SqlUda:
    """An ESL-style UDA defined by assignment blocks.

    Example — average, the canonical ESL demo::

        SqlUda('myavg',
               initialize=[('cnt', Literal(0)), ('total', Literal(0))],
               iterate=[('cnt', cnt + 1), ('total', total + value)],
               terminate=total / cnt)
    """

    def __init__(
        self,
        name: str,
        initialize: Sequence[tuple[str, Expression]],
        iterate: Sequence[tuple[str, Expression]],
        terminate: Expression,
        functions: Mapping[str, Callable[..., Any]] | None = None,
        param: str = "value",
    ) -> None:
        self.name = name
        self.param = param
        self.initialize_block = [StateAssignment(t, e) for t, e in initialize]
        self.iterate_block = [StateAssignment(t, e) for t, e in iterate]
        self.terminate_expr = terminate
        self._functions = dict(functions or {})
        ctx = CompileContext(self._functions)
        self._initialize = self._compile(self.initialize_block, ctx)
        self._iterate = self._compile(self.iterate_block, ctx)
        self._terminate = terminate.compile(ctx)

    @staticmethod
    def _compile(
        block: Sequence[StateAssignment], ctx: CompileContext
    ) -> list[tuple[str, EvalFn]]:
        return [(step.target, step.expression.compile(ctx)) for step in block]

    def _env_for(self, state: dict[str, Any]) -> Env:
        env = Env(functions=self._functions)
        env.bindings["__state__"] = _StateTuple(state)  # type: ignore[assignment]
        return env

    def _run_block(
        self, block: Sequence[tuple[str, EvalFn]], state: dict[str, Any]
    ) -> dict[str, Any]:
        env = self._env_for(state)
        for target, fn in block:
            state[target] = fn(env)
        return state

    def factory(self) -> Callable[[], Aggregate]:
        """Return an Aggregate factory running the compiled blocks."""

        param = self.param

        def initialize() -> None:
            # ESL semantics: the INITIALIZE block runs when the *first* value
            # arrives (it may reference the value), so the pre-input state is
            # a None sentinel.
            return None

        def iterate(state: dict[str, Any] | None, value: Any) -> dict[str, Any]:
            block = self._initialize if state is None else self._iterate
            if state is None:
                state = {}
            state[param] = value
            self._run_block(block, state)
            state.pop(param, None)
            return state

        def terminate(state: dict[str, Any] | None) -> Any:
            if state is None:
                return None  # no input rows: SQL aggregates yield NULL
            state = dict(state)
            state.setdefault(param, None)
            return self._terminate(self._env_for(state))

        uda_name = self.name

        def make() -> Aggregate:
            return Aggregate(uda_name, initialize, iterate, terminate)

        return make

    def __repr__(self) -> str:
        return (
            f"SqlUda({self.name}, init={len(self.initialize_block)} steps, "
            f"iter={len(self.iterate_block)} steps)"
        )
