"""Compiled operator guards: per-argument admission plus cross-alias pairing.

A temporal operator's residual WHERE conjuncts (the "qualifying
conditions") are evaluated *leniently*: a conjunct whose references are not
all bound yet must pass, because it will be re-checked once they bind.
Re-running every conjunct against every partial binding would cost
O(terms) work per extension attempt.

:class:`CompiledGuard` lowers each conjunct to a closure once (via
:meth:`~repro.dsms.expressions.Expression.compile`) and splits the
conjunction by the aliases each term references:

* **admission terms** reference exactly one operator alias.  They can be
  decided the moment a tuple arrives for that argument — a tuple failing
  its single-alias conjunct can never appear in any successful binding, so
  operators may drop it before it ever enters history.
* **cross terms** reference two or more aliases (or none statically) and
  must stay in the pairing-time check.

When every conjunct is an admission term, ``cross_free`` is True and the
pairing check degenerates to a constant — which re-enables RECENT-mode
dominated-tuple purging, normally unsound under a guard.

The guard remains a plain ``Callable[[Mapping[str, Any]], bool]`` (the
:data:`~repro.core.operators.base.Guard` contract): calling it runs the
full lenient conjunction, so operators that do not know about the split
(star / EXCEPTION_SEQ) still get compiled-closure speed.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from ...dsms.errors import EslRuntimeError
from ...dsms.expressions import CompileContext, Env, EvalFn, Expression

__all__ = ["CompiledGuard", "build_compiled_guard"]


def _lenient(fn: EvalFn) -> Callable[[Env], bool]:
    """Wrap a compiled term with the lenient-pass discipline.

    Unbound aliases raise EslRuntimeError and star-run list bindings raise
    TypeError; both count as "cannot be checked yet" and pass.
    """

    def check(env: Env) -> bool:
        try:
            return fn(env) is not False
        except (EslRuntimeError, TypeError):
            return True

    return check


def _term_aliases(term: Expression, known: Mapping[str, Any]) -> set[str] | None:
    """The operator aliases *term* references, or None when indeterminate.

    A bare (unqualified) column reference resolves dynamically against
    whatever is bound, so such a term cannot be split — treat it as a cross
    term.
    """
    aliases: set[str] = set()
    for alias, _field in term.references():
        if alias is None:
            return None
        key = alias.lower()
        if key not in known:
            return None  # references something outside the operator args
        aliases.add(key)
    return aliases


class CompiledGuard:
    """A guard lowered to closures and split by referenced aliases.

    Callable with the full (or partial) alias->binding mapping, like any
    :data:`Guard`.  Operators aware of the split use :meth:`admit` at
    arrival time and :meth:`pairing` while pairing candidates whose
    members all passed admission.
    """

    __slots__ = ("_admission", "_cross", "_env", "aliases")

    def __init__(
        self,
        admission: Mapping[str, Sequence[Callable[[Env], bool]]],
        cross: Sequence[Callable[[Env], bool]],
        env: Env,
    ) -> None:
        self._admission = {alias.lower(): tuple(fns) for alias, fns in admission.items()}
        self._cross = tuple(cross)
        # One scratch Env reused across calls: guard evaluation is
        # synchronous and operator-local, so rebinding per call is safe and
        # avoids an allocation per check.
        self._env = env
        self.aliases = frozenset(self._admission)

    @property
    def cross_free(self) -> bool:
        """True when no conjunct spans multiple aliases."""
        return not self._cross

    def admit(self, alias: str, bound: Any) -> bool:
        """Decide *alias*'s single-alias conjuncts for one candidate binding."""
        fns = self._admission.get(alias.lower())
        if not fns:
            return True
        env = self._env
        env.bindings = {alias.lower(): bound}
        for fn in fns:
            if not fn(env):
                return False
        return True

    def pairing_prebound(self, bindings: Mapping[str, Any]) -> bool:
        """Check only the cross-alias conjuncts (members already admitted).

        *bindings* keys must already be lower-cased aliases: the indexed
        SEQ enumeration keeps one scratch bindings dict alive across all
        candidates of a scan, and the env is simply repointed at it — no
        per-candidate dict rebuild in the hot loop.
        """
        if not self._cross:
            return True
        env = self._env
        env.bindings = bindings  # type: ignore[assignment]
        for fn in self._cross:
            if not fn(env):
                return False
        return True

    def __call__(self, bindings: Mapping[str, Any]) -> bool:
        """Full lenient conjunction — the plain :data:`Guard` contract."""
        env = self._env
        env.bindings = {alias.lower(): bound for alias, bound in bindings.items()}
        admission = self._admission
        for key in env.bindings:
            for fn in admission.get(key, ()):
                if not fn(env):
                    return False
        for fn in self._cross:
            if not fn(env):
                return False
        return True


def build_compiled_guard(
    terms: Iterable[Expression],
    ctx: CompileContext,
    arg_aliases: Iterable[str],
) -> CompiledGuard:
    """Compile guard *terms*, splitting them over *arg_aliases*."""
    known = {alias.lower(): None for alias in arg_aliases}
    admission: dict[str, list[Callable[[Env], bool]]] = {}
    cross: list[Callable[[Env], bool]] = []
    for term in terms:
        fn = _lenient(term.compile(ctx))
        aliases = _term_aliases(term, known)
        if aliases is not None and len(aliases) == 1:
            alias = next(iter(aliases))
            admission.setdefault(alias, []).append(fn)
        else:
            cross.append(fn)
    return CompiledGuard(admission, cross, Env(functions=ctx.functions))
