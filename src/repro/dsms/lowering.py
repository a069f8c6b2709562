"""Tier lowering: the one place the vector → scalar chain lives.

An engine is built with a single ordered cap, ``tier``; each value
enables every rung at and below it:

=============  ========================================================
``tier``       what runs
=============  ========================================================
closure        expressions lowered to Python closures, operator
               dispatch specialized at wiring time, and the indexed SEQ
               state layer (predecessor cuts, bisected eviction, expiry
               heap) — the one production path.
vector         (default) + SEQ pairing masks: cross-alias conjuncts
               evaluated per anchor over a columnar mirror of each
               partition's history (``ColumnStore``), built from tuples
               whatever container the rows arrived in.
=============  ========================================================

A **mask** is a per-row hint that lets a consumer skip rows without
evaluating the scalar predicate on them.  The contract every mask built
here obeys — and the only thing callers rely on — is *over-admit, never
under-admit*: a falsy entry proves the scalar predicate rejects that
row; a truthy entry proves nothing, and the caller re-checks survivors
with the scalar predicate.  Hence any tier may decline at any granularity
and the output cannot change: a predicate that does not lower gets no
mask (``None`` from the builder), a history whose values escape a
tier's representation gets no mask *for that call* (``None`` from the
mask function), and "no mask" means "visit every row", which is exactly
the scalar path.

Pairing masks are *lenient*, like the guard they stand in for: a row is
kept unless some term ``is False`` — NULL passes, to be re-checked once
more aliases bind.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from .errors import EslSemanticError
from .expressions import (
    CompileContext,
    Env,
    Expression,
    compile_pairing_vector,
)
from .schema import Schema

__all__ = ["TIERS", "Lowering", "execution_tier"]

#: Legal ``tier`` values, lowest rung first.
TIERS = ("closure", "vector")

#: ``(bindings, store, n) -> mask | None`` over a history mirror.
MaskFn = Callable[[Any, Any, int], Any]


def execution_tier(tier: str) -> dict[str, Any]:
    """Which tier was requested and which one actually runs on this host.

    ``requested`` is the ``tier`` cap and ``active`` the rung in use; no
    remaining rung depends on the host, so the two agree.  SEQ pairing
    masks ride the same cap, so ``pairing`` mirrors the pair.
    """
    return {
        "requested": tier,
        "active": tier,
        "pairing": {"requested": tier, "active": tier},
    }


def _conjunction(fns: Sequence[Callable[..., list]]) -> MaskFn:
    """Lenient row mask for the conjunction of vectorized terms *fns*.

    Each fn returns the per-row Kleene values of one term; a row survives
    unless some term ``is False``.  A term that raises mid-history
    abandons the mask (None) rather than guessing.
    """

    def mask(*args: Any) -> list | None:
        try:
            masks = [
                [value is not False for value in fn(*args)] for fn in fns
            ]
        except Exception:  # noqa: BLE001 - any error -> scalar path
            return None
        if len(masks) == 1:
            return masks[0]
        return [all(row) for row in zip(*masks)]

    return mask


class Lowering:
    """One engine's tier cap, and the mask builders that honour it."""

    __slots__ = ("tier", "masks")

    def __init__(self, tier: str = "vector") -> None:
        if tier not in TIERS:
            names = ", ".join(repr(name) for name in reversed(TIERS))
            raise EslSemanticError(f"unknown tier {tier!r}: expected {names}")
        self.tier = tier
        #: Whether SEQ pairing masks are built at all.
        self.masks = tier == "vector"

    def pairing_mask(
        self,
        terms: Sequence[Expression],
        schema: Schema,
        alias: str,
        ctx: CompileContext,
        bound: Iterable[str],
        env: Env,
    ) -> MaskFn | None:
        """A lenient candidate-slice mask for one SEQ chain stage, or None.

        *terms* are the cross-alias conjuncts decidable once *alias* (the
        stage whose history is scanned, stored under *schema*) joins the
        already *bound* aliases; *env* is the guard's scratch Env the
        vector closures read anchor values through.  Only the subset of
        terms that lowers is kept — survivors take the scalar pairing
        check regardless.

        The returned ``mask_fn(bindings, store, n)`` masks the first *n*
        rows of a :class:`~repro.dsms.columns.ColumnStore` mirror against
        the live lower-cased bindings.
        """
        if not self.masks or not terms:
            return None
        bound = {name.lower() for name in bound}
        fns = [
            fn
            for fn in (
                compile_pairing_vector(term, schema, alias, ctx, bound)
                for term in terms
            )
            if fn is not None
        ]
        if not fns:
            return None
        conjunction = _conjunction(fns)

        def vector_fn(bindings: Any, store: Any, n: int) -> Any:
            env.bindings = bindings
            return conjunction(env, store.columns, store.timestamps, n)

        return vector_fn
