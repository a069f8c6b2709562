"""Tier lowering: the one place the native → vector → scalar chain lives.

An engine is built with a single ordered cap, ``tier``; each value
enables every rung at and below it:

=============  ========================================================
``tier``       what runs
=============  ========================================================
interpreted    the **reference configuration**: tree-walking
               ``Expression.eval`` per row and the original SEQ
               enumeration / all-partition sweep.  Every other tier is
               tested byte-for-byte against it.
closure        expressions lowered to Python closures, operator
               dispatch specialized at wiring time, and the indexed SEQ
               state layer (predecessor cuts, bisected eviction, expiry
               heap) — the production path all higher tiers share.
vector         (default) + whole-batch masks over
               :class:`~repro.dsms.columns.ColumnBatch` columns
               (admission) and partition-history mirrors (SEQ pairing).
native         + the same predicates lowered to C kernels, consulted
               before the vector masks.  Opt-in because it runs the
               platform C compiler at query registration; with no
               compiler on the host it degrades to ``vector`` by itself.
=============  ========================================================

A **mask** is a per-row hint that lets a consumer skip rows without
evaluating the scalar predicate on them.  The contract every mask built
here obeys — and the only thing callers rely on — is *over-admit, never
under-admit*: a falsy entry proves the scalar predicate rejects that
row; a truthy entry proves nothing, and the caller re-checks survivors
with the scalar predicate.  Hence any tier may decline at any granularity
and the output cannot change: a predicate that does not lower gets no
mask (``None`` from the builder), a batch whose values escape a tier's
representation gets no mask *for that call* (``None`` from the mask
function) and the next tier down is tried, and "no mask" means "visit
every row", which is exactly the scalar path.

The two mask disciplines differ only in which Kleene value rejects:
*strict* (a WHERE clause) keeps a row only when every term ``is True``;
*lenient* (a temporal operator's guard) keeps it unless some term
``is False`` — NULL passes, to be re-checked once more aliases bind.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from . import native
from .errors import EslSemanticError
from .expressions import (
    CompileContext,
    Env,
    Expression,
    compile_pairing_vector,
    compile_vector,
)
from .schema import Schema

__all__ = ["TIERS", "Lowering", "execution_tier"]

#: Legal ``tier`` values, lowest rung first.
TIERS = ("interpreted", "closure", "vector", "native")

#: ``(a, b, n) -> mask | None`` — admission masks take ``(columns,
#: timestamps, n)``, pairing masks ``(bindings, store, n)``.
MaskFn = Callable[[Any, Any, int], Any]


def execution_tier(tier: str, native_state: Any = None) -> dict[str, Any]:
    """Which tier was requested and which one actually runs on this host.

    ``requested`` is the ``tier`` cap; ``active`` is one rung lower when
    ``native`` was requested and no C compiler is available.  SEQ pairing
    masks ride the same cap and degrade the same way, so ``pairing``
    mirrors the pair.  A native request also reports the ``compiler``
    path (None when absent), and an engine's own :class:`NativeState`
    adds its ``cache_dir`` and counter snapshot under ``native``.
    """
    info: dict[str, Any] = {"requested": tier}
    active = tier
    if tier == "native":
        compiler = native.find_compiler()
        if compiler is None:
            active = "vector"
        info["compiler"] = compiler
    if native_state is not None:
        info["cache_dir"] = str(native_state.cache_dir)
        info["native"] = native_state.stats()
    info["active"] = active
    info["pairing"] = {"requested": tier, "active": active}
    return info


def _conjunction(fns: Sequence[Callable[..., list]], strict: bool) -> MaskFn:
    """Row mask for the conjunction of vectorized terms *fns*.

    Each fn returns the per-row Kleene values of one term.  ``(value is
    strict) is strict`` reads ``value is True`` under the strict
    discipline and ``value is not False`` under the lenient one.  A term
    that raises mid-batch abandons the mask (None) rather than guessing.
    """

    def mask(*args: Any) -> list | None:
        try:
            masks = [
                [(value is strict) is strict for value in fn(*args)]
                for fn in fns
            ]
        except Exception:  # noqa: BLE001 - any error -> scalar path
            return None
        if len(masks) == 1:
            return masks[0]
        return [all(row) for row in zip(*masks)]

    return mask


def _chain(native_fn: MaskFn | None, vector_fn: MaskFn | None) -> MaskFn | None:
    """try-native → try-vector; None when neither tier produced a mask."""
    if native_fn is None or vector_fn is None:
        return native_fn or vector_fn

    def chained(a: Any, b: Any, n: int) -> Any:
        mask = native_fn(a, b, n)
        return mask if mask is not None else vector_fn(a, b, n)

    return chained


class Lowering:
    """One engine's tier cap, and the mask builders that honour it."""

    __slots__ = ("tier", "compiled", "masks", "native_state")

    def __init__(self, tier: str = "vector") -> None:
        if tier not in TIERS:
            raise EslSemanticError(
                f"unknown tier {tier!r}: expected 'native', 'vector', "
                "'closure', or 'interpreted'"
            )
        rank = TIERS.index(tier)
        self.tier = tier
        #: False only in the reference configuration (AST-walking
        #: evaluator + original SEQ enumeration and sweep).
        self.compiled = rank >= 1
        #: Whether column batches are admitted through masks at all.
        self.masks = rank >= 2
        #: Kernel-cache handles and counters of the native rung.  Cheap
        #: to create: no compiler runs until a predicate registers.
        self.native_state = native.NativeState() if rank >= 3 else None

    def admission_mask(
        self,
        terms: Sequence[Expression],
        schema: Schema,
        alias: str | None,
        strict: bool,
    ) -> MaskFn | None:
        """A ``(columns, timestamps, n) -> mask | None`` hook for the
        conjunction of *terms* over one stream's batches, or None.

        *terms* reference only *alias* (bare columns resolve against
        *schema*).  The vector rung needs every term to lower: admission
        masks decide materialization, so a partial mask would buy little.
        """
        if not self.masks or not terms:
            return None
        native_fn = None
        if self.native_state is not None:
            native_fn = native.native_admission_mask(
                terms, schema, alias, "strict" if strict else "lenient",
                self.native_state,
            )
        fns = [compile_vector(term, schema, alias) for term in terms]
        vector_fn = None if None in fns else _conjunction(fns, strict)
        return _chain(native_fn, vector_fn)

    def pairing_mask(
        self,
        terms: Sequence[Expression],
        schema: Schema,
        alias: str,
        ctx: CompileContext,
        bound: Iterable[str],
        env: Env,
    ) -> tuple[MaskFn, tuple] | None:
        """A lenient candidate-slice mask for one SEQ chain stage, or None.

        *terms* are the cross-alias conjuncts decidable once *alias* (the
        stage whose history is scanned, stored under *schema*) joins the
        already *bound* aliases; *env* is the guard's scratch Env the
        vector closures read anchor values through.  Each rung keeps the
        subset of terms it can express — survivors take the scalar
        pairing check regardless.

        Returns ``(mask_fn, packed_slots)``: ``mask_fn(bindings, store,
        n)`` masks the first *n* rows of a
        :class:`~repro.dsms.columns.ColumnStore` mirror against the live
        lower-cased bindings; ``packed_slots`` are the column buffers the
        native kernel needs that mirror to maintain (empty without one).
        """
        if not self.masks or not terms:
            return None
        bound = {name.lower() for name in bound}
        native_fn = None
        packed_slots: tuple = ()
        if self.native_state is not None:
            outer_schemas = {
                name: ctx.schemas[name] for name in bound if name in ctx.schemas
            }
            lowered = native.native_pairing_mask(
                terms, schema, alias, outer_schemas, self.native_state
            )
            if lowered is not None:
                native_fn, spec = lowered
                packed_slots = spec.slots
        vector_fn = None
        fns = [
            fn
            for fn in (
                compile_pairing_vector(term, schema, alias, ctx, bound)
                for term in terms
            )
            if fn is not None
        ]
        if fns:
            conjunction = _conjunction(fns, strict=False)

            def vector_fn(bindings: Any, store: Any, n: int) -> Any:
                env.bindings = bindings
                return conjunction(env, store.columns, store.timestamps, n)

        mask_fn = _chain(native_fn, vector_fn)
        return None if mask_fn is None else (mask_fn, packed_slots)
