"""Windows synchronized across a sub-query boundary (paper section 3.2).

Example 8's theft detector needs ``NOT EXISTS`` over a window defined both
*before and after* an outer tuple::

    SELECT person.tagid
    FROM tag_readings AS person
    WHERE person.tagtype = 'person' AND NOT EXISTS
      (SELECT * FROM tag_readings AS item
       OVER [1 MINUTES PRECEDING AND FOLLOWING person]
       WHERE item.tagtype = 'item')

The FOLLOWING half means the predicate cannot be decided when the outer
tuple arrives: the decision point is ``outer.ts + following``.
:class:`SymmetricExistsOperator` implements this with pending outer tuples
resolved either by a witness (an inner tuple satisfying the correlated
predicate) or by a timer at the decision point — another use of the
engine's Active Expiration machinery.

Semantics summary (``negate=True`` = NOT EXISTS):

* outer tuple t arrives, passes ``outer_where``;
* witnesses are inner tuples w with ``t.ts - preceding <= w.ts <= t.ts +
  following`` and ``inner_where(w, t)`` true, excluding t itself when inner
  and outer are the same stream;
* NOT EXISTS: t is emitted at ``t.ts + following`` iff no witness appeared;
* EXISTS: t is emitted as soon as the first witness is known (possibly
  immediately, from history).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from ...dsms.checkpoint import pack_tuple, tuple_unpacker
from ...dsms.clock import Timer
from ...dsms.engine import Engine
from ...dsms.errors import WindowError
from ...dsms.tuples import Tuple
from ...dsms.windows import RangeWindowBuffer

OuterPredicate = Callable[[Tuple], bool]
InnerPredicate = Callable[[Tuple, Tuple], bool]
ResultCallback = Callable[[Tuple, float], None]


class _Pending:
    """An outer tuple awaiting its decision point."""

    __slots__ = ("outer", "deadline", "timer", "resolved")

    def __init__(self, outer: Tuple, deadline: float) -> None:
        self.outer = outer
        self.deadline = deadline
        self.timer: Timer | None = None
        self.resolved = False


class SymmetricExistsOperator:
    """EXISTS / NOT EXISTS with a PRECEDING-AND-FOLLOWING correlated window."""

    def __init__(
        self,
        engine: Engine,
        outer_stream: str,
        inner_stream: str,
        preceding: float,
        following: float,
        outer_where: OuterPredicate | None = None,
        inner_where: InnerPredicate | None = None,
        negate: bool = True,
        on_result: ResultCallback | None = None,
    ) -> None:
        """Args:
            preceding/following: window half-widths in seconds (either may
                be 0, but not both negative).
            negate: True for NOT EXISTS (the theft alert), False for EXISTS.
            on_result: called with ``(outer_tuple, decided_at)`` for every
                emission — the operator's only output; nothing is retained.
        """
        if preceding < 0 or following < 0:
            raise WindowError("window half-widths must be non-negative")
        self.engine = engine
        self.outer = engine.streams.get(outer_stream)
        self.inner = engine.streams.get(inner_stream)
        self.preceding = float(preceding)
        self.following = float(following)
        self.outer_where = outer_where
        self.inner_where = inner_where
        self.negate = negate
        self._on_result = on_result
        self._pending: list[_Pending] = []
        # Inner history must cover [t - preceding, t + following] for outer
        # tuples resolved up to `following` seconds after the newest arrival.
        self._history = RangeWindowBuffer(self.preceding + self.following)
        self._unsubscribes = [self.inner.subscribe(self._on_inner)]
        if self.outer is self.inner:
            # Same physical stream (Example 8): one subscription, tuples are
            # routed to both roles.
            self._same_stream = True
        else:
            self._same_stream = False
            self._unsubscribes.append(self.outer.subscribe(self._on_outer))
        self.emitted = 0
        self.suppressed = 0
        register = getattr(engine, "register_checkpointable", None)
        if register is not None:
            register(self)

    # -- checkpointing -----------------------------------------------------

    def snapshot_state(self) -> dict[str, Any]:
        """All mutable state as plain data: pending decisions (timers are
        re-armed at restore), the inner-history window, and counters."""
        return {
            "pending": [
                (pack_tuple(p.outer), p.deadline, p.resolved)
                for p in self._pending
            ],
            "history": [pack_tuple(t) for t in self._history],
            "latest": self._history.latest_ts,
            "emitted": self.emitted,
            "suppressed": self.suppressed,
        }

    def restore_state(self, blob: Mapping[str, Any]) -> None:
        unpack = tuple_unpacker(self.engine)
        for pending in self._pending:
            if pending.timer is not None:
                pending.timer.cancel()
        self._pending = []
        for packed, deadline, resolved in blob["pending"]:
            pending = _Pending(unpack(packed), deadline)
            pending.resolved = resolved
            self._pending.append(pending)
            if not resolved:
                self._arm(pending)
        self._history.restore(map(unpack, blob["history"]), blob["latest"])
        self.emitted = blob["emitted"]
        self.suppressed = blob["suppressed"]

    # -- public --------------------------------------------------------------

    def stop(self) -> None:
        for unsubscribe in self._unsubscribes:
            unsubscribe()
        self._unsubscribes.clear()
        for pending in self._pending:
            if pending.timer is not None:
                pending.timer.cancel()
        self._pending.clear()

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # -- ingestion --------------------------------------------------------------

    def _is_witness(self, candidate: Tuple, outer: Tuple) -> bool:
        if candidate is outer:
            return False  # a tuple never witnesses for itself
        if not (
            outer.ts - self.preceding <= candidate.ts <= outer.ts + self.following
        ):
            return False
        if self.inner_where is not None and not self.inner_where(candidate, outer):
            return False
        return True

    def _on_inner(self, tup: Tuple) -> None:
        self._history.append(tup)
        # New inner tuples may resolve pending outer tuples.
        still_pending: list[_Pending] = []
        for pending in self._pending:
            if not pending.resolved and self._is_witness(tup, pending.outer):
                pending.resolved = True
                if pending.timer is not None:
                    pending.timer.cancel()
                if self.negate:
                    self.suppressed += 1
                else:
                    self._emit(pending.outer, tup.ts)
            else:
                still_pending.append(pending)
        self._pending = still_pending
        if self._same_stream:
            self._on_outer(tup)

    def _on_outer(self, tup: Tuple) -> None:
        if self.outer_where is not None and not self.outer_where(tup):
            return
        witness = next(
            (
                candidate
                for candidate in self._history.tuples_between(
                    tup.ts - self.preceding, tup.ts
                )
                if self._is_witness(candidate, tup)
            ),
            None,
        )
        if witness is not None:
            if self.negate:
                self.suppressed += 1
            else:
                self._emit(tup, tup.ts)
            return
        if self.following == 0:
            # Decision point is now.
            if self.negate:
                self._emit(tup, tup.ts)
            else:
                self.suppressed += 1
            return
        pending = _Pending(tup, tup.ts + self.following)
        self._pending.append(pending)
        self._arm(pending)

    def _arm(self, pending: _Pending) -> None:
        """Schedule the decision-point timer for *pending*.

        A method (not an inline closure) so a checkpoint restore can
        re-arm restored pending entries through the same path.
        """
        pending.timer = self.engine.clock.schedule(
            pending.deadline,
            lambda fired_at, pending=pending: self._resolve_deadline(
                pending, fired_at
            ),
        )

    def _resolve_deadline(self, pending: _Pending, fired_at: float) -> None:
        if pending.resolved:
            return
        pending.resolved = True
        try:
            self._pending.remove(pending)
        except ValueError:
            pass
        if self.negate:
            self._emit(pending.outer, fired_at)
        else:
            self.suppressed += 1

    def _emit(self, outer: Tuple, decided_at: float) -> None:
        self.emitted += 1
        if self._on_result is not None:
            self._on_result(outer, decided_at)

    def __repr__(self) -> str:
        kind = "NOT EXISTS" if self.negate else "EXISTS"
        return (
            f"SymmetricExistsOperator({kind}, "
            f"[{self.preceding:g}s PRECEDING AND {self.following:g}s FOLLOWING], "
            f"emitted={self.emitted}, suppressed={self.suppressed}, "
            f"pending={self.pending_count})"
        )
