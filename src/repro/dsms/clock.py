"""Virtual time: the engine clock and timer service.

The paper's EXCEPTION_SEQ operator requires *Active Expiration* semantics
(section 3.1.3): a sliding-window expiration must be detected even when no
new tuple arrives.  In a real DSMS this is driven by the system clock; in
this reproduction time is virtual and advances in two ways:

* implicitly, when a tuple with a later timestamp is pushed, and
* explicitly, via :meth:`VirtualClock.advance` — the "heartbeat" a deployment
  would wire to wall-clock ticks.

Operators register :class:`Timer` callbacks; the clock fires every timer
whose deadline is <= the new time, in deadline order, before the triggering
tuple (if any) is processed.  This gives deterministic semantics: a timeout
at time T fires before a tuple stamped T' > T is seen.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from .errors import ClockError

TimerCallback = Callable[[float], None]


class Timer:
    """A scheduled callback.  Cancel by calling :meth:`cancel`.

    ``periodic`` marks timers whose callbacks re-arm themselves (recurring
    tasks like ALE event cycles); :meth:`VirtualClock.drain` cancels those
    instead of firing them, so end-of-stream flushes terminate.
    """

    __slots__ = ("deadline", "callback", "cancelled", "periodic", "_order",
                 "_clock")

    def __init__(
        self,
        deadline: float,
        callback: TimerCallback,
        order: int,
        periodic: bool = False,
        clock: "VirtualClock | None" = None,
    ) -> None:
        self.deadline = deadline
        self.callback = callback
        self.cancelled = False
        self.periodic = periodic
        self._order = order
        self._clock = clock

    def cancel(self) -> None:
        """Mark this timer so that it will be skipped when it pops."""
        if not self.cancelled:
            self.cancelled = True
            if self._clock is not None:
                self._clock._note_cancel()

    def __lt__(self, other: "Timer") -> bool:
        return (self.deadline, self._order) < (other.deadline, other._order)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "armed"
        return f"Timer(deadline={self.deadline:g}, {state})"


class VirtualClock:
    """Monotone virtual clock with a timer heap.

    The clock starts at ``-inf``-like ``None`` meaning "no time observed yet";
    the first advance establishes the epoch.  Moving backwards raises
    :class:`ClockError` — streams are timestamp-ordered by contract — and
    so does a NaN time, which no order can place.
    """

    #: Compaction kicks in only past this heap size; below it the cancelled
    #: entries are popped soon enough that rebuilding would cost more.
    COMPACT_MIN = 64

    def __init__(self) -> None:
        self._now: float | None = None
        self._timers: list[Timer] = []
        self._counter = itertools.count()
        self._firing = False
        self._live = 0  # armed (non-cancelled) timers, kept O(1)-readable

    @property
    def now(self) -> float:
        """Current virtual time; 0.0 before anything has happened."""
        return self._now if self._now is not None else 0.0

    @property
    def started(self) -> bool:
        return self._now is not None

    def schedule(
        self, deadline: float, callback: TimerCallback, periodic: bool = False
    ) -> Timer:
        """Register *callback* to fire when time reaches *deadline*.

        A deadline at or before the current time fires on the next advance
        (including a zero-width ``advance(now)``), never synchronously — this
        keeps operator code re-entrancy-free.  Pass ``periodic=True`` for
        self-re-arming timers so :meth:`drain` knows to stop them.
        """
        timer = Timer(
            float(deadline), callback, next(self._counter), periodic, clock=self
        )
        heapq.heappush(self._timers, timer)
        self._live += 1
        return timer

    def pending_timers(self) -> int:
        """Number of armed (non-cancelled) timers, maintained incrementally.

        Operators that arm and cancel timers per tuple (active expiration,
        state-expiry sweeps) call this on hot paths, so it must not scan
        the heap — cancelled entries stay in the heap until they pop or a
        compaction removes them.
        """
        return self._live

    def _note_cancel(self) -> None:
        """A timer was cancelled: keep the live count exact and compact the
        heap once cancelled entries dominate it.

        Compaction rebuilds the heap from the armed timers only; it is
        amortized O(1) per cancellation because it halves the heap each
        time it runs.
        """
        self._live -= 1
        timers = self._timers
        if len(timers) >= self.COMPACT_MIN and self._live * 2 < len(timers):
            self._timers = [t for t in timers if not t.cancelled]
            heapq.heapify(self._timers)

    def advance(self, to: float) -> int:
        """Move time forward to *to*, firing due timers in deadline order.

        Returns the number of timers fired.  Re-entrant scheduling is
        supported: a callback may schedule new timers, and those fire in the
        same advance when already due.
        """
        now = self._now
        if now is None:
            if to != to:
                raise ClockError(_refusal(now, to))
        elif not to >= now:
            raise ClockError(_refusal(now, to))
        if self._firing:
            # A timer callback pushed a tuple; time is already being advanced.
            # Deadlines it creates are handled by the outer loop.
            self._now = max(self._now or to, to)
            return 0
        self._now = to if self._now is None else max(self._now, to)
        fired = 0
        self._firing = True
        try:
            while self._timers and self._timers[0].deadline <= self._now:
                timer = heapq.heappop(self._timers)
                if timer.cancelled:
                    continue
                self._live -= 1
                timer.cancelled = True  # fired: no longer armed, cancel() no-ops
                timer.callback(timer.deadline)
                fired += 1
        finally:
            self._firing = False
        return fired

    def advance_if_due(self, to: float) -> int:
        """Move time to *to*, entering the timer loop only when a timer is due.

        Semantically identical to :meth:`advance` — same backwards check,
        same timer-before-later-tuple discipline — but when the head of the
        timer heap (if any) lies beyond *to*, it just slides ``now`` forward
        without the firing-loop setup.  This is the per-record clock call of
        the batched ingestion paths, where almost every record advances time
        by a little and fires nothing.
        """
        timers = self._timers
        if timers and timers[0].deadline <= to:
            return self.advance(to)
        if self._firing:
            return self.advance(to)
        now = self._now
        if now is None:
            if to != to:
                raise ClockError(_refusal(now, to))
            self._now = to
        elif to > now:
            self._now = to
        elif to != now:
            raise ClockError(_refusal(now, to))
        return 0

    def drain(self) -> int:
        """Fire all remaining one-shot timers regardless of deadline.

        Used at end-of-stream to flush pending window expirations, mirroring
        a DSMS shutting down a continuous query.  Periodic timers (recurring
        tasks such as ALE event cycles) are *cancelled*, not fired — a
        recurring task has no natural last firing, and draining it would
        loop forever.  Advances the clock to the last deadline fired.
        """
        fired = 0
        while self._timers:
            for timer in self._timers:
                if timer.periodic:
                    timer.cancel()
            armed = [t.deadline for t in self._timers if not t.cancelled]
            if not armed:
                self._timers.clear()
                break
            horizon = max(armed)
            fired += self.advance(
                horizon if self._now is None else max(horizon, self._now)
            )
        return fired

    def __repr__(self) -> str:
        return f"VirtualClock(now={self.now:g}, timers={self.pending_timers()})"


def _refusal(now: float | None, to: float) -> str:
    """Why the clock refuses to move to *to*: NaN, or backwards."""
    if to != to:
        return "clock cannot move to a NaN timestamp"
    return f"clock cannot move backwards: at {now:g}, asked for {to:g}"


def make_clock(value: Any = None) -> VirtualClock:
    """Return *value* if it already is a clock, else a fresh VirtualClock."""
    if isinstance(value, VirtualClock):
        return value
    return VirtualClock()
