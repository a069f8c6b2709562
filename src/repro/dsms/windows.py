"""Sliding-window specifications and buffers.

Two buffer families implement the SQL:2003-style windows ESL-EV uses:

* :class:`RangeWindowBuffer` — time-based (``RANGE 1 SECONDS PRECEDING``),
  retaining every tuple whose timestamp is within a duration of the newest
  observed time.
* :class:`RowsWindowBuffer` — count-based (``ROWS 10 PRECEDING``), retaining
  the last N tuples.

Both support *symmetric* queries (``PRECEDING AND FOLLOWING``, paper
section 3.2) through :meth:`tuples_between`, provided the caller retains
tuples long enough — the engine's cross-sub-query operator does this with
timers.

Durations in ESL-EV text (``30 MINUTES``) normalize to seconds via
:func:`duration_seconds`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from itertools import chain
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import WindowError
from .tuples import Tuple

_TS = attrgetter("ts")

#: Unit name (singular, lowercase) -> seconds.  The parser strips plurals.
TIME_UNITS: Mapping[str, float] = {
    "millisecond": 0.001,
    "second": 1.0,
    "minute": 60.0,
    "hour": 3600.0,
    "day": 86400.0,
}


def duration_seconds(amount: float, unit: str) -> float:
    """Normalize ``(30, 'MINUTES')`` to seconds.

    Accepts singular or plural unit names, case-insensitively.
    """
    name = unit.strip().lower()
    if name.endswith("s") and name not in TIME_UNITS:
        name = name[:-1]
    if name not in TIME_UNITS:
        known = ", ".join(sorted(TIME_UNITS))
        raise WindowError(f"unknown time unit {unit!r}; expected one of {known}")
    if amount < 0:
        raise WindowError(f"negative duration: {amount} {unit}")
    return float(amount) * TIME_UNITS[name]


class WindowSpec:
    """A parsed window clause.

    Attributes:
        kind: ``"range"`` (time) or ``"rows"`` (count).
        preceding: seconds (range) or rows (rows) looking backwards; None
            means unbounded.
        following: seconds looking forwards (0 for ordinary windows; positive
            only for the paper's PRECEDING AND FOLLOWING extension).
        include_current: whether the probing tuple itself is inside the
            window.  Example 1's duplicate filter excludes it (a tuple is not
            its own duplicate).
    """

    __slots__ = ("kind", "preceding", "following", "include_current")

    def __init__(
        self,
        kind: str = "range",
        preceding: float | None = None,
        following: float = 0.0,
        include_current: bool = False,
    ) -> None:
        if kind not in ("range", "rows"):
            raise WindowError(f"unknown window kind {kind!r}")
        if kind == "rows" and following:
            raise WindowError("ROWS windows cannot have a FOLLOWING part")
        self.kind = kind
        self.preceding = preceding
        self.following = float(following)
        self.include_current = include_current

    @property
    def symmetric(self) -> bool:
        """True for PRECEDING AND FOLLOWING windows."""
        return self.following > 0

    def make_buffer(self) -> "RangeWindowBuffer | RowsWindowBuffer":
        """Build the matching buffer.  Symmetric windows need range buffers
        that retain ``preceding + following`` seconds behind the newest
        tuple so both sides of any anchor stay queryable."""
        if self.kind == "rows":
            if self.preceding is None:
                raise WindowError("ROWS window requires a row count")
            return RowsWindowBuffer(int(self.preceding))
        if self.preceding is None:
            return RangeWindowBuffer(None)
        return RangeWindowBuffer(self.preceding + self.following)

    def __repr__(self) -> str:
        if self.kind == "rows":
            return f"WindowSpec(ROWS {self.preceding:g} PRECEDING)"
        parts = []
        if self.preceding is None:
            parts.append("UNBOUNDED PRECEDING")
        else:
            parts.append(f"RANGE {self.preceding:g}s PRECEDING")
        if self.following:
            parts.append(f"AND {self.following:g}s FOLLOWING")
        return f"WindowSpec({' '.join(parts)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WindowSpec):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.preceding == other.preceding
            and self.following == other.following
            and self.include_current == other.include_current
        )


class RangeWindowBuffer:
    """Time-based window: keeps tuples within *duration* of the newest time.

    Tuples must be appended in timestamp order (the stream contract
    guarantees this), which makes the storage a sorted array: eviction and
    the window queries locate their timestamp boundaries with ``bisect``
    instead of scanning from the left.  Storage is a list with a lazy head
    offset — eviction advances the head pointer and the dead prefix is
    compacted away only once it dominates, so ``evict`` is O(log n)
    amortized instead of one ``popleft`` per dropped tuple.

    ``duration=None`` means unbounded retention.

    :meth:`create_index` adds a keyed side index: live tuples filed by a
    key read from their values, each bucket in arrival order, kept up to
    date by :meth:`append`, :meth:`evict` and :meth:`clear`.  Buckets are plain lists holding references to the
    buffer's own tuples (eviction deletes from a bucket's front, which is
    O(bucket) but keeps a short bucket at list size); a tuple whose key
    cannot be hashed (streams do not validate values) goes to a spill list
    that every keyed read also walks.
    """

    __slots__ = (
        "duration", "_tuples", "_head", "_latest", "_key_of", "_buckets", "_spill",
    )

    #: Dead-prefix compaction threshold (elements); below this the copy is
    #: cheaper to skip.
    COMPACT_MIN = 32

    def __init__(self, duration: float | None) -> None:
        if duration is not None and duration < 0:
            raise WindowError(f"negative window duration: {duration}")
        self.duration = duration
        self._tuples: list[Tuple] = []
        self._head = 0
        self._latest: float | None = None
        self._key_of: Callable[[Sequence[Any]], tuple] | None = None
        self._buckets: dict[tuple, list[Tuple]] = {}
        self._spill: list[Tuple] = []

    def create_index(self, key_of: Callable[[Sequence[Any]], tuple]) -> None:
        """File every live tuple, and every later one, under
        ``key_of(tup.values)`` (see :meth:`Schema.key_getter`)."""
        self._key_of = key_of
        self._reindex()

    def _reindex(self) -> None:
        self._buckets = {}
        self._spill = []
        if self._key_of is not None:
            for tup in self:
                self._file(tup)

    def _file(self, tup: Tuple) -> None:
        key = self._key_of(tup.values)
        try:
            bucket = self._buckets.get(key)
        except TypeError:  # unhashable key
            self._spill.append(tup)
            return
        if bucket is None:
            self._buckets[key] = [tup]
        else:
            bucket.append(tup)

    def _unfile(self, tup: Tuple) -> None:
        """Drop *tup*, the oldest live tuple, from the front of its bucket."""
        key = self._key_of(tup.values)
        try:
            bucket = self._buckets[key]
        except TypeError:
            del self._spill[0]
            return
        del bucket[0]
        if not bucket:
            del self._buckets[key]

    def append(self, tup: Tuple) -> None:
        """Add *tup* and evict everything that fell out of the window."""
        self._tuples.append(tup)
        if self._key_of is not None:
            self._file(tup)
        self._latest = tup.ts
        self.evict(tup.ts)

    def evict(self, now: float) -> int:
        """Drop tuples older than ``now - duration``; returns drop count."""
        if self.duration is None:
            return 0
        cutoff = now - self.duration
        tuples = self._tuples
        head = self._head
        keep = bisect_left(tuples, cutoff, lo=head, hi=len(tuples), key=_TS)
        dropped = keep - head
        if dropped:
            if self._key_of is not None:
                for index in range(head, keep):
                    self._unfile(tuples[index])
            self._head = keep
            if keep >= self.COMPACT_MIN and keep * 2 >= len(tuples):
                del tuples[:keep]
                self._head = 0
        return dropped

    def tuples_between(self, lo: float, hi: float) -> Iterator[Tuple]:
        """Tuples with ``lo <= ts <= hi`` in arrival order.

        Only sound if the buffer still retains everything at or after *lo*;
        callers working with symmetric windows size the buffer accordingly.
        """
        tuples = self._tuples
        start = bisect_left(tuples, lo, lo=self._head, hi=len(tuples), key=_TS)
        for index in range(start, len(tuples)):
            tup = tuples[index]
            if tup.ts > hi:
                break
            yield tup

    def tuples_preceding(
        self, anchor: Tuple, duration: float, include_anchor: bool = False
    ) -> Iterator[Tuple]:
        """Tuples within *duration* before *anchor* (Example 1 semantics).

        Excludes tuples arriving after the anchor; ``include_anchor``
        controls whether the anchor tuple itself (matched by identity) is
        yielded.
        """
        lo = anchor.ts - duration
        tuples = self._tuples
        start = bisect_left(tuples, lo, lo=self._head, hi=len(tuples), key=_TS)
        for index in range(start, len(tuples)):
            tup = tuples[index]
            if (tup.ts, tup.seq) > (anchor.ts, anchor.seq):
                break
            if tup is anchor and not include_anchor:
                continue
            yield tup

    def bucket_preceding(
        self, anchor: Tuple, duration: float, key: tuple
    ) -> Iterator[Tuple]:
        """:meth:`tuples_preceding` (anchor excluded) restricted to the
        tuples filed under *key*, then the spill list.

        Needs :meth:`create_index`.  An unhashable *key* raises
        ``TypeError`` here, before any tuple is yielded.
        """
        lo = anchor.ts - duration
        found = _preceding(self._buckets.get(key, ()), anchor, lo)
        if self._spill:
            return chain(found, _preceding(self._spill, anchor, lo))
        return found

    def __iter__(self) -> Iterator[Tuple]:
        tuples = self._tuples
        return iter(tuples[self._head:] if self._head else tuples)

    def __len__(self) -> int:
        return len(self._tuples) - self._head

    def clear(self) -> None:
        self._tuples.clear()
        self._head = 0
        self._reindex()

    def __repr__(self) -> str:
        span = "unbounded" if self.duration is None else f"{self.duration:g}s"
        return f"RangeWindowBuffer({span}, {len(self)} tuples)"


def _preceding(tuples: Iterable[Tuple], anchor: Tuple, lo: float) -> Iterator[Tuple]:
    """The members of an arrival-ordered run with ``ts >= lo`` up to
    *anchor* in ``(ts, seq)`` order, the anchor itself excluded."""
    anchor_ts, anchor_seq = anchor.ts, anchor.seq
    for tup in tuples:
        ts = tup.ts
        if ts < lo:
            continue
        if ts > anchor_ts or (ts == anchor_ts and tup.seq > anchor_seq):
            break
        if tup is not anchor:
            yield tup


class RowsWindowBuffer:
    """Count-based window: keeps the most recent *capacity* tuples."""

    __slots__ = ("capacity", "_tuples")

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise WindowError(f"negative window capacity: {capacity}")
        self.capacity = capacity
        self._tuples: deque[Tuple] = deque(maxlen=capacity if capacity else 1)
        if capacity == 0:
            self._tuples = deque(maxlen=0)

    def append(self, tup: Tuple) -> None:
        self._tuples.append(tup)

    def tuples_preceding(
        self, anchor: Tuple, duration: float | None = None, include_anchor: bool = False
    ) -> Iterator[Tuple]:
        for tup in self._tuples:
            if (tup.ts, tup.seq) > (anchor.ts, anchor.seq):
                break
            if tup is anchor and not include_anchor:
                continue
            yield tup

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __repr__(self) -> str:
        return f"RowsWindowBuffer({self.capacity}, {len(self)} tuples)"
