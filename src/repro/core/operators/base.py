"""Shared types for the ESL-EV temporal event operators.

A temporal operator (paper section 3.1) maps a timestamp-ordered sequence of
tuples to boolean events.  In this runtime an operator instance:

* subscribes to its argument streams,
* maintains tuple history according to its :class:`PairingMode`,
* and emits :class:`SeqMatch` objects (the variable bindings that made the
  operator true) to a callback.

The compiled ESL-EV query layers SELECT/WHERE evaluation on top of these
matches; the operators themselves are usable directly from Python, which is
how the benchmarks drive them.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Iterator, Mapping, Sequence

from ...dsms.errors import EslSemanticError, WindowError
from ...dsms.tuples import Tuple


class PairingMode(enum.Enum):
    """The paper's four Tuple Pairing Modes (section 3.1.1).

    * UNRESTRICTED — every time-ordered combination forms an event.
    * RECENT — an incoming tuple matches the most recent qualifying tuple on
      each other stream; history is aggressively purged.
    * CHRONICLE — earliest qualifying tuples; each tuple participates in at
      most one event and is consumed on match.
    * CONSECUTIVE — tuples must be adjacent on the joint tuple history of all
      participating streams; history resets when a sequence completes or is
      interrupted.
    """

    UNRESTRICTED = "unrestricted"
    RECENT = "recent"
    CHRONICLE = "chronicle"
    CONSECUTIVE = "consecutive"

    @classmethod
    def parse(cls, text: str) -> "PairingMode":
        try:
            return cls(text.strip().lower())
        except ValueError:
            options = ", ".join(mode.value.upper() for mode in cls)
            raise EslSemanticError(
                f"unknown pairing mode {text!r}; expected one of {options}"
            ) from None


class SeqArg:
    """One argument of SEQ / EXCEPTION_SEQ.

    Attributes:
        stream: source stream name.
        alias: the name bindings are exposed under (defaults to the stream
            name; SQL aliases let the same stream appear at several
            positions).
        starred: True for ``E*`` star-sequence arguments.
        max_gap: maximum seconds between consecutive tuples of a star run —
            the paper's ``R1.tagtime - R1.previous.tagtime <= 1 SECONDS``
            constraint, hoisted into the operator so runs segment correctly.
            None means any gap extends the run.
        gap_check: general form of the same constraint — a predicate
            ``(previous_tuple, new_tuple) -> bool`` consulted instead of
            max_gap when present (the compiler builds these from arbitrary
            ``previous`` expressions).
    """

    __slots__ = ("stream", "alias", "starred", "max_gap", "gap_check")

    def __init__(
        self,
        stream: str,
        alias: str | None = None,
        starred: bool = False,
        max_gap: float | None = None,
        gap_check: Callable[["Tuple", "Tuple"], bool] | None = None,
    ) -> None:
        self.stream = stream
        self.alias = alias or stream
        self.starred = starred
        if max_gap is not None and max_gap < 0:
            raise EslSemanticError(f"negative star gap: {max_gap}")
        self.max_gap = max_gap
        self.gap_check = gap_check
        if (max_gap is not None or gap_check is not None) and not starred:
            raise EslSemanticError(
                f"argument {self.alias!r}: gap constraints only apply to "
                "starred args"
            )

    def __repr__(self) -> str:
        star = "*" if self.starred else ""
        gap = f", gap<={self.max_gap:g}s" if self.max_gap is not None else ""
        return f"SeqArg({self.stream}{star} AS {self.alias}{gap})"


class OperatorWindow:
    """A sliding window attached to a temporal operator.

    ``OVER [30 MINUTES PRECEDING C4]`` — *anchor* is the argument index of
    C4, *direction* is ``"preceding"``: every tuple in the match must have
    ``anchor.ts - duration <= ts <= anchor.ts``.

    ``OVER [1 HOURS FOLLOWING A1]`` — direction ``"following"``: every tuple
    must satisfy ``anchor.ts <= ts <= anchor.ts + duration``.  FOLLOWING
    windows on EXCEPTION_SEQ additionally arm expiration timers (Active
    Expiration).
    """

    __slots__ = ("duration", "anchor", "direction")

    def __init__(self, duration: float, anchor: int, direction: str) -> None:
        if duration < 0:
            raise WindowError(f"negative operator window: {duration}")
        if direction not in ("preceding", "following"):
            raise WindowError(f"window direction must be preceding/following")
        self.duration = float(duration)
        self.anchor = anchor
        self.direction = direction

    def admits(self, tuples: Sequence[Tuple], anchor_tuple: Tuple) -> bool:
        """True when every tuple lies inside the window around the anchor."""
        if self.direction == "preceding":
            lo = anchor_tuple.ts - self.duration
            hi = anchor_tuple.ts
        else:
            lo = anchor_tuple.ts
            hi = anchor_tuple.ts + self.duration
        return all(lo <= tup.ts <= hi for tup in tuples)

    def horizon(self, now: float) -> float:
        """Oldest timestamp that could still join a future match at *now*.

        Used to prune tuple history: anything older can never satisfy the
        window again.
        """
        return now - self.duration

    def __repr__(self) -> str:
        return (
            f"OperatorWindow({self.duration:g}s {self.direction.upper()} "
            f"arg#{self.anchor})"
        )


class SeqMatch:
    """The variable bindings of one positive operator evaluation.

    ``bindings[alias]`` is a single :class:`Tuple` for plain arguments and a
    list of tuples (the star run, oldest first) for starred arguments.
    The constructor takes *args* and *bindings* over without copying them:
    every producer builds a fresh bindings dict per match.
    """

    __slots__ = ("args", "bindings", "ts")

    def __init__(
        self,
        args: tuple[SeqArg, ...],
        bindings: dict[str, Tuple | list[Tuple]],
        ts: float,
    ) -> None:
        self.args = args
        self.bindings = bindings
        self.ts = ts

    def _lookup(self, alias: str) -> Tuple | list[Tuple]:
        if alias in self.bindings:
            return self.bindings[alias]
        lowered = alias.lower()
        for key, bound in self.bindings.items():
            if key.lower() == lowered:
                return bound
        raise KeyError(alias)

    def tuple_for(self, alias: str) -> Tuple:
        """The single tuple bound to *alias* (last of a star run)."""
        bound = self._lookup(alias)
        if isinstance(bound, list):
            return bound[-1]
        return bound

    def run_for(self, alias: str) -> list[Tuple]:
        """The star run bound to *alias* (a 1-list for plain args)."""
        bound = self._lookup(alias)
        if isinstance(bound, list):
            return bound
        return [bound]

    def first(self, alias: str) -> Tuple:
        """Paper's FIRST(R1*): first tuple of the run."""
        return self.run_for(alias)[0]

    def last(self, alias: str) -> Tuple:
        """Paper's LAST(R1*): last tuple of the run."""
        return self.run_for(alias)[-1]

    def count(self, alias: str) -> int:
        """Paper's COUNT(R1*): number of tuples in the run."""
        return len(self.run_for(alias))

    def all_tuples(self) -> Iterator[Tuple]:
        """Every bound tuple in argument order (star runs expanded)."""
        for arg in self.args:
            yield from self.run_for(arg.alias)

    def key(self) -> tuple:
        """A hashable identity for deduplication in tests."""
        parts = []
        for arg in self.args:
            run = self.run_for(arg.alias)
            parts.append(tuple((tup.ts, tup.seq) for tup in run))
        return tuple(parts)

    def __repr__(self) -> str:
        inner = []
        for arg in self.args:
            run = self.run_for(arg.alias)
            if arg.starred:
                inner.append(f"{arg.alias}*={[f'{t.ts:g}' for t in run]}")
            else:
                inner.append(f"{arg.alias}@{run[0].ts:g}")
        return f"SeqMatch({', '.join(inner)})"


#: Signature of operator output callbacks.
MatchCallback = Callable[[SeqMatch], None]

#: Optional predicate evaluated while *building* candidate bindings.  It
#: receives the partial bindings accumulated so far (alias -> tuple/run) and
#: returns False to reject the extension — this is how "qualifying
#: conditions on attributes" (paper 3.1.1) steer RECENT/CHRONICLE selection.
Guard = Callable[[Mapping[str, Any]], bool]


def validate_args(args: Sequence[SeqArg]) -> None:
    """Shared argument validation for operator constructors."""
    if len(args) < 2:
        raise EslSemanticError("temporal operators need at least two arguments")
    seen: set[str] = set()
    for arg in args:
        key = arg.alias.lower()
        if key in seen:
            raise EslSemanticError(f"duplicate operator alias {arg.alias!r}")
        seen.add(key)
    for left, right in zip(args, args[1:]):
        if left.starred and left.stream.lower() == right.stream.lower():
            # SEQ(A*, A) is inherently ambiguous: under longest-match the
            # second A can never be reached.  Reject early with a clear
            # message instead of silently never matching.
            raise EslSemanticError(
                f"star argument {left.alias!r} is followed by the same stream "
                f"{right.stream!r}; longest-match would consume every tuple"
            )
