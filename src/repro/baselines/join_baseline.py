"""The join-based SQL baseline (paper footnote 3).

The paper notes that star-free ``SEQ(C1, ..., Cn)`` under UNRESTRICTED mode
is expressible as an n-way join: *"For each incoming C4 tuple, we join it
with all the tuples that have arrived so far in the other 3 streams, apply
the join conditions and the timing conditions."*  This module implements
that formulation literally, as a DSMS without temporal operators would run
it:

* full tuple history per stream (optionally truncated by an explicit
  retention window, which a careful SQL author would add);
* on every last-stream arrival, a nested-loop join over the histories with
  timestamp-ordering predicates;
* arbitrary join conditions via a binding predicate.

Two properties matter for the benchmarks:

1. **Equivalence** — with the same retention, its output matches
   UNRESTRICTED SEQ exactly (a property test asserts this).
2. **Cost** — per-arrival work is the product of history sizes, where SEQ
   with RECENT/CHRONICLE is near-constant; and it cannot express ``R1*``
   at all (:attr:`supports_star` is False — Example 4 motivates the
   language extension precisely because "detection of this pattern cannot
   be expressed using regular join operators").
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Mapping, Sequence

from ..dsms.engine import Engine
from ..dsms.errors import EslSemanticError
from ..dsms.tuples import Tuple

#: The baseline can only express fixed-length sequences.
supports_star = False

BindingPredicate = Callable[[Mapping[str, Tuple]], bool]
MatchCallback = Callable[[dict[str, Tuple]], None]


class JoinSequenceBaseline:
    """n-way windowed self-join sequence detection.

    Args:
        engine: source of streams.
        streams: stream names, in sequence order; the last is the trigger.
        aliases: binding names (default: the stream names).
        predicate: optional condition over the full binding (the WHERE
            residue: equality on tag ids, timing conditions, ...).
        retention: optional seconds of history to retain per stream (what a
            SQL window clause would give); None keeps everything, which is
            the literal footnote-3 formulation.
        on_match: callback per produced combination.
    """

    def __init__(
        self,
        engine: Engine,
        streams: Sequence[str],
        aliases: Sequence[str] | None = None,
        predicate: BindingPredicate | None = None,
        retention: float | None = None,
        on_match: MatchCallback | None = None,
        store_matches: bool = True,
    ) -> None:
        if len(streams) < 2:
            raise EslSemanticError("a sequence join needs at least two streams")
        self.engine = engine
        self.streams = list(streams)
        self.aliases = list(aliases) if aliases is not None else list(streams)
        if len(self.aliases) != len(self.streams):
            raise EslSemanticError("aliases must match streams one-to-one")
        self.predicate = predicate
        self.retention = retention
        self.store_matches = store_matches
        self.matches: list[dict[str, Tuple]] = []
        self._on_match = on_match
        self.matches_emitted = 0
        self.tuples_seen = 0
        self.join_probes = 0  # candidate combinations examined (cost metric)
        self._histories: list[list[Tuple]] = [
            [] for _ in range(len(streams) - 1)
        ]
        self._positions: dict[str, list[int]] = {}
        for index, name in enumerate(self.streams):
            self._positions.setdefault(name.lower(), []).append(index)
        self._unsubscribes = [
            engine.streams.get(name).subscribe(self._on_tuple)
            for name in set(s.lower() for s in self.streams)
        ]

    def stop(self) -> None:
        for unsubscribe in self._unsubscribes:
            unsubscribe()
        self._unsubscribes.clear()

    @property
    def state_size(self) -> int:
        return sum(len(history) for history in self._histories)

    # -- ingestion ---------------------------------------------------------

    def _on_tuple(self, tup: Tuple) -> None:
        self.tuples_seen += 1
        positions = self._positions.get(tup.stream.lower(), ())
        last = len(self.streams) - 1
        for index in positions:
            if index == last:
                self._join(tup)
            else:
                self._histories[index].append(tup)
        if self.retention is not None:
            horizon = tup.ts - self.retention
            for history in self._histories:
                keep_from = 0
                while keep_from < len(history) and history[keep_from].ts < horizon:
                    keep_from += 1
                if keep_from:
                    del history[:keep_from]

    def _join(self, anchor: Tuple) -> None:
        """Nested-loop join: all time-ordered combinations ending at *anchor*."""
        n = len(self.streams)
        binding: dict[str, Tuple] = {self.aliases[n - 1]: anchor}
        chain: list[Tuple | None] = [None] * n
        chain[n - 1] = anchor

        def descend(index: int, upper: Tuple) -> None:
            history = self._histories[index]
            cut = bisect_left(history, upper)
            for candidate in history[:cut]:
                self.join_probes += 1
                chain[index] = candidate
                binding[self.aliases[index]] = candidate
                if index == 0:
                    if self.predicate is None or self.predicate(binding):
                        self._emit(dict(binding))
                else:
                    descend(index - 1, candidate)
            chain[index] = None
            binding.pop(self.aliases[index], None)

        descend(n - 2, anchor)

    def _emit(self, binding: dict[str, Tuple]) -> None:
        self.matches_emitted += 1
        if self.store_matches:
            self.matches.append(binding)
        if self._on_match is not None:
            self._on_match(binding)

    def __repr__(self) -> str:
        return (
            f"JoinSequenceBaseline({' -> '.join(self.aliases)}, "
            f"matches={self.matches_emitted}, state={self.state_size}, "
            f"probes={self.join_probes})"
        )
