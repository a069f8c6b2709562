"""Star sequences: SEQ with repeating arguments (paper section 3.1.2).

``SEQ(R1*, R2)`` matches one-or-more R1 tuples followed by an R2 tuple
(the paper's ``a+ b`` regular expression from Example 4).  Star runs follow
the paper's semantics:

* **Longest match** — an event is generated only for the longest possible
  run, never for its sub-runs.
* **Online trailing star** — when the *last* argument is starred, an event
  is emitted for each arriving tuple that extends the trailing run (there is
  no terminator to wait for).
* **Run segmentation by inter-arrival gap** — the paper's
  ``R1.tagtime - R1.previous.tagtime <= 1 SECONDS`` constraint is the
  :attr:`SeqArg.max_gap`; a tuple arriving after a longer gap closes the
  current run and starts the next one (Figure 1(b): the next case's products
  start before the previous case is detected).

The runtime maintains *partials* — in-progress matches.  Pairing modes map
onto partial policies:

* CHRONICLE — an arriving next-stage tuple advances the **earliest**
  qualifying partial; completed partials are consumed (tuples participate
  once).  This is the mode the paper recommends for containment.
* RECENT — advances the **latest** qualifying partial; on emission older
  partials are discarded.
* UNRESTRICTED — advances **every** qualifying partial, cloning so that each
  later tuple can still combine with the original (all combinations, with
  star runs fixed to the longest form).
* CONSECUTIVE — a single partial over the joint tuple history; any
  participating tuple that does not fit the pattern resets it.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from ...dsms.engine import Engine
from ...dsms.errors import EslSemanticError
from ...dsms.tuples import Tuple
from .base import (
    Guard,
    MatchCallback,
    OperatorWindow,
    PairingMode,
    SeqArg,
    SeqMatch,
    validate_args,
)


class _Partial:
    """One in-progress star-sequence match.

    ``bound[j]`` is the list of tuples bound to stage j (length 1 for plain
    stages).  ``open_star`` is True while the newest stage is a starred stage
    still accepting extensions.
    """

    __slots__ = ("bound", "open_star", "born")

    def __init__(self, born: float) -> None:
        self.bound: list[list[Tuple]] = []
        self.open_star = False
        self.born = born

    @property
    def next_stage(self) -> int:
        """Index of the next stage expecting a *new* binding."""
        return len(self.bound)

    @property
    def current_stage(self) -> int:
        """Index of the newest stage with at least one binding (-1 if none)."""
        return len(self.bound) - 1

    def first_tuple(self) -> Tuple | None:
        return self.bound[0][0] if self.bound else None

    def last_tuple(self) -> Tuple | None:
        return self.bound[-1][-1] if self.bound else None

    def size(self) -> int:
        return sum(len(run) for run in self.bound)

    def clone(self) -> "_Partial":
        twin = _Partial(self.born)
        twin.bound = [list(run) for run in self.bound]
        twin.open_star = self.open_star
        return twin

    def __repr__(self) -> str:
        shape = "/".join(str(len(run)) for run in self.bound)
        star = "+" if self.open_star else ""
        return f"_Partial({shape}{star})"


class StarSeqOperator:
    """Runtime for SEQ patterns containing at least one starred argument."""

    def __init__(
        self,
        engine: Engine,
        args: Sequence[SeqArg],
        mode: PairingMode = PairingMode.CHRONICLE,
        window: OperatorWindow | None = None,
        guard: Guard | None = None,
        partition_by: Callable[[Tuple], Any] | None = None,
        on_match: MatchCallback | None = None,
        ttl: float | None = None,
    ) -> None:
        """Args mirror :class:`~repro.core.operators.seq.SeqOperator`, plus:

        ttl: seconds after which a partial that has not advanced is dropped
            (defaults to the window duration when a window is given).  Keeps
            state bounded when guards — not windows — encode the timing.
        """
        validate_args(args)
        if not any(arg.starred for arg in args):
            raise EslSemanticError(
                "StarSeqOperator needs at least one starred argument; "
                "use SeqOperator for star-free patterns"
            )
        self.engine = engine
        self.args = tuple(args)
        self.mode = mode
        self.window = window
        self.guard = guard
        self.partition_by = partition_by
        self.ttl = ttl if ttl is not None else (window.duration if window else None)
        self._on_match = on_match
        self._partials: dict[Any, list[_Partial]] = {}
        self._unsubscribes: list[Callable[[], None]] = []
        self.tuples_seen = 0
        self.matches_emitted = 0

        self._stage_streams = [arg.stream.lower() for arg in self.args]
        self._participating = set(self._stage_streams)
        for stream_name in self._participating:
            stream = engine.streams.get(stream_name)
            self._unsubscribes.append(stream.subscribe(self._on_tuple))
        register = getattr(engine, "register_checkpointable", None)
        if register is not None:
            from ...dsms.checkpoint import UnsupportedState

            register(UnsupportedState("SEQ with starred arguments"))

    # -- public -----------------------------------------------------------

    def stop(self) -> None:
        for unsubscribe in self._unsubscribes:
            unsubscribe()
        self._unsubscribes.clear()

    @property
    def state_size(self) -> int:
        return sum(
            partial.size()
            for partials in self._partials.values()
            for partial in partials
        )

    # -- ingestion ----------------------------------------------------------

    def _partials_for(self, tup: Tuple) -> list[_Partial]:
        key = self.partition_by(tup) if self.partition_by else None
        partials = self._partials.get(key)
        if partials is None:
            partials = []
            self._partials[key] = partials
        return partials

    def _on_tuple(self, tup: Tuple) -> None:
        self.tuples_seen += 1
        if tup.stream.lower() not in self._participating:
            return
        partials = self._partials_for(tup)
        self._prune(partials, tup.ts)
        if self.mode is PairingMode.CONSECUTIVE:
            self._consecutive_step(partials, tup)
        elif self.mode is PairingMode.UNRESTRICTED:
            self._unrestricted_step(partials, tup)
        else:
            self._greedy_step(partials, tup)

    # -- shared helpers -------------------------------------------------------

    def _guard_ok(self, partial: _Partial, extra: Tuple, stage: int) -> bool:
        if self.guard is None:
            return True
        bindings: dict[str, Any] = {}
        for index, run in enumerate(partial.bound):
            arg = self.args[index]
            bindings[arg.alias] = list(run) if arg.starred else run[0]
        arg = self.args[stage]
        if arg.starred:
            existing = bindings.get(arg.alias)
            run = list(existing) if isinstance(existing, list) else []
            run.append(extra)
            bindings[arg.alias] = run
        else:
            bindings[arg.alias] = extra
        return bool(self.guard(bindings))

    def _gap_ok(self, partial: _Partial, tup: Tuple, stage: int) -> bool:
        arg = self.args[stage]
        if arg.gap_check is None and arg.max_gap is None:
            return True
        last = partial.bound[stage][-1]
        if arg.gap_check is not None:
            return bool(arg.gap_check(last, tup))
        return tup.ts - last.ts <= arg.max_gap

    def _can_extend_open(self, partial: _Partial, tup: Tuple) -> bool:
        """Can *tup* extend the partial's open star run?"""
        stage = partial.current_stage
        return (
            partial.open_star
            and self._stage_streams[stage] == tup.stream.lower()
            and self._gap_ok(partial, tup, stage)
            and self._guard_ok(partial, tup, stage)
        )

    def _can_start_stage(self, partial: _Partial, tup: Tuple) -> bool:
        """Can *tup* become the first binding of the partial's next stage?"""
        stage = partial.next_stage
        if stage >= len(self.args):
            return False
        return (
            self._stage_streams[stage] == tup.stream.lower()
            and self._guard_ok(partial, tup, stage)
        )

    def _bind_next(self, partials: list[_Partial], partial: _Partial, tup: Tuple) -> None:
        """Bind *tup* as the first tuple of the next stage and emit if done."""
        stage = partial.next_stage
        partial.bound.append([tup])
        arg = self.args[stage]
        if arg.starred:
            partial.open_star = True
            if stage == len(self.args) - 1:
                self._emit(partial)  # online trailing star
        else:
            partial.open_star = False
            if stage == len(self.args) - 1:
                self._complete(partials, partial)

    def _extend_open(self, partials: list[_Partial], partial: _Partial, tup: Tuple) -> None:
        stage = partial.current_stage
        partial.bound[stage].append(tup)
        if stage == len(self.args) - 1:
            self._emit(partial)  # online trailing star

    def _complete(self, partials: list[_Partial], partial: _Partial) -> None:
        self._emit(partial)
        if self.mode is PairingMode.CHRONICLE:
            self._remove(partials, partial)
        elif self.mode is PairingMode.RECENT:
            # Drop everything older than the match (aggressive purge); the
            # matched partial itself is also retired — its last stage is
            # bound and cannot rebind.
            survivors = [p for p in partials if p.born > partial.born]
            partials[:] = survivors
        elif self.mode is PairingMode.CONSECUTIVE:
            partials.clear()
        # UNRESTRICTED keeps everything: later anchors may combine again
        # (the completed clone is retired; the un-advanced original remains).
        elif self.mode is PairingMode.UNRESTRICTED:
            self._remove(partials, partial)

    @staticmethod
    def _remove(partials: list[_Partial], partial: _Partial) -> None:
        try:
            partials.remove(partial)
        except ValueError:
            pass

    def _emit(self, partial: _Partial) -> None:
        bindings: dict[str, Tuple | list[Tuple]] = {}
        anchor_tuple: Tuple | None = None
        all_tuples: list[Tuple] = []
        for index, run in enumerate(partial.bound):
            arg = self.args[index]
            bindings[arg.alias] = list(run) if arg.starred else run[0]
            all_tuples.extend(run)
        if self.window is not None:
            anchor_run = partial.bound[self.window.anchor]
            anchor_tuple = (
                anchor_run[-1]
                if self.window.direction == "preceding"
                else anchor_run[0]
            )
            if not self.window.admits(all_tuples, anchor_tuple):
                return
        match = SeqMatch(self.args, bindings, all_tuples[-1].ts)
        self.matches_emitted += 1
        if self._on_match is not None:
            self._on_match(match)

    def _prune(self, partials: list[_Partial], now: float) -> None:
        """Drop partials that can no longer complete.

        Two criteria: the TTL (no advancement for *ttl* seconds), and — when
        a window bounds stage 0 — a first tuple that already fell out of any
        future window.
        """
        if not partials:
            return
        keep: list[_Partial] = []
        window_covers_start = self.window is not None and (
            (self.window.direction == "preceding"
             and self.window.anchor == len(self.args) - 1)
            or (self.window.direction == "following" and self.window.anchor == 0)
        )
        for partial in partials:
            last = partial.last_tuple()
            if self.ttl is not None and last is not None:
                if now - last.ts > self.ttl:
                    continue
            if window_covers_start and self.window is not None:
                first = partial.first_tuple()
                if first is not None and first.ts < now - self.window.duration:
                    continue
            keep.append(partial)
        if len(keep) != len(partials):
            partials[:] = keep

    # -- greedy modes (CHRONICLE earliest, RECENT latest) ----------------------

    def _greedy_step(self, partials: list[_Partial], tup: Tuple) -> None:
        ordered = partials if self.mode is PairingMode.CHRONICLE else list(
            reversed(partials)
        )
        # 1. Try to extend an open star run (the newest open one: runs are
        #    disjoint segmentations of the stream).
        for partial in reversed(partials):
            if self._can_extend_open(partial, tup):
                self._extend_open(partials, partial, tup)
                return
        # 2. Try to advance a partial to its next stage (earliest-first for
        #    CHRONICLE, latest-first for RECENT).  A gap-violating or
        #    guard-failing star extension falls through to here, closing the
        #    run implicitly (open_star stays set but the run simply stops
        #    growing; binding the next stage clears it).
        for partial in ordered:
            if self._can_start_stage(partial, tup):
                partial.open_star = False
                self._bind_next(partials, partial, tup)
                return
        # 3. Neither extended nor advanced: can it begin a fresh partial?
        fresh = _Partial(born=tup.ts)
        if self._can_start_stage(fresh, tup):
            if self.mode is PairingMode.RECENT:
                # Most-recent semantics: a new run replaces stalled partials
                # that are still sitting at stage 0.
                partials[:] = [p for p in partials if p.next_stage > 0 or p.open_star]
            self._bind_next(partials, fresh, tup)
            if fresh.bound:
                partials.append(fresh)

    # -- UNRESTRICTED ----------------------------------------------------------

    def _unrestricted_step(self, partials: list[_Partial], tup: Tuple) -> None:
        # Extend open star runs in place (longest-match keeps runs unique)...
        extended = False
        for partial in partials:
            if self._can_extend_open(partial, tup):
                self._extend_open(partials, partial, tup)
                extended = True
        # ...and advance every qualifying partial via a clone, so the
        # original can still pair with later tuples of this stage.
        clones: list[_Partial] = []
        for partial in partials:
            if self._can_start_stage(partial, tup) and not partial.open_star:
                clone = partial.clone()
                self._bind_next(partials, clone, tup)
                if clone.next_stage <= len(self.args) - 1 or clone.open_star:
                    clones.append(clone)
            elif partial.open_star and self._can_start_stage(partial, tup):
                # The next stage begins; the open run closes in the clone.
                clone = partial.clone()
                clone.open_star = False
                self._bind_next(partials, clone, tup)
                clones.append(clone)
        live_clones = [c for c in clones if c.next_stage < len(self.args) or c.open_star]
        partials.extend(live_clones)
        # Finally, the tuple may start a brand-new partial at stage 0.
        if not extended:
            fresh = _Partial(born=tup.ts)
            if self._can_start_stage(fresh, tup):
                self._bind_next(partials, fresh, tup)
                if fresh.next_stage < len(self.args) or fresh.open_star:
                    partials.append(fresh)

    # -- CONSECUTIVE -------------------------------------------------------------

    def _consecutive_step(self, partials: list[_Partial], tup: Tuple) -> None:
        if not partials:
            partials.append(_Partial(born=tup.ts))
        partial = partials[0]
        if self._can_extend_open(partial, tup):
            self._extend_open(partials, partial, tup)
            return
        if self._can_start_stage(partial, tup):
            partial.open_star = False
            self._bind_next(partials, partial, tup)
            return
        # Interloper on the joint history: reset, then see if it restarts.
        partials.clear()
        fresh = _Partial(born=tup.ts)
        if self._can_start_stage(fresh, tup):
            self._bind_next(partials, fresh, tup)
            if fresh.bound:
                partials.append(fresh)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{arg.alias}{'*' if arg.starred else ''}" for arg in self.args
        )
        return (
            f"StarSeqOperator(SEQ({inner}) MODE {self.mode.value.upper()}, "
            f"{self.matches_emitted} matches, state={self.state_size})"
        )
