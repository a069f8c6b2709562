"""EXCEPTION_SEQ and CLEVEL_SEQ (paper section 3.1.3).

These operators detect *violations* of a prescribed sequence.  The paper
defines them through **Sequence Completion Levels**: a partial sequence
(E1..Ek) that can no longer extend has completion level k, and an exception
event occurs at level k+1.  Three scenarios end a partial sequence early:

1. **Wrong extension** — an incoming tuple breaks the expected order
   (e.g. (A, B) then another B under RECENT, or any interloper under
   CONSECUTIVE).
2. **Wrong start** — an incoming tuple cannot start a new sequence (level-0
   failure; e.g. after (A, B, C) completes, a lone C arrives).
3. **Window expiration** — a FOLLOWING window anchored at some stage runs
   out before the sequence completes.  This requires *Active Expiration*:
   the violation must fire from a timer, with no new tuple arriving.  The
   operator arms a timer on the engine's virtual clock when the anchor stage
   binds.

:class:`ExceptionSeqOperator` reports every terminated sequence as a
:class:`SequenceOutcome` carrying its completion level; completions have
``level == n``.  ``EXCEPTION_SEQ(...)`` corresponds to outcomes with
``level < n``; ``CLEVEL_SEQ(...) < k`` predicates read the level directly.

**Star stages.**  The paper notes "EXCEPTION_SEQ can also allow repeating
star sequences" but omits the details; this implementation supports
non-trailing starred arguments with the following (documented) semantics:

* a starred stage is *entered* by its first tuple and *extends* while
  tuples of its stream keep arriving within the stage's gap constraint;
* the Sequence Completion Level counts stages with at least one binding —
  exactly the paper's level when every stage is plain;
* a gap-violating repeat of the open star stage is a WRONG_TUPLE exception
  (the prescribed repetition rhythm broke);
* a trailing star is rejected: with no terminator, a "completed" trailing
  run is undecidable, which is why the paper's examples never use one.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Iterator, Sequence

from ...dsms.clock import Timer
from ...dsms.engine import Engine
from ...dsms.errors import EslSemanticError
from ...dsms.tuples import Tuple
from .base import Guard, OperatorWindow, PairingMode, SeqArg, validate_args


class ExceptionReason(enum.Enum):
    """Why a sequence terminated without completing."""

    WRONG_TUPLE = "wrong_tuple"      # scenario 1: bad extension
    WRONG_START = "wrong_start"      # scenario 2: level-0 failure
    WINDOW_EXPIRED = "window_expired"  # scenario 3: active expiration
    COMPLETED = "completed"          # not an exception: level == n


class SequenceOutcome:
    """One terminated (or completed) sequence instance.

    Attributes:
        level: the Sequence Completion Level reached (n for completions).
        reason: the :class:`ExceptionReason`.
        runs: per-stage bound tuples, one (possibly multi-tuple) run per
            completed stage, in stage order.
        partial: the bound tuples flattened in stage order (for star-free
            patterns this is one tuple per completed stage).
        offending: the tuple that caused a WRONG_TUPLE / WRONG_START
            exception (None for expirations and completions).
        expected: alias of the stage that failed to bind (None on completion).
        ts: virtual time at which the outcome was determined.
    """

    __slots__ = ("args", "level", "reason", "runs", "offending", "expected",
                 "ts")

    def __init__(
        self,
        args: Sequence[SeqArg],
        level: int,
        reason: ExceptionReason,
        runs: Sequence[Sequence[Tuple]],
        offending: Tuple | None,
        ts: float,
    ) -> None:
        self.args = tuple(args)
        self.level = level
        self.reason = reason
        self.runs = tuple(tuple(run) for run in runs)
        self.offending = offending
        self.expected = args[level].alias if level < len(args) else None
        self.ts = ts

    @property
    def partial(self) -> tuple[Tuple, ...]:
        return tuple(tup for run in self.runs for tup in run)

    @property
    def is_exception(self) -> bool:
        return self.level < len(self.args)

    def tuple_for(self, alias: str) -> Tuple | None:
        """The (last) tuple bound to *alias*, or None if the stage never
        bound.

        The paper's ``SELECT A1.tagid, A2.tagid, A3.tagid`` over an
        exception at level 1 yields NULLs for A2/A3 — this is where those
        NULLs come from.
        """
        for arg, run in zip(self.args, self.runs):
            if arg.alias.lower() == alias.lower():
                return run[-1] if run else None
        return None

    def run_for(self, alias: str) -> tuple[Tuple, ...]:
        """All tuples bound to *alias* (empty when the stage never bound)."""
        for arg, run in zip(self.args, self.runs):
            if arg.alias.lower() == alias.lower():
                return run
        return ()

    def __repr__(self) -> str:
        stamp = ", ".join(f"{t.ts:g}" for t in self.partial)
        return (
            f"SequenceOutcome(level={self.level}/{len(self.args)}, "
            f"{self.reason.value}, partial=[{stamp}])"
        )


OutcomeCallback = Callable[[SequenceOutcome], None]


class _SequenceState:
    """Per-partition automaton state: one run list per entered stage."""

    __slots__ = ("key", "runs", "timer", "generation")

    def __init__(self, key: Any = None) -> None:
        self.key = key
        self.runs: list[list[Tuple]] = []
        self.timer: Timer | None = None
        self.generation = 0  # bumps on reset, so stale timers no-op

    @property
    def level(self) -> int:
        return len(self.runs)

    def reset(self) -> None:
        self.runs = []
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        self.generation += 1


class ExceptionSeqOperator:
    """Runtime for EXCEPTION_SEQ / CLEVEL_SEQ.

    Args:
        engine: owning engine (its clock provides Active Expiration).
        args: the argument list; starred arguments are allowed anywhere but
            last (see module docstring).
        window: optional operator window; ``FOLLOWING`` windows arm timers
            at the anchor stage, ``PRECEDING`` windows are checked at
            completion (a completion outside the window counts as an
            expiration exception).
        mode: RECENT or CONSECUTIVE — how a wrong extension is repaired
            (RECENT: a repeat of a bound stage replaces it; CONSECUTIVE:
            full reset).  Both appear in the paper's scenarios.
        guard: qualifying-condition predicate over partial bindings (star
            stages bind as lists).
        partition_by: key function giving each entity (staff member, tag)
            its own automaton.
        on_outcome: callback for every :class:`SequenceOutcome` — the
            operator's only output; nothing is retained.
        report_wrong_start: emit level-0 outcomes for tuples that cannot
            start a sequence (paper scenario 2).  Defaults to True.
    """

    def __init__(
        self,
        engine: Engine,
        args: Sequence[SeqArg],
        window: OperatorWindow | None = None,
        mode: PairingMode = PairingMode.CONSECUTIVE,
        guard: Guard | None = None,
        partition_by: Callable[[Tuple], Any] | None = None,
        on_outcome: OutcomeCallback | None = None,
        report_wrong_start: bool = True,
    ) -> None:
        validate_args(args)
        if args[-1].starred:
            raise EslSemanticError(
                "EXCEPTION_SEQ does not support a trailing star: without a "
                "terminator the final run's completion is undecidable"
            )
        if mode not in (PairingMode.RECENT, PairingMode.CONSECUTIVE):
            raise EslSemanticError(
                "EXCEPTION_SEQ supports RECENT or CONSECUTIVE modes"
            )
        self.engine = engine
        self.args = tuple(args)
        self.window = window
        self.mode = mode
        self.guard = guard
        self.partition_by = partition_by
        self.report_wrong_start = report_wrong_start
        self._on_outcome = on_outcome
        self._states: dict[Any, _SequenceState] = {}
        self._unsubscribes: list[Callable[[], None]] = []
        # Bounded per-reason outcome tallies (one key per reason).
        self.reason_counts = dict.fromkeys(ExceptionReason, 0)

        self._stage_streams = [arg.stream.lower() for arg in self.args]
        for stream_name in set(self._stage_streams):
            stream = engine.streams.get(stream_name)
            self._unsubscribes.append(stream.subscribe(self._on_tuple))
        register = getattr(engine, "register_checkpointable", None)
        if register is not None:
            from ...dsms.checkpoint import UnsupportedState

            register(UnsupportedState("EXCEPTION_SEQ"))

    # -- public ------------------------------------------------------------

    def stop(self) -> None:
        for unsubscribe in self._unsubscribes:
            unsubscribe()
        self._unsubscribes.clear()
        for state in self._states.values():
            if state.timer is not None:
                state.timer.cancel()

    @property
    def state_size(self) -> int:
        return sum(
            sum(len(run) for run in state.runs)
            for state in self._states.values()
        )

    @property
    def completions_emitted(self) -> int:
        return self.reason_counts[ExceptionReason.COMPLETED]

    @property
    def exceptions_emitted(self) -> int:
        return sum(self.reason_counts.values()) - self.completions_emitted

    # -- automaton ------------------------------------------------------------

    def _state_for(self, tup: Tuple) -> _SequenceState:
        key = self.partition_by(tup) if self.partition_by else None
        state = self._states.get(key)
        if state is None:
            state = _SequenceState(key)
            self._states[key] = state
        return state

    def _release_if_idle(self, state: _SequenceState) -> None:
        """Drop an empty automaton from the state table.

        An idle state (no bound runs, no armed timer) is indistinguishable
        from a fresh one, so releasing it changes no outcome — it just keeps
        the table from accumulating one entry per key ever seen (one-shot
        tags would otherwise leak).  The identity check guards against a
        stale timer callback releasing a *successor* state at the same key.
        """
        if (
            not state.runs
            and state.timer is None
            and self._states.get(state.key) is state
        ):
            del self._states[state.key]

    def _bindings_of(
        self, runs: Sequence[Sequence[Tuple]]
    ) -> dict[str, Any]:
        bindings: dict[str, Any] = {}
        for arg, run in zip(self.args, runs):
            bindings[arg.alias] = list(run) if arg.starred else run[-1]
        return bindings

    def _guard_ok(
        self, runs: Sequence[Sequence[Tuple]], tup: Tuple, stage: int
    ) -> bool:
        if self.guard is None:
            return True
        bindings = self._bindings_of(runs[:stage])
        arg = self.args[stage]
        if arg.starred:
            existing = list(runs[stage]) if stage < len(runs) else []
            bindings[arg.alias] = existing + [tup]
        else:
            bindings[arg.alias] = tup
        return bool(self.guard(bindings))

    def _gap_ok(self, state: _SequenceState, tup: Tuple, stage: int) -> bool:
        arg = self.args[stage]
        if not arg.starred:
            return True
        last = state.runs[stage][-1]
        if arg.gap_check is not None:
            return bool(arg.gap_check(last, tup))
        if arg.max_gap is not None:
            return tup.ts - last.ts <= arg.max_gap
        return True

    def _on_tuple(self, tup: Tuple) -> None:
        state = self._state_for(tup)
        self._step(state, tup)
        self._release_if_idle(state)

    def _step(self, state: _SequenceState, tup: Tuple) -> None:
        stream = tup.stream.lower()
        level = state.level
        # 1. Extend an open star stage.
        if (
            level > 0
            and self.args[level - 1].starred
            and stream == self._stage_streams[level - 1]
        ):
            if self._gap_ok(state, tup, level - 1) and self._guard_ok(
                state.runs, tup, level - 1
            ):
                state.runs[level - 1].append(tup)
                return
            # A broken repetition rhythm is a wrong extension.
            self._fail(state, ExceptionReason.WRONG_TUPLE, tup, tup.ts)
            self._recover(state, tup)
            return
        # 2. Enter the next stage.
        if level < len(self.args) and stream == self._stage_streams[level]:
            if self._guard_ok(state.runs, tup, level):
                self._bind(state, tup)
                return
        # 3. The tuple does not fit: classify the failure.
        if state.runs:
            self._fail(state, ExceptionReason.WRONG_TUPLE, tup, tup.ts)
            self._recover(state, tup)
        else:
            self._try_start(state, tup, report=self.report_wrong_start)

    def _bind(self, state: _SequenceState, tup: Tuple) -> None:
        state.runs.append([tup])
        stage = state.level - 1
        if stage == 0 or (
            self.window is not None
            and self.window.direction == "following"
            and self.window.anchor == stage
        ):
            self._arm_timer(state, tup)
        if state.level == len(self.args):
            self._finish(state)

    def _arm_timer(self, state: _SequenceState, anchor: Tuple) -> None:
        if self.window is None or self.window.direction != "following":
            return
        if self.window.anchor != state.level - 1:
            return
        if state.timer is not None:
            state.timer.cancel()
        deadline = anchor.ts + self.window.duration
        generation = state.generation

        def on_expire(fired_at: float) -> None:
            if state.generation != generation or not state.runs:
                return
            if state.level >= len(self.args):
                return
            self._fail(state, ExceptionReason.WINDOW_EXPIRED, None, fired_at)
            state.reset()
            self._release_if_idle(state)

        state.timer = self.engine.clock.schedule(deadline, on_expire)

    def _window_ok(self, runs: Sequence[Sequence[Tuple]]) -> bool:
        if self.window is None:
            return True
        anchor_run = runs[self.window.anchor]
        anchor = (
            anchor_run[-1]
            if self.window.direction == "preceding"
            else anchor_run[0]
        )
        flat = [tup for run in runs for tup in run]
        return self.window.admits(flat, anchor)

    def _finish(self, state: _SequenceState) -> None:
        runs = [list(run) for run in state.runs]
        done_ts = runs[-1][-1].ts
        if self._window_ok(runs):
            outcome = SequenceOutcome(
                self.args, len(self.args), ExceptionReason.COMPLETED, runs,
                None, done_ts,
            )
            self._record(outcome)
        else:
            # A PRECEDING window violated at completion time: the sequence
            # took too long — same meaning as an expiration.  The level is
            # n-1: the final stage could not legally bind.
            outcome = SequenceOutcome(
                self.args, len(self.args) - 1, ExceptionReason.WINDOW_EXPIRED,
                runs[:-1], None, done_ts,
            )
            self._record(outcome)
        state.reset()

    def _fail(
        self,
        state: _SequenceState,
        reason: ExceptionReason,
        offending: Tuple | None,
        ts: float,
    ) -> None:
        outcome = SequenceOutcome(
            self.args, state.level, reason,
            [list(run) for run in state.runs], offending, ts,
        )
        self._record(outcome)

    def _record(self, outcome: SequenceOutcome) -> None:
        self.reason_counts[outcome.reason] += 1
        if self._on_outcome is not None:
            self._on_outcome(outcome)

    def _recover(self, state: _SequenceState, tup: Tuple) -> None:
        """Post-exception repair, mode-specific."""
        stream = tup.stream.lower()
        if self.mode is PairingMode.RECENT:
            # A repeat of an already-bound stage replaces that stage's run
            # and truncates the partial there (paper: "the second B will
            # replace the first one to match with future C tuples").
            for stage in range(state.level):
                if self._stage_streams[stage] == stream:
                    if self._guard_ok(state.runs[:stage], tup, stage):
                        state.runs = state.runs[:stage] + [[tup]]
                        if stage == 0:
                            state.generation += 1
                            if state.timer is not None:
                                state.timer.cancel()
                                state.timer = None
                            self._arm_timer(state, tup)
                        return
            # Not a repeat: the offending tuple is dropped, the partial
            # survives (RECENT keeps waiting for the true next stage).
            return
        # CONSECUTIVE: the partial is dead; the interloper may start anew.
        state.reset()
        self._try_start(state, tup, report=False)

    def _try_start(self, state: _SequenceState, tup: Tuple, report: bool) -> None:
        if (
            tup.stream.lower() == self._stage_streams[0]
            and self._guard_ok([], tup, 0)
        ):
            self._bind(state, tup)
            return
        if report:
            outcome = SequenceOutcome(
                self.args, 0, ExceptionReason.WRONG_START, [], tup, tup.ts
            )
            self._record(outcome)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{arg.alias}{'*' if arg.starred else ''}" for arg in self.args
        )
        return (
            f"ExceptionSeqOperator(EXCEPTION_SEQ({inner}), "
            f"{self.exceptions_emitted} exceptions, "
            f"{self.completions_emitted} completions)"
        )
