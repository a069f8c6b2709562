"""The SEQ operator (paper section 3.1.1) for star-free argument lists.

``SEQ(E1, ..., En)`` is true on tuples t1 < t2 < ... < tn drawn from the
argument streams (ordering on (timestamp, arrival) — "the tuple from E2 has
a timestamp after the tuple from E1").  Which of the time-ordered
combinations actually become events is governed by the Tuple Pairing Mode:

* UNRESTRICTED — all combinations (the default; equivalent to the n-way
  join of the paper's footnote 3).
* RECENT — backward-greedy: the arriving last-stream tuple matches the most
  recent qualifying tuple on stream n-1, that one the most recent qualifying
  tuple on stream n-2, and so on.  At most one event per arrival.
* CHRONICLE — forward-greedy from the earliest qualifying tuples; matched
  tuples are consumed and never reused.
* CONSECUTIVE — the match must be adjacent on the joint tuple history of the
  participating streams; any interloper resets the automaton.

History retention is mode-specific (the paper's optimization argument):
RECENT purges dominated tuples, CHRONICLE consumes on match, CONSECUTIVE
holds at most n-1 tuples, UNRESTRICTED retains everything the window admits.
The ``state_size`` property exposes held-tuple counts for the state-size
ablation benchmark.

Three incremental indexes keep the state:

* **Predecessor cuts** (SASE-style Active Instance Stacks): each tuple
  admitted at stage i caches, at admission time, how many stage-(i-1)
  tuples precede it.  Because the clock is monotone and tuples order by
  ``(ts, seq)``, admission order equals tuple order, so the cached count is
  exactly the ``bisect_left`` boundary the enumerator would recompute —
  match enumeration walks stored cuts instead of re-bisecting per
  extension.  Front evictions are absorbed by a per-stage ``removed``
  counter (live cut = stored cut - removed, clamped at 0); the scheme is
  only used by modes whose histories shrink from the front only
  (UNRESTRICTED always, RECENT when a pairing guard disables the
  dominated-tuple purge).
* **Bisected eviction**: histories are timestamp-ordered, so the window
  eviction boundary comes from ``bisect`` instead of a left scan.
* **A lazy expiry heap**: instead of sweeping every partition once per
  window width, a min-heap of ``(next_expiry, partition_key)`` records when
  each partition's oldest bounded tuple leaves the window.  A clock tick
  pops only the partitions that actually have expirable state, so per-tick
  work no longer grows with the number of idle partitions.  A self-re-arming
  clock timer drives the heap even when no tuple arrives.

Star-sequence patterns are handled by
:class:`repro.core.operators.star.StarSeqOperator`; use
:func:`repro.core.operators.make_sequence_operator` to pick automatically.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from math import inf, nextafter
from operator import attrgetter
from typing import Any, Callable, Mapping, Sequence

from ...dsms.engine import Engine
from ...dsms.errors import EslSemanticError
from ...dsms.tuples import Tuple
from .base import (
    Guard,
    OperatorWindow,
    PairingMode,
    SeqArg,
    validate_args,
)
from .guards import CompiledGuard

_TS = attrgetter("ts")

# on_run(chain, stage0, hi): the rows chain[1:] x stage0[:hi].
RunCallback = Callable[[Sequence[Tuple], Sequence[Tuple], int], None]


class _Partition:
    """Per-partition-key operator state."""

    __slots__ = ("key", "histories", "run", "cuts", "removed")

    def __init__(self, n: int, key: Any = None, track_cuts: bool = False) -> None:
        self.key = key
        # Positions 0..n-2 keep history; the last position's tuples are only
        # ever anchors and are matched immediately on arrival.
        self.histories: list[list[Tuple]] = [[] for _ in range(n - 1)]
        # CONSECUTIVE-mode current run on the joint history.
        self.run: list[Tuple] = []
        # Predecessor cuts, parallel to histories (cuts[0] stays empty: stage
        # 0 has no predecessor), and per-stage front-eviction totals.
        self.cuts: list[list[int]] | None = (
            [[] for _ in range(n - 1)] if track_cuts else None
        )
        self.removed: list[int] = [0] * (n - 1)

    def state_size(self) -> int:
        return sum(len(history) for history in self.histories) + len(self.run)


class SeqOperator:
    """Runtime instance of a star-free SEQ operator.

    Args:
        engine: the owning :class:`~repro.dsms.engine.Engine`.
        args: the argument list (no starred entries).
        mode: tuple pairing mode.
        window: optional :class:`OperatorWindow`.
        guard: optional predicate consulted while extending candidate
            bindings (the "qualifying conditions"); receives the partial
            alias->tuple mapping and must be monotone (False never becomes
            True by binding more aliases).
        partition_by: optional key function applied to every tuple; state is
            kept per key.  The standard RFID idiom is partitioning by tag id,
            which turns the WHERE equality conditions of paper Example 6
            into hash routing.
        on_run: callback receiving matches one run at a time, as
            ``on_run(chain, stage0, hi)``: the rows are ``chain[1:]`` (the
            bound tuples of arguments 1..n-1) completed by each of
            ``stage0[:hi]`` at argument 0, in ascending stage-0 order.
            UNRESTRICTED enumeration reuses one chain list for every run of
            an anchor and passes the stage-0 history itself (``chain[0]`` is
            then stale), so the callback must copy out what it needs and
            never keep either list.
            :func:`~repro.core.operators.make_sequence_operator` adapts a
            :class:`~repro.core.operators.base.SeqMatch` callback
            (``on_match``) to this one.
    """

    def __init__(
        self,
        engine: Engine,
        args: Sequence[SeqArg],
        mode: PairingMode = PairingMode.UNRESTRICTED,
        window: OperatorWindow | None = None,
        guard: Guard | None = None,
        partition_by: Callable[[Tuple], Any] | None = None,
        on_run: RunCallback | None = None,
    ) -> None:
        validate_args(args)
        if any(arg.starred for arg in args):
            raise EslSemanticError(
                "SeqOperator handles star-free patterns; use StarSeqOperator"
            )
        self.engine = engine
        self.args = tuple(args)
        self.mode = mode
        self.window = window
        self.guard = guard
        self.partition_by = partition_by
        # A CompiledGuard splits into per-argument admission checks (run once
        # at arrival, before a tuple enters history) and cross-alias pairing
        # terms (run while pairing).  A plain callable guard runs whole at
        # pairing time, as before.
        if isinstance(guard, CompiledGuard):
            self._admission = guard.admit
            # pairing_prebound skips the per-call key-lowering dictcomp;
            # in exchange every enumeration path keys its scratch bindings
            # dict by _bind_keys (lower-cased aliases) below.
            self._pairing: Guard | None = (
                None if guard.cross_free else guard.pairing_prebound
            )
            self._bind_keys = tuple(arg.alias.lower() for arg in self.args)
        else:
            self._admission = None
            self._pairing = guard
            self._bind_keys = tuple(arg.alias for arg in self.args)
        # Purging is sound when nothing can disqualify a tuple at pairing
        # time: no guard at all, or a compiled guard whose conjuncts were all
        # decided at admission (cross_free).
        self._purge_on_admit = (
            mode is PairingMode.RECENT and self._pairing is None
        )
        # Stored predecessor cuts stay exact only under front-only history
        # shrinkage; CHRONICLE consumes mid-list and the RECENT purge deletes
        # mid-list, so those keep per-enumeration bisect instead.
        self._use_cuts = mode is PairingMode.UNRESTRICTED or (
            mode is PairingMode.RECENT and not self._purge_on_admit
        )
        # With a PRECEDING window anchored at the last argument (the
        # canonical OVER [.. PRECEDING last] shape), per-arrival eviction
        # prunes every history to exactly the window's lower bound before
        # the match attempt, so enumerated chains satisfy the window by
        # construction and the per-chain check can be skipped — as it can
        # when there is no window at all.
        self._window_exact = window is None or (
            window.direction == "preceding" and window.anchor == len(args) - 1
        )
        self._on_run = on_run
        self._partitions: dict[Any, _Partition] = {}
        # Lazy expiry heap: (deadline, push number, partition_key), at most
        # one *valid* entry per key, recorded in _heap_deadlines.  Entries
        # whose dict deadline no longer matches are stale and skipped on
        # pop.  The push number breaks deadline ties, so keys (NULL next
        # to an int, say) are never compared.
        self._expiry_heap: list[tuple[float, int, Any]] = []
        self._heap_pushes = 0
        self._heap_deadlines: dict[Any, float] = {}
        self._expiry_timer = None
        # Incremental held-tuple counter backing state_size, plus its
        # high-water mark.
        self._held = 0
        self.peak_state_size = 0
        # Partitions examined by expiry work (heap pops): the proof that a
        # tick does not touch idle state.  max_tick_touches is the worst
        # single tick.
        self.sweep_touches = 0
        self.max_tick_touches = 0
        self._unsubscribes: list[Callable[[], None]] = []
        self.tuples_seen = 0
        self.matches_emitted = 0

        # positions per stream: stream name -> [arg indexes].  Keyed both by
        # the lowercased name and by the stream's registered casing, so the
        # per-tuple dispatch in _on_tuple can look up tup.stream directly
        # without a .lower() call.
        self._positions: dict[str, list[int]] = {}
        for index, arg in enumerate(self.args):
            self._positions.setdefault(arg.stream.lower(), []).append(index)
        for stream_name in list(self._positions):
            stream = engine.streams.get(stream_name)
            positions = self._positions[stream_name]
            self._positions.setdefault(stream.name, positions)
            callback: Callable[[Tuple], None] = self._on_tuple
            if mode is not PairingMode.CONSECUTIVE and len(positions) == 1:
                callback = self._dispatch_for(stream.name, positions[0])
            self._unsubscribes.append(stream.subscribe(callback))

    # -- public ----------------------------------------------------------

    def stop(self) -> None:
        """Detach from all source streams."""
        for unsubscribe in self._unsubscribes:
            unsubscribe()
        self._unsubscribes.clear()
        if self._expiry_timer is not None:
            self._expiry_timer.cancel()
            self._expiry_timer = None

    @property
    def state_size(self) -> int:
        """Total tuples currently held across all partitions (O(1))."""
        return self._held

    # -- ingestion --------------------------------------------------------

    def _dispatch_for(self, name: str, index: int) -> Callable[[Tuple], None]:
        """Specialize the per-tuple dispatch for a single-position stream.

        Part of compiled execution: when one stream feeds exactly one
        argument position (the common case — Example 6 wires four streams
        to four positions), every decision the generic :meth:`_on_tuple`
        makes per tuple (position lookup, admission presence, last-position
        test, eviction probe) is made once here, at wiring time, leaving a
        straight-line closure on the hot path.  Pass-through tuples carrying
        another stream's name fall back to the generic routing.
        """
        generic = self._on_tuple
        admission = self._admission
        alias = self.args[index].alias
        is_last = index == len(self.args) - 1
        partition_by = self.partition_by
        partitions = self._partitions
        n_args = len(self.args)
        window = self.window
        attempt = self._attempt_matches
        admit = self._admit
        tick = self._tick
        evict = self._evict_partition
        track_cuts = self._use_cuts
        after = self._after_arrival if window is not None else None

        if admission is None:

            def on_tuple(tup: Tuple) -> None:
                if tup.stream is not name:
                    generic(tup)
                    return
                self.tuples_seen += 1
                if window is not None:
                    tick(tup.ts)
                key = partition_by(tup) if partition_by is not None else None
                partition = partitions.get(key)
                if partition is None:
                    partition = partitions[key] = _Partition(n_args, key, track_cuts)
                if window is not None:
                    evict(partition, tup.ts)
                if is_last:
                    attempt(partition, tup)
                else:
                    admit(partition, tup, index)
                if after is not None:
                    after(partition, tup.ts)

        else:

            def on_tuple(tup: Tuple) -> None:  # noqa: F811
                if tup.stream is not name:
                    generic(tup)
                    return
                self.tuples_seen += 1
                if not admission(alias, tup):
                    return  # fails its own single-alias conjuncts: never matches
                if window is not None:
                    tick(tup.ts)
                key = partition_by(tup) if partition_by is not None else None
                partition = partitions.get(key)
                if partition is None:
                    partition = partitions[key] = _Partition(n_args, key, track_cuts)
                if window is not None:
                    evict(partition, tup.ts)
                if is_last:
                    attempt(partition, tup)
                else:
                    admit(partition, tup, index)
                if after is not None:
                    after(partition, tup.ts)

        return on_tuple

    def _partition_for(self, tup: Tuple) -> _Partition:
        key = self.partition_by(tup) if self.partition_by else None
        partition = self._partitions.get(key)
        if partition is None:
            partition = _Partition(len(self.args), key, self._use_cuts)
            self._partitions[key] = partition
        return partition

    def _on_tuple(self, tup: Tuple) -> None:
        self.tuples_seen += 1
        positions = self._positions.get(tup.stream) or self._positions.get(
            tup.stream.lower()
        )
        if not positions:
            return
        if self.mode is PairingMode.CONSECUTIVE:
            partition = self._partition_for(tup)
            self._consecutive_step(partition, tup, positions)
            return
        windowed = self.window is not None
        if windowed:
            # Expire state *before* the attempt: the match enumeration then
            # always sees histories pruned to horizon(now), which makes the
            # cross-partition expiry timing (sweep vs. heap) unobservable.
            self._tick(tup.ts)
        partition = self._partition_for(tup)
        if windowed:
            self._evict_partition(partition, tup.ts)
        last = len(self.args) - 1
        admit = self._admission
        for index in positions:
            if admit is not None and not admit(self.args[index].alias, tup):
                continue  # fails its own single-alias conjuncts: never matches
            if index == last:
                self._attempt_matches(partition, tup)
            else:
                self._admit(partition, tup, index)
        if windowed:
            self._after_arrival(partition, tup.ts)

    def _admit(self, partition: _Partition, tup: Tuple, index: int) -> None:
        partition.histories[index].append(tup)
        if self._use_cuts and index:
            # Cache the predecessor boundary at admission.  The clock is
            # monotone and tuples order by (ts, seq), so everything already
            # admitted at stage index-1 precedes *tup* — except when the
            # very same tuple was admitted there in this delivery (one
            # stream feeding both positions), which the trailing check
            # excludes.  Stored as an absolute admission count; front
            # evictions are subtracted via partition.removed at read time.
            prev = partition.histories[index - 1]
            cut = len(prev)
            if cut and not (prev[cut - 1] < tup):
                cut -= 1
            partition.cuts[index].append(partition.removed[index - 1] + cut)
        self._held += 1
        if self._held > self.peak_state_size:
            self.peak_state_size = self._held
        if self._purge_on_admit:
            self._purge_dominated(partition, index)

    # -- history management ----------------------------------------------

    def _evict_partition(self, partition: _Partition, now: float) -> None:
        """Window-based eviction of one partition's dead history."""
        self._evict_before(partition, self.window.horizon(now))

    def _tick(self, now: float) -> None:
        """Cross-partition expiry work due at *now*: pop due entries off
        the expiry heap, touching only partitions whose oldest tuple
        actually left the window.
        """
        heap = self._expiry_heap
        if heap and heap[0][0] <= now:
            self._process_expiry(now)

    def _evict_before(self, partition: _Partition, horizon: float) -> None:
        """Bisected eviction of every tuple stamped before *horizon*,
        keeping the cut/removed bookkeeping in sync.

        It applies to every history position, whatever the window's
        anchor: a match triggered at T lies in a window that reaches T, so
        each of its tuples is stamped at or after T - duration.
        """
        use_cuts = self._use_cuts
        removed = partition.removed
        for index, history in enumerate(partition.histories):
            if not history or history[0].ts >= horizon:
                continue
            keep = bisect_left(history, horizon, key=_TS)
            del history[:keep]
            self._held -= keep
            if use_cuts:
                removed[index] += keep
                if index:
                    del partition.cuts[index][:keep]

    # -- expiry heap -------------------------------------------------------

    def _oldest_bounded(self, partition: _Partition) -> float | None:
        """Timestamp of the oldest tuple the window can still expire."""
        oldest = None
        for history in partition.histories:
            if history and (oldest is None or history[0].ts < oldest):
                oldest = history[0].ts
        return oldest

    def _schedule_expiry(
        self, partition: _Partition, key: Any, now: float
    ) -> None:
        """Queue the partition's next expiry, or drop it when fully empty.

        Evictions only raise a partition's oldest bounded timestamp, so an
        already-queued (necessarily earlier) deadline stays conservative —
        the pop re-checks and re-queues.  Hence at most one valid heap entry
        per key, and admissions never need to move a deadline earlier.
        """
        oldest = self._oldest_bounded(partition)
        if oldest is not None:
            deadline = oldest + self.window.duration
            if deadline <= now:
                # The survivor sits exactly on the window edge (eviction is
                # strict): re-queue just past *now* so the pop loop always
                # makes progress.
                deadline = nextafter(now, inf)
            self._heap_deadlines[key] = deadline
            self._heap_pushes += 1
            heapq.heappush(
                self._expiry_heap, (deadline, self._heap_pushes, key)
            )
        elif not partition.run and all(
            not history for history in partition.histories
        ):
            del self._partitions[key]

    def _after_arrival(self, partition: _Partition, now: float) -> None:
        """Post-arrival heap upkeep for the arriving tuple's partition."""
        if partition.key in self._heap_deadlines:
            return
        self._schedule_expiry(partition, partition.key, now)
        self._ensure_timer()

    def _process_expiry(self, now: float) -> None:
        """Pop and expire every partition whose deadline has passed."""
        heap = self._expiry_heap
        deadlines = self._heap_deadlines
        partitions = self._partitions
        horizon = self.window.horizon(now)
        touched = 0
        while heap and heap[0][0] <= now:
            deadline, _push, key = heapq.heappop(heap)
            if deadlines.get(key) != deadline:
                continue  # stale: superseded by a later reschedule
            del deadlines[key]
            partition = partitions.get(key)
            if partition is None:
                continue
            touched += 1
            self._evict_before(partition, horizon)
            self._schedule_expiry(partition, key, now)
        self.sweep_touches += touched
        if touched > self.max_tick_touches:
            self.max_tick_touches = touched
        self._ensure_timer()

    def _ensure_timer(self) -> None:
        """Keep a clock timer armed at the heap minimum, so idle partitions
        expire on heartbeats even when no tuple ever arrives again.  Marked
        periodic: eviction emits nothing, so end-of-stream drains cancel it
        instead of firing it forever."""
        heap = self._expiry_heap
        if not heap:
            return
        head = heap[0][0]
        timer = self._expiry_timer
        if timer is not None and not timer.cancelled and timer.deadline <= head:
            return
        if timer is not None:
            timer.cancel()
        self._expiry_timer = self.engine.clock.schedule(
            head, self._on_expiry_timer, periodic=True
        )

    def _on_expiry_timer(self, fired_at: float) -> None:
        self._expiry_timer = None
        if self._expiry_heap:
            self._process_expiry(self.engine.clock.now)

    def _purge_dominated(self, partition: _Partition, index: int) -> None:
        """RECENT-mode aggressive purge (paper: "earlier tuples are
        constantly replaced by later tuples").

        A tuple u at position i is dominated — provably never selected by the
        backward-greedy pass — when a newer tuple u' exists at position i and
        no position-i+1 tuple lies in the half-open interval (u, u'].  Only
        sound without a guard (a guard could disqualify u' where u passes),
        so the caller skips this when a guard is present.
        """
        history = partition.histories[index]
        if len(history) < 2:
            return
        if index + 1 < len(partition.histories):
            anchors = partition.histories[index + 1]
        else:
            anchors = []  # successors are last-position arrivals: always newest
        kept: list[Tuple] = []
        for position, candidate in enumerate(history):
            if position == len(history) - 1:
                kept.append(candidate)  # the newest is always live
                continue
            successor = history[position + 1]
            lo = bisect_right(anchors, candidate)
            needed = lo < len(anchors) and anchors[lo] <= successor
            if needed:
                kept.append(candidate)
        if len(kept) != len(history):
            self._held -= len(history) - len(kept)
            partition.histories[index][:] = kept

    # -- match generation --------------------------------------------------

    def _guard_ok(self, bindings: Mapping[str, Tuple]) -> bool:
        """Pairing-time check.

        For a compiled guard this is the cross-alias residue only — every
        tuple in *bindings* already passed its admission conjuncts in
        :meth:`_on_tuple`.  For a plain guard it is the whole predicate.
        """
        pairing = self._pairing
        return pairing is None or bool(pairing(bindings))

    def _full_guard_ok(self, bindings: Mapping[str, Tuple]) -> bool:
        """The complete guard, admission conjuncts included.

        CONSECUTIVE runs bypass :meth:`_admit`, so their extension checks
        must not assume admission already happened.
        """
        return self.guard is None or bool(self.guard(bindings))

    def _window_ok(self, chain: Sequence[Tuple]) -> bool:
        if self.window is None:
            return True
        return self.window.admits(chain, chain[self.window.anchor])

    def _attempt_matches(self, partition: _Partition, anchor: Tuple) -> None:
        if self.mode is PairingMode.UNRESTRICTED:
            self._attempt_indexed(partition, anchor)
            return
        if self.mode is PairingMode.RECENT:
            if self._use_cuts:
                chain = self._recent_chain_indexed(partition, anchor)
            else:
                chain = self._recent_chain(partition, anchor)
        else:  # CHRONICLE
            chain = self._chronicle_chain(partition, anchor)
            if chain is not None:
                self._consume(partition, chain)
        if chain is not None:
            self._emit(chain, [chain[0]], 1)

    def _anchor_cut(self, history: list[Tuple], anchor: Tuple) -> int:
        """Live predecessor boundary for the arriving anchor: the whole
        history precedes it, minus the anchor itself when the same tuple was
        admitted to the previous stage in this delivery."""
        cut = len(history)
        if cut and not (history[cut - 1] < anchor):
            cut -= 1
        return cut

    def _attempt_indexed(self, partition: _Partition, anchor: Tuple) -> None:
        """UNRESTRICTED enumeration over stored predecessor cuts.

        Walks forward over each stage's viable prefix, recursing toward
        stage 0, so chains come out in ascending ``(t(n-1), ..., t1)``
        order.  Each stage's prefix bound is a cached integer (stored cut
        minus front evictions) instead of a fresh bisect.  Stage 0 is
        never walked tuple by tuple when nothing can reject a candidate
        there (no pairing closure, and ``_window_exact``: no window, or
        eviction already guarantees it): each prefix hands its run, the
        stage-0 history and its cut, to the callback in one call.
        Otherwise the surviving candidates are gathered into a list and
        handed over as one run.
        """
        n = len(self.args)
        histories = partition.histories
        top = self._anchor_cut(histories[n - 2], anchor)
        if not top:
            return
        cuts = partition.cuts
        removed = partition.removed
        chain: list[Tuple | None] = [None] * n
        chain[n - 1] = anchor
        pairing = self._pairing
        emit = self._emit
        window_check = None if self._window_exact else self._window_ok

        if pairing is None:

            def extend(index: int, hi: int) -> None:
                history = histories[index]
                if index == 0:
                    if window_check is None:
                        emit(chain, history, hi)  # the block path
                        return
                    survivors = []
                    for pos in range(hi):
                        chain[0] = history[pos]
                        if window_check(chain):
                            survivors.append(chain[0])
                    if survivors:
                        emit(chain, survivors, len(survivors))
                    return
                stage_cuts = cuts[index]
                gone = removed[index - 1]
                for pos in range(hi):
                    nxt = stage_cuts[pos] - gone
                    if nxt > 0:
                        chain[index] = history[pos]
                        extend(index - 1, nxt)

            extend(n - 2, top)
            return

        bind_keys = self._bind_keys
        bindings: dict[str, Tuple] = {bind_keys[n - 1]: anchor}
        if not pairing(bindings):
            return

        def extend(index: int, hi: int) -> None:  # noqa: F811
            history = histories[index]
            alias = bind_keys[index]
            if index:
                stage_cuts = cuts[index]
                gone = removed[index - 1]
            else:
                survivors = []
            for pos in range(hi):
                candidate = history[pos]
                bindings[alias] = candidate
                if not pairing(bindings):
                    del bindings[alias]
                    continue
                chain[index] = candidate
                if index == 0:
                    if window_check is None or window_check(chain):
                        survivors.append(candidate)
                else:
                    nxt = stage_cuts[pos] - gone
                    if nxt > 0:
                        extend(index - 1, nxt)
                del bindings[alias]
            if not index and survivors:
                emit(chain, survivors, len(survivors))

        extend(n - 2, top)

    def _recent_chain_indexed(
        self, partition: _Partition, anchor: Tuple
    ) -> list[Tuple] | None:
        """Backward-greedy selection over stored predecessor cuts.

        Only reached with a pairing guard (guard-free RECENT purges
        mid-list and keeps the bisect path of :meth:`_recent_chain`): scan
        each stage's
        viable prefix newest-first for the first qualifying tuple, then hop
        to that tuple's cached cut.
        """
        n = len(self.args)
        pairing = self._pairing
        bind_keys = self._bind_keys
        bindings: dict[str, Tuple] = {bind_keys[n - 1]: anchor}
        if not pairing(bindings):
            return None
        histories = partition.histories
        cuts = partition.cuts
        removed = partition.removed
        cut = self._anchor_cut(histories[n - 2], anchor)
        chain = [anchor]
        for index in range(n - 2, -1, -1):
            history = histories[index]
            alias = bind_keys[index]
            chosen_pos = -1
            for pos in range(cut - 1, -1, -1):
                bindings[alias] = history[pos]
                if pairing(bindings):
                    chosen_pos = pos
                    break
                del bindings[alias]
            if chosen_pos < 0:
                return None
            chain.append(history[chosen_pos])
            if index:
                cut = cuts[index][chosen_pos] - removed[index - 1]
                if cut < 0:
                    cut = 0
        chain.reverse()
        if self._window_exact:
            return chain
        return chain if self._window_ok(chain) else None

    def _recent_chain(
        self, partition: _Partition, anchor: Tuple
    ) -> list[Tuple] | None:
        """Backward-greedy selection without a pairing-time predicate: the
        most recent earlier tuple at each level is qualifying by
        construction, so the pass needs no bindings or guard probes."""
        chain = [anchor]
        upper = anchor
        for index in range(len(self.args) - 2, -1, -1):
            history = partition.histories[index]
            cut = bisect_left(history, upper)
            if not cut:
                return None
            upper = history[cut - 1]
            chain.append(upper)
        chain.reverse()
        return chain if self._window_ok(chain) else None

    def _chronicle_chain(
        self, partition: _Partition, anchor: Tuple
    ) -> list[Tuple] | None:
        """Forward-greedy earliest-qualifying selection.

        Choosing the earliest qualifying tuple at each level is complete:
        any feasible assignment can be shifted earlier level by level without
        violating the ordering, so greedy failure means no chain exists.
        """
        n = len(self.args)
        bind_keys = self._bind_keys
        bindings: dict[str, Tuple] = {bind_keys[n - 1]: anchor}
        if not self._guard_ok(bindings):
            return None
        chain: list[Tuple] = []
        lower: Tuple | None = None
        for index in range(n - 1):
            history = partition.histories[index]
            start = 0 if lower is None else bisect_right(history, lower)
            chosen: Tuple | None = None
            for candidate in history[start:]:
                if candidate >= anchor:
                    break
                bindings[bind_keys[index]] = candidate
                if self._guard_ok(bindings):
                    chosen = candidate
                    break
                del bindings[bind_keys[index]]
            if chosen is None:
                return None
            chain.append(chosen)
            lower = chosen
        chain.append(anchor)
        return chain if self._window_ok(chain) else None

    def _consume(self, partition: _Partition, chain: Sequence[Tuple]) -> None:
        """CHRONICLE: matched tuples never participate again."""
        for index, tup in enumerate(chain[:-1]):
            history = partition.histories[index]
            slot = bisect_left(history, tup)
            if slot < len(history) and history[slot] is tup:
                del history[slot]
                self._held -= 1

    # -- CONSECUTIVE automaton ---------------------------------------------

    def _consecutive_step(
        self, partition: _Partition, tup: Tuple, positions: Sequence[int]
    ) -> None:
        run = partition.run
        expected = len(run)
        arg = self.args[expected] if expected < len(self.args) else None
        extends = (
            arg is not None
            and arg.stream.lower() == tup.stream.lower()
            and self._full_guard_ok(
                {self.args[i].alias: t for i, t in enumerate(run)}
                | {arg.alias: tup}
            )
        )
        if extends:
            run.append(tup)
            self._held += 1
            if self._held > self.peak_state_size:
                self.peak_state_size = self._held
            if len(run) == len(self.args):
                chain = list(run)
                partition.run = []
                self._held -= len(chain)
                if self._window_ok(chain):
                    self._emit(chain, [chain[0]], 1)
            return
        # Interruption: purge history (paper: "tuple history can be safely
        # purged each time a sequence is finished or interrupted"), then see
        # whether the interloper can start a fresh run.
        self._held -= len(run)
        partition.run = []
        first = self.args[0]
        if first.stream.lower() == tup.stream.lower() and self._full_guard_ok(
            {first.alias: tup}
        ):
            partition.run = [tup]
            self._held += 1
            if self._held > self.peak_state_size:
                self.peak_state_size = self._held

    # -- emission -----------------------------------------------------------

    def _emit(
        self, chain: Sequence[Tuple], stage0: Sequence[Tuple], hi: int
    ) -> None:
        """Hand over the run ``chain[1:]`` x ``stage0[:hi]`` (``hi`` rows)."""
        self.matches_emitted += hi
        if self._on_run is not None:
            self._on_run(chain, stage0, hi)

    def __repr__(self) -> str:
        inner = ", ".join(arg.alias for arg in self.args)
        return (
            f"SeqOperator(SEQ({inner}) MODE {self.mode.value.upper()}, "
            f"{self.matches_emitted} matches, state={self.state_size})"
        )
