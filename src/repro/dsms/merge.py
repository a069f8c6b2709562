"""Deterministic merge of sharded engine outputs.

A :class:`~repro.dsms.sharding.ShardedEngine` runs N independent
:class:`~repro.dsms.engine.Engine` shards.  Each shard emits result rows in
its own local order; to present callers with the *single* result stream a
one-engine run would have produced, every emission is stamped and the
per-shard runs are k-way merged.

Merge discipline
----------------

Every emitted row is stamped ``(ts, g, shard, local)`` where

* ``ts`` is the emission timestamp (for timer-driven EXCEPTION_SEQ
  violations this is the timer *deadline* — the clock fires callbacks with
  the deadline, not the arrival time that made it due);
* ``g`` is the global input-record index of the step (record, clock
  advance, flush) during which the shard emitted the row (the router counts
  every pushed record once, across all streams and shards); a row a timer
  emits carries the step that armed the timer, and a row emitted before
  the first step (a table-only SELECT's, at compile time) carries -1;
* ``shard`` is the shard index;
* ``local`` is a per-shard, per-sink emission counter.

Within one shard a run is already sorted by this key: the shard clock only
moves forward, tuple-driven emissions carry the triggering input's
timestamp, timer-driven emissions carry deadlines that are due at or before
the current clock, timers due at one timestamp fire in arming order, and
``local`` is monotone by construction.  The merge is therefore a streaming
:func:`heapq.merge` over already-sorted runs.

Why this reproduces single-engine order: a single engine's collector list is
ordered by emission time, which is non-decreasing in ``ts`` (clock
discipline) and, within equal ``ts``, by triggering input record (``g``) —
timers due at a record's timestamp fire *before* the record is delivered,
in the order they were armed, and timer outputs carry ``ts`` = deadline <=
record ts.  Sorting the union of shard runs by ``(ts, g, shard, local)``
hence reconstructs that order exactly: one input record triggers output on
exactly one shard, and arms timers on exactly one shard.  See
``docs/PERFORMANCE.md`` for the full argument.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterator, Sequence

# A stamped emission: (ts, g, shard, local, values).  Plain tuples keep the
# records picklable (parallel executor workers ship them back to the
# router) and directly comparable — (shard, local) is unique per shard, so
# heap comparisons never reach the values payload.
StampedRow = tuple[float, int, int, int, tuple[Any, ...]]


class RunCollector:
    """Accumulates per-(sink, shard) stamped runs on the router side.

    The pipe transport's reader threads append output runs concurrently —
    one thread per shard — so the backing lists are laid out per shard and
    pre-registered up front: after :meth:`register`, ``absorb`` only ever
    appends to the one slot its shard owns, making the structure safe
    without a lock (list.append is atomic, and no two threads share a
    slot).  ``runs_for`` is called from the router thread only after a
    drain barrier, when every reader is quiescent.
    """

    __slots__ = ("_runs",)

    def __init__(self) -> None:
        self._runs: dict[str, list[list[StampedRow]]] = {}

    def register(self, sink_id: str, n_shards: int) -> None:
        self._runs[sink_id] = [[] for _ in range(n_shards)]

    def sink_ids(self) -> list[str]:
        return list(self._runs)

    def absorb(self, shard: int, outputs: "dict[str, list[StampedRow]]") -> None:
        """Append *outputs* (one shard's drained runs, in emission order)."""
        for sink_id, rows in outputs.items():
            self._runs[sink_id][shard].extend(rows)

    def runs_for(self, sink_id: str) -> list[list[StampedRow]]:
        """The per-shard sorted runs accumulated for *sink_id* so far."""
        return self._runs[sink_id]


def merge_runs(runs: Sequence[Sequence[StampedRow]]) -> Iterator[StampedRow]:
    """K-way merge of per-shard stamped runs into one deterministic stream.

    Each run must be internally sorted by ``(ts, g, shard, local)`` — true
    by construction for a shard's stamped runs (see module docstring).
    The output is globally sorted by the same key.
    """
    return heapq.merge(*runs)
