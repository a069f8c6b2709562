"""Shard state checkpointing: capture and restore a live engine's state.

The fault-tolerant sharded executor (``fault_tolerance="restart"``)
periodically snapshots each shard worker's engine so a crashed worker can
be respawned, restored, and fed only the post-checkpoint replay log —
resuming with zero output divergence from an unfaulted run.

Engines are **not** pickled wholesale: a compiled query plan is a web of
closures, timers, and subscriber lists that neither pickles nor needs to.
Instead, both sides rely on the fact that a shard engine is rebuilt
deterministically from its :class:`~repro.dsms.sharding.ShardSpec` — the
fresh worker replays the same DDL and queries, producing the same streams,
tables, and operators in the same order.  What a checkpoint carries is
only the *mutable* state layered on that skeleton:

* the virtual clock's current time,
* per-stream bookkeeping (last accepted ts, tuple and late-drop counts,
  reorder buffer),
* the engine-scoped tuple sequence counter (captured **non-consumingly**,
  so checkpointing never perturbs sequence numbering),
* table rows and index definitions, and
* every registered *checkpointable component* — operators and window
  buffers that expose ``snapshot_state()`` / ``restore_state(blob)`` over
  plain picklable data.  Components register with the engine in compile
  order, so the Nth component of the restored engine is the Nth component
  of the checkpointed one by construction.

Tuples inside operator state are serialized as ``(stream, values, ts,
seq)`` and rebuilt against the restored engine's registered schemas with
their original sequence numbers — ``(ts, seq)`` ordering inside windows
and histories survives the round trip exactly.

Plans containing operators without state-capture support (EXCEPTION_SEQ,
SEQ+ :class:`~repro.core.operators.star.StarSeqOperator`) register an
:class:`UnsupportedState` marker instead; checkpointing such an engine
raises :class:`~repro.dsms.errors.CheckpointError` with the operator
named, rather than silently dropping its state.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

from .errors import CheckpointError
from .tuples import Tuple

CHECKPOINT_VERSION = 1


def pack_tuple(tup: Tuple) -> tuple[str, tuple, float, int]:
    """Serialize a stream tuple to plain data (schema carried by name)."""
    return (tup.stream, tup.values, tup.ts, tup.seq)


def tuple_unpacker(engine: Any) -> Callable[[tuple], Tuple]:
    """An ``unpack(packed) -> Tuple`` closure bound to *engine*'s catalogs.

    Resolves each packed tuple's schema **and canonical stream-name
    string** through the engine's stream registry, so identity checks on
    ``tup.stream`` inside operator dispatch keep working after restore.
    """
    schemas: dict[str, tuple[str, Any]] = {}

    def unpack(packed: tuple) -> Tuple:
        stream_name, values, ts, seq = packed
        entry = schemas.get(stream_name)
        if entry is None:
            if not stream_name or stream_name not in engine.streams:
                raise CheckpointError(
                    f"checkpointed tuple references stream {stream_name!r}, "
                    "which the restored engine does not declare"
                )
            stream = engine.streams.get(stream_name)
            entry = schemas[stream_name] = (stream.name, stream.schema)
        name, schema = entry
        return Tuple(schema, values, ts, name, seq=seq)

    return unpack


class WindowBufferState:
    """Checkpoint adapter for a compiler-owned window buffer.

    Exists-probe buffers (:class:`~repro.dsms.windows.RangeWindowBuffer` /
    ``RowsWindowBuffer``) live inside compiled closures with no back-ref
    from the engine; the compiler registers one of these adapters so the
    buffer's live tuples cross checkpoints.
    """

    def __init__(self, engine: Any, buffer: Any) -> None:
        self.engine = engine
        self.buffer = buffer

    def snapshot_state(self) -> dict[str, Any]:
        return {
            "tuples": [pack_tuple(t) for t in self.buffer],
            "latest": getattr(self.buffer, "latest_ts", None),
        }

    def restore_state(self, blob: dict[str, Any]) -> None:
        unpack = tuple_unpacker(self.engine)
        self.buffer.restore(map(unpack, blob["tuples"]), blob["latest"])


class UnsupportedState:
    """Placeholder component for operators without checkpoint support.

    Registered in place of a real snapshot/restore pair so an attempt to
    checkpoint a plan containing the operator fails loudly, naming it.
    """

    def __init__(self, label: str) -> None:
        self.label = label

    def snapshot_state(self) -> Any:
        raise CheckpointError(
            f"{self.label} does not support state checkpointing; run this "
            "query with fault_tolerance='fail_fast' (the default)"
        )

    def restore_state(self, blob: Any) -> None:
        raise CheckpointError(
            f"{self.label} does not support state restore"
        )


def capture_engine_state(engine: Any) -> dict[str, Any]:
    """Snapshot everything mutable about *engine* into plain data.

    The engine is left untouched — in particular the sequence counter is
    read through ``itertools.count.__reduce__`` rather than ``next()``,
    so capturing a checkpoint never shifts tuple numbering relative to a
    run that never checkpoints.
    """
    if engine.histories:
        raise CheckpointError(
            "engines with enabled snapshot histories cannot be "
            "checkpointed yet; drop enable_history() or use "
            "fault_tolerance='fail_fast'"
        )
    streams_state: dict[str, Any] = {}
    for stream in engine.streams:
        streams_state[stream.name.lower()] = {
            "last_ts": stream.last_ts,
            "count": stream.count,
            "late_dropped": stream.late_dropped,
            "max_seen": stream._max_seen,
            "reorder": [pack_tuple(t) for t in stream._reorder_buffer],
        }
    tables_state: dict[str, Any] = {}
    for table in engine.tables:
        tables_state[table.name.lower()] = {
            "rows": list(table._rows),
            "indexes": [list(columns) for columns in table._indexes],
        }
    # itertools.count pickles as (count, (next_value,)): read the position
    # without consuming it.
    sequencer_pos = engine.streams._sequencer.__reduce__()[1][0]
    return {
        "version": CHECKPOINT_VERSION,
        "clock_now": engine.clock._now,
        "sequencer": sequencer_pos,
        "streams": streams_state,
        "tables": tables_state,
        "components": [
            component.snapshot_state() for component in engine.checkpointables
        ],
    }


def restore_engine_state(engine: Any, state: dict[str, Any]) -> None:
    """Apply a :func:`capture_engine_state` blob to a freshly built engine.

    *engine* must have been rebuilt from the same spec (same DDL, same
    queries, same flags) that produced the checkpoint; mismatches are
    detected where cheap (component count, stream/table names) and raise
    :class:`CheckpointError`.
    """
    if state.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {state.get('version')!r} does not match "
            f"this engine's {CHECKPOINT_VERSION}"
        )
    components = state["components"]
    if len(components) != len(engine.checkpointables):
        raise CheckpointError(
            f"checkpoint carries {len(components)} component states but "
            f"the rebuilt engine registered {len(engine.checkpointables)}; "
            "the spec the worker was rebuilt from does not match"
        )
    # Clock first: component restores may re-arm timers against restored
    # virtual time.
    engine.clock._now = state["clock_now"]
    # One shared counter resumed at the captured position; every stream
    # re-binds to it and drops its cached ingester closure (the closure
    # captured the old counter object).
    sequencer = itertools.count(state["sequencer"])
    engine.streams._sequencer = sequencer
    unpack = tuple_unpacker(engine)
    for key, blob in state["streams"].items():
        if key not in engine.streams:
            raise CheckpointError(
                f"checkpoint carries state for stream {key!r}, which the "
                "rebuilt engine does not declare"
            )
        stream = engine.streams.get(key)
        stream.last_ts = blob["last_ts"]
        stream.count = blob["count"]
        stream.late_dropped = blob["late_dropped"]
        stream._max_seen = blob["max_seen"]
        stream._reorder_buffer = [unpack(p) for p in blob["reorder"]]
    for stream in engine.streams:
        stream._sequencer = sequencer
        stream._ingester = None
    for key, blob in state["tables"].items():
        if key not in engine.tables:
            raise CheckpointError(
                f"checkpoint carries state for table {key!r}, which the "
                "rebuilt engine does not declare"
            )
        engine.tables.get(key).restore(blob["rows"], blob["indexes"])
    for component, blob in zip(engine.checkpointables, components):
        component.restore_state(blob)
