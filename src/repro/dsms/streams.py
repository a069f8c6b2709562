"""Streams and the stream registry.

A :class:`Stream` is a named, schema'd, append-only sequence of tuples.
Downstream consumers (continuous queries, operators, application callbacks)
subscribe to a stream; pushing a tuple fans it out to every subscriber in
subscription order.

Streams enforce the timestamp-ordered contract from the paper's data model:
a push with a timestamp earlier than the last accepted tuple raises
:class:`OutOfOrderError` unless the stream was created with
``allow_out_of_order=True`` (in which case tuples are buffered and released
in order using a small reordering buffer — the common fix for jittery RFID
readers).
"""

from __future__ import annotations

import heapq
import itertools
import operator
from collections.abc import Mapping as _MappingABC
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .columns import ColumnBatch
from .errors import OutOfOrderError, SchemaError, UnknownStreamError
from .schema import Schema
from .tuples import Tuple

Subscriber = Callable[[Tuple], None]


class Stream:
    """A named append-only data stream.

    Attributes:
        name: the stream's registry name.
        schema: its :class:`Schema`.
        last_ts: timestamp of the most recently emitted tuple (None if none).
        count: total tuples emitted so far.
        late_dropped: tuples a reordering stream discarded because they
            arrived older than ``max_seen - reorder_slack``.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        allow_out_of_order: bool = False,
        reorder_slack: float = 0.0,
        sequencer: Iterator[int] | None = None,
    ) -> None:
        self.name = name
        self.schema = schema
        self.last_ts: float | None = None
        self.count = 0
        self.late_dropped = 0
        self._subscribers: list[Subscriber] = []
        self._fanout: tuple[Subscriber, ...] = ()
        self._allow_ooo = allow_out_of_order
        self._reorder_slack = reorder_slack
        self._reorder_buffer: list[Tuple] = []
        self._max_seen: float | None = None  # newest ts observed (pre-reorder)
        self._ingester: Callable[[Any, float], Tuple] | None = None
        # Shared per-registry counter: every tuple this stream builds or
        # first delivers is stamped from it, so (ts, seq) ordering is
        # consistent across all streams of one engine and independent of
        # any other engine in the process.
        self._sequencer = sequencer

    def subscribe(self, callback: Subscriber) -> Callable[[], None]:
        """Register *callback* for every future tuple; returns an unsubscriber."""
        self._subscribers.append(callback)
        # _fanout is the delivery snapshot: rebuilt on (un)subscribe so the
        # per-tuple loops need no defensive copy.  An in-flight delivery
        # keeps iterating the tuple it started with, which is exactly the
        # copy-then-iterate semantics this replaces.
        self._fanout = tuple(self._subscribers)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(callback)
            except ValueError:
                pass
            self._fanout = tuple(self._subscribers)

        return unsubscribe

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    def take_subscribers(self, start: int) -> list[Subscriber]:
        """Remove and return every subscriber registered at or after *start*.

        The shared multi-query registry (:mod:`repro.dsms.registry`) uses
        this to relocate a freshly compiled plan's callbacks behind its
        predicate-indexed router: it snapshots :attr:`subscriber_count`
        before compiling, then takes the appended tail.  Relative order of
        the taken callbacks is preserved, so a router that replays them in
        sequence delivers exactly what direct subscription would have.
        The unsubscribers previously returned by :meth:`subscribe` remain
        valid no-ops for taken callbacks.
        """
        taken = self._subscribers[start:]
        if taken:
            del self._subscribers[start:]
            self._fanout = tuple(self._subscribers)
        return taken

    def push(self, tup: Tuple) -> None:
        """Emit *tup* to all subscribers, enforcing timestamp order."""
        if tup.schema is not self.schema and tup.schema != self.schema:
            raise SchemaError(
                f"tuple schema {tup.schema!r} does not match stream "
                f"{self.name!r} schema {self.schema!r}"
            )
        if not self._allow_ooo:
            if self.last_ts is not None and tup.ts < self.last_ts:
                raise OutOfOrderError(
                    f"stream {self.name!r}: tuple at ts={tup.ts:g} after "
                    f"ts={self.last_ts:g}",
                    stream=self.name, ts=tup.ts, last_ts=self.last_ts,
                )
            self._deliver(tup)
            return
        if self._max_seen is not None and tup.ts < self._max_seen - self._reorder_slack:
            # Too late even for the reorder buffer: drop, as ALE-style
            # middleware does with stale reads, and count the drop.
            self.late_dropped += 1
            return
        self._max_seen = tup.ts if self._max_seen is None else max(
            self._max_seen, tup.ts
        )
        heapq.heappush(self._reorder_buffer, tup)
        self._release(self._max_seen - self._reorder_slack)

    def flush(self) -> None:
        """Release everything held in the reorder buffer (end of stream)."""
        while self._reorder_buffer:
            self._deliver(heapq.heappop(self._reorder_buffer))

    def _release(self, watermark: float) -> None:
        while self._reorder_buffer and self._reorder_buffer[0].ts <= watermark:
            self._deliver(heapq.heappop(self._reorder_buffer))

    def _deliver(self, tup: Tuple) -> None:
        if self.last_ts is not None and tup.ts < self.last_ts:
            tup = tup.with_ts(self.last_ts)  # clamp residual disorder
            if self._sequencer is not None and tup.stream:
                # The copy is unseen by subscribers; renumber it so the
                # clamped delivery stays monotone in (ts, seq).
                tup.seq = next(self._sequencer)
        if not tup.stream:
            # First delivery of a standalone-built tuple: claim it for this
            # engine (name + engine-scoped sequence number).  Tuples that
            # were already delivered elsewhere (pass-through pipelines) keep
            # their stamp — re-numbering would corrupt sort keys in any
            # history that already holds them.
            tup.stream = self.name
            if self._sequencer is not None:
                tup.seq = next(self._sequencer)
        self.last_ts = tup.ts
        self.count += 1
        for callback in self._fanout:
            callback(tup)

    def _next_seq(self) -> int | None:
        return None if self._sequencer is None else next(self._sequencer)

    def push_row(self, values: Sequence[Any], ts: float) -> Tuple:
        """Convenience: build a tuple from positional values and push it."""
        tup = Tuple(self.schema, values, ts, self.name, self._next_seq())
        self.push(tup)
        return tup

    def push_dict(self, mapping: Mapping[str, Any], ts: float) -> Tuple:
        """Convenience: build a tuple from a field mapping and push it."""
        tup = Tuple.from_mapping(self.schema, mapping, ts, self.name, self._next_seq())
        self.push(tup)
        return tup

    def ingest(self, values: Mapping[str, Any] | Sequence[Any], ts: float) -> Tuple:
        """Fused build-and-deliver for batch ingestion.

        Semantically identical to :meth:`push_dict` / :meth:`push_row`
        followed by :meth:`push`; see :meth:`batch_ingester` for the fused
        hot path this delegates to.
        """
        ingester = self._ingester
        if ingester is None:
            ingester = self.batch_ingester()
        return ingester(values, ts)

    def batch_ingester(self) -> Callable[[Any, float], Tuple]:
        """A cached fused pusher for the engine's batch-ingestion paths.

        Collapses the ``push_dict``/``push_row`` → ``push`` → ``_deliver``
        chain into one closure with the per-stream constants (schema,
        sequencer, subscriber list) bound once: the tuple is built from
        this stream's own schema (so the schema match holds by
        construction) and, on in-order streams, delivered without
        re-entering :meth:`push`'s clamp/claim logic — the order check here
        already excludes the clamp case, and the stream stamp is set at
        construction.  Out-of-order streams take the full reorder-buffer
        path.
        """
        ingester = self._ingester
        if ingester is not None:
            return ingester

        schema = self.schema
        names = schema.names
        n_cols = len(schema)
        # The schema/column-index lookups are resolved here, once per
        # stream, not per row: the field-name set for mapping validation
        # (inlined ``covers`` — a keys-view <= frozenset compare with no
        # method call) and the name tuple driving positional extraction.
        field_set = frozenset(names)
        name = self.name
        sequencer = self._sequencer
        subscribers = self._subscribers
        reorder = self._allow_ooo
        push = self.push
        new = Tuple.__new__

        def ingest(values: Any, ts: float) -> Tuple:
            # A tuple row skips the ABC check, which costs ten times a
            # type test on the per-row path.
            if type(values) is not tuple and (
                type(values) is dict or isinstance(values, _MappingABC)
            ):
                try:
                    known = values.keys() <= field_set
                except TypeError:
                    known = all(key in field_set for key in values.keys())
                if not known:
                    extra = set(values) - field_set
                    raise SchemaError(
                        f"unknown fields {sorted(extra)} for {schema!r}"
                    )
                row = tuple(map(values.get, names))
            else:
                row = tuple(values)
                if len(row) != n_cols:
                    raise SchemaError(
                        f"tuple has {len(row)} values for {n_cols}-column "
                        f"schema {schema!r}"
                    )
            if sequencer is None:
                tup = Tuple(schema, row, ts, name)
            else:
                # Invariants Tuple.__init__ enforces (tuple-typed values,
                # arity, float ts) are established above, so slot
                # assignment is safe.
                tup = new(Tuple)
                tup.schema = schema
                tup.values = row
                tup.ts = ts = float(ts)
                tup.stream = name
                tup.seq = next(sequencer)
            if reorder:
                push(tup)
                return tup
            last = self.last_ts
            if last is not None and tup.ts < last:
                raise OutOfOrderError(
                    f"stream {name!r}: tuple at ts={tup.ts:g} after "
                    f"ts={last:g}",
                    stream=name, ts=tup.ts, last_ts=last,
                )
            self.last_ts = tup.ts
            self.count += 1
            for callback in self._fanout:
                callback(tup)
            return tup

        self._ingester = ingest
        return ingest

    def unpack(self, batch: ColumnBatch) -> Iterator[tuple[tuple, float]]:
        """The ``(values, ts)`` records of *batch*, once it fits this stream.

        A :class:`~repro.dsms.columns.ColumnBatch` is an input format, not
        an execution path: every engine's ``push_columns`` checks the batch
        here and then feeds these records through its row path.  The batch
        must carry this stream's schema and, unless the stream reorders,
        rows already in timestamp order (the batch's own contract).
        """
        schema = self.schema
        if batch.schema is not schema and batch.schema != schema:
            raise SchemaError(
                f"column batch schema {batch.schema!r} does not match stream "
                f"{self.name!r} schema {schema!r}"
            )
        tss = batch.timestamps
        if not self._allow_ooo and not all(map(operator.le, tss, tss[1:])):
            last, ts = next(
                pair for pair in zip(tss, tss[1:]) if pair[1] < pair[0]
            )
            raise OutOfOrderError(
                f"stream {self.name!r}: tuple at ts={ts:g} after ts={last:g}",
                stream=self.name, ts=ts, last_ts=last,
            )
        return batch.rows()

    def __repr__(self) -> str:
        return f"Stream({self.name!r}, {len(self.schema)} cols, {self.count} tuples)"


class StreamRegistry:
    """Name -> :class:`Stream` catalog with case-insensitive lookup.

    The registry owns the engine-scoped tuple sequence counter: all its
    streams stamp tuples from one shared count, so (ts, seq) ordering is
    total within an engine and never leaks between engines.
    """

    def __init__(self) -> None:
        self._streams: dict[str, Stream] = {}
        self._sequencer = itertools.count()

    def create(
        self,
        name: str,
        schema: Schema | str | Iterable[str],
        allow_out_of_order: bool = False,
        reorder_slack: float = 0.0,
    ) -> Stream:
        """Create and register a stream.  Raises if the name is taken."""
        key = name.lower()
        if key in self._streams:
            raise SchemaError(f"stream {name!r} already exists")
        if isinstance(schema, str):
            schema = Schema.parse(schema)
        elif not isinstance(schema, Schema):
            schema = Schema(schema)
        stream = Stream(
            name, schema, allow_out_of_order, reorder_slack, self._sequencer
        )
        self._streams[key] = stream
        return stream

    def get(self, name: str) -> Stream:
        try:
            return self._streams[name.lower()]
        except KeyError:
            known = ", ".join(sorted(self._streams)) or "<none>"
            raise UnknownStreamError(
                f"unknown stream {name!r}; registered: {known}"
            ) from None

    def drop(self, name: str) -> None:
        self._streams.pop(name.lower(), None)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._streams

    def __iter__(self) -> Iterator[Stream]:
        return iter(self._streams.values())

    def __len__(self) -> int:
        return len(self._streams)
