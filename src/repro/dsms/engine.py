"""The push-based continuous-query engine.

:class:`Engine` is the top-level object an application creates.  It owns:

* a :class:`~repro.dsms.clock.VirtualClock` (virtual time + timers, giving
  the *Active Expiration* semantics EXCEPTION_SEQ needs),
* the stream and table catalogs,
* the scalar-function (UDF) and aggregate (UDA) registries, and
* every registered continuous query.

Time discipline: pushing a tuple first advances the clock to the tuple's
timestamp — firing any due timers — and only then delivers the tuple.  A
timeout scheduled for time T therefore always fires before a tuple stamped
after T is seen, which makes EXCEPTION_SEQ results deterministic and
replayable.

Typical use::

    engine = Engine()
    engine.create_stream('readings', 'reader_id str, tag_id str, read_time float')
    out = engine.query(ESL_EV_TEXT)          # returns a QueryHandle
    engine.push('readings', {'reader_id': 'r1', 'tag_id': 't7',
                             'read_time': 3.0}, ts=3.0)
    print(out.rows())

Results leave every query through one callback.  A SELECT without INSERT
INTO delivers to a :class:`Collector` — the one place emitted rows are
retained — unless the compiler is handed another callback (the
multi-query registry's per-plan fan-out, a shard's stamping sink).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .aggregates import Aggregate, AggregateRegistry
from .clock import VirtualClock
from .columns import ColumnBatch
from .errors import EslSemanticError
from .functions import default_functions
from .schema import Schema
from .streams import Stream, StreamRegistry
from .table import Table, TableRegistry
from .tuples import Tuple, dict_rows
from .udf import UdfRegistry

_VALUES = attrgetter("values")


class Collector:
    """A list-backed sink: subscribe it to any stream to capture output.

    The only component that retains emitted rows; operators, compiled
    queries and registry plans hand each result to a callback and keep
    nothing.
    """

    def __init__(self, name: str = "collector") -> None:
        self.name = name
        self.results: list[Tuple] = []
        # Result-row schema when known (set by the compiler for query
        # collectors); lets consumers rebuild Tuples from raw values.
        self.schema: Schema | None = None
        self._unsubscribe: Callable[[], None] | None = None

    def __call__(self, tup: Tuple) -> None:
        self.results.append(tup)

    def attach(self, stream: Stream) -> "Collector":
        self._unsubscribe = stream.subscribe(self)
        return self

    def detach(self) -> None:
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    def clear(self) -> None:
        self.results.clear()

    def rows(self) -> list[dict[str, Any]]:
        """Captured tuples as plain dicts.  Every tuple one collector
        captures shares one schema (its query's result schema, or its
        stream's), so the field names come from the first."""
        results = self.results
        if not results:
            return []
        return dict_rows(results[0].schema.names, map(_VALUES, results))

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self.results)

    def __repr__(self) -> str:
        return f"Collector({self.name!r}, {len(self.results)} tuples)"


class QueryHandle:
    """Handle for a registered continuous query.

    Exposes the query's output — a named derived stream, a table, or
    :attr:`collector` (None when the compiler delivered rows elsewhere) —
    and a :meth:`stop` method that detaches it from its sources.

    The compiler also attaches routing metadata for sharded execution
    (:mod:`repro.dsms.sharding`): ``source_streams`` — the stream names the
    query reads (None on pure-DDL handles) — and ``partition_field`` — the
    hoisted all-alias equality key of a temporal query, if any.  INSERT INTO
    table queries additionally carry ``sink_table``.  ``analysis`` is the
    compiler's :class:`~repro.core.language.analyzer.Analysis` of a SELECT
    (the multi-query registry derives its routing gates from it).
    """

    # Class-level defaults so DDL handles (which skip _compile_select)
    # respond to the same metadata reads.
    analysis = None
    partition_field: str | None = None
    source_streams: tuple[str, ...] | None = None
    sink_table = None

    def __init__(
        self,
        engine: "Engine",
        name: str,
        output: Stream | None,
        collector: Collector | None,
        teardown: Sequence[Callable[[], None]] = (),
    ) -> None:
        self.engine = engine
        self.name = name
        self.output = output
        self.collector = collector
        self._teardown = list(teardown)
        self.stopped = False

    @property
    def results(self) -> list[Tuple]:
        """Captured output tuples (only for queries without INSERT INTO)."""
        if self.collector is None:
            raise EslSemanticError(
                f"query {self.name!r} writes to {self.output and self.output.name!r};"
                " subscribe to that stream instead of reading .results"
            )
        return self.collector.results

    def rows(self) -> list[dict[str, Any]]:
        """Captured output as dicts — or, for an INSERT INTO table query,
        the table's current rows."""
        if self.collector is not None:
            return self.collector.rows()
        if self.sink_table is not None:
            return list(self.sink_table.scan())
        return self.results  # raises: the rows went to a derived stream

    def clear(self) -> None:
        if self.collector is not None:
            self.collector.clear()

    def stop(self) -> None:
        """Detach the query from all its source streams and drop it from
        its engine, which then holds no reference to its state."""
        if self.stopped:
            return
        for teardown in self._teardown:
            teardown()
        self.stopped = True
        try:
            self.engine.queries.remove(self)
        except ValueError:
            pass  # built outside Engine.register_query

    def __repr__(self) -> str:
        target = self.output.name if self.output is not None else "<collector>"
        return f"QueryHandle({self.name!r} -> {target})"


def execution_tier() -> dict[str, Any]:
    """The execution path report every engine returns.

    There is one path — expressions lowered to Python closures, operator
    dispatch specialized at wiring time, and the indexed SEQ state layer
    (predecessor cuts, bisected eviction, expiry heap) — so the report is
    a constant.  ``pairing`` names the path SEQ pairs candidates on.
    """
    return {
        "requested": "closure",
        "active": "closure",
        "pairing": {"requested": "closure", "active": "closure"},
    }


class Engine:
    """A self-contained DSMS instance.

    There is one execution path, held against the independent oracle in
    ``tests/oracle``; :meth:`execution_tier` reports it.
    """

    def __init__(self) -> None:
        self.clock = VirtualClock()
        self.streams = StreamRegistry()
        self.tables = TableRegistry()
        self.functions = UdfRegistry(default_functions())
        self.aggregates = AggregateRegistry()
        self.queries: list[QueryHandle] = []
        self.histories: dict[str, Any] = {}  # stream -> SnapshotView
        self._query_counter = 0

    def execution_tier(self) -> dict[str, Any]:
        """The execution path report (see :func:`execution_tier`)."""
        return execution_tier()

    # -- catalog --------------------------------------------------------

    def create_stream(
        self,
        name: str,
        schema: Schema | str | Iterable[str],
        allow_out_of_order: bool = False,
        reorder_slack: float = 0.0,
    ) -> Stream:
        """Declare a stream (the DDL ``CREATE STREAM`` goes through here)."""
        return self.streams.create(name, schema, allow_out_of_order, reorder_slack)

    def create_table(self, name: str, schema: Schema | str | Iterable[str]) -> Table:
        """Declare a persistent table (``CREATE TABLE``)."""
        return self.tables.create(name, schema)

    def stream(self, name: str) -> Stream:
        return self.streams.get(name)

    def table(self, name: str) -> Table:
        return self.tables.get(name)

    def register_udf(
        self, name: str, fn: Callable[..., Any], strict: bool = True
    ) -> None:
        """Register a user-defined scalar function."""
        self.functions.register(name, fn, strict=strict, replace=True)

    def register_uda(self, name: str, factory: Callable[[], Aggregate]) -> None:
        """Register a user-defined aggregate factory."""
        self.aggregates.register(name, factory)

    # -- time & data ----------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now

    def advance_time(self, ts: float) -> int:
        """Heartbeat: move virtual time forward, firing due timers.

        This is how window expirations are detected on quiet streams
        (the paper's Active Expiration).  Returns the number of timers fired.
        """
        return self.clock.advance(ts)

    def push(
        self,
        stream_name: str,
        values: Mapping[str, Any] | Sequence[Any],
        ts: float,
    ) -> Tuple:
        """Push one tuple: advance the clock to *ts*, then deliver.

        *values* may be a field mapping or a positional sequence.
        """
        stream = self.streams.get(stream_name)
        self.clock.advance(ts)
        if isinstance(values, Mapping):
            return stream.push_dict(values, ts)
        return stream.push_row(values, ts)

    def push_batch(
        self,
        stream_name: str,
        batch: Iterable[tuple[Mapping[str, Any] | Sequence[Any], float]],
    ) -> int:
        """Push many ``(values, ts)`` records to one stream.

        Equivalent to calling :meth:`push` per record — timers due at or
        before each record's timestamp still fire before that record is
        delivered, so EXCEPTION_SEQ active expiration sees the identical
        interleaving — but the stream lookup happens once and clock
        advancement skips the timer loop whenever nothing is due.

        *batch* may also be a :class:`~repro.dsms.columns.ColumnBatch`,
        which routes through :meth:`push_columns`.
        """
        if isinstance(batch, ColumnBatch):
            return self.push_columns(stream_name, batch)
        stream = self.streams.get(stream_name)
        advance = self.clock.advance_if_due
        ingest = stream.batch_ingester()
        count = 0
        for values, ts in batch:
            advance(ts)
            ingest(values, ts)
            count += 1
        return count

    def push_columns(self, stream_name: str, batch: ColumnBatch) -> int:
        """Push a :class:`~repro.dsms.columns.ColumnBatch` to one stream.

        The stream checks the batch (:meth:`Stream.unpack`), then its rows
        take :meth:`push_batch`, so the result is exactly that of pushing
        them one by one.
        """
        rows = self.streams.get(stream_name).unpack(batch)
        return self.push_batch(stream_name, rows)

    def run_trace(
        self, trace: Iterable[tuple[str, Mapping[str, Any] | Sequence[Any], float]]
    ) -> int:
        """Feed a whole trace of ``(stream, values, ts)`` records in order.

        Returns the number of tuples pushed.  Workload generators in
        :mod:`repro.rfid` produce traces in this shape.  Per-record
        semantics match :meth:`push` exactly (timers first, then the
        tuple); stream handles are cached and the clock fast-path skips
        the timer loop when no deadline is due.

        Two-element items ``(stream, ColumnBatch)`` are accepted
        alongside scalar records and route through :meth:`push_columns`,
        so a trace may interleave columnar and row-at-a-time sections.
        """
        ingesters: dict[str, Callable[[Any, float], Tuple]] = {}
        get = self.streams.get
        advance = self.clock.advance_if_due
        count = 0
        for record in trace:
            if len(record) == 2:
                stream_name, batch = record
                count += self.push_columns(stream_name, batch)
                continue
            stream_name, values, ts = record
            ingest = ingesters.get(stream_name)
            if ingest is None:
                ingest = ingesters[stream_name] = get(stream_name).batch_ingester()
            advance(ts)
            ingest(values, ts)
            count += 1
        return count

    def flush(self) -> int:
        """End-of-stream: release reorder buffers and fire remaining timers."""
        for stream in self.streams:
            stream.flush()
        return self.clock.drain()

    # -- queries --------------------------------------------------------

    def query(self, text: str, name: str | None = None) -> QueryHandle:
        """Parse, compile, and register an ESL-EV continuous query.

        Returns a :class:`QueryHandle`.  DDL statements (CREATE STREAM /
        TABLE / AGGREGATE) are executed immediately and return a handle with
        no output.  Multiple ``;``-separated statements are allowed; the
        handle of the last one is returned.
        """
        # Imported lazily: the language package depends on dsms, not vice versa.
        from ..core.language.compiler import compile_program

        self._query_counter += 1
        label = name or f"q{self._query_counter}"
        return compile_program(self, text, label)

    def register_query(self, handle: QueryHandle) -> QueryHandle:
        self.queries.append(handle)
        return handle

    # -- ad-hoc snapshot queries ------------------------------------------

    def enable_history(self, stream_name: str, duration: float | None = None):
        """Retain recent tuples of a stream for ad-hoc snapshot queries.

        The paper's section 2.1 motivates ad-hoc queries ("the current
        location of the patient") answered from live stream state.  A
        history is a :class:`~repro.dsms.snapshot.SnapshotView` with the
        given retention (None = unbounded); once enabled,
        :meth:`snapshot` can run one-shot SELECTs over that stream.
        Returns the view (also usable directly).
        """
        from .snapshot import SnapshotView

        # Canonicalize through the registry so the history key always
        # matches the stream's registered name, however the caller cased it.
        stream = self.streams.get(stream_name)
        key = stream.name.lower()
        view = self.histories.get(key)
        if view is None:
            view = SnapshotView(stream, duration, self.aggregates)
            self.histories[key] = view
        return view

    def history(self, stream_name: str):
        """The enabled history view for a stream (KeyError if not enabled).

        Lookup is case-insensitive and accepts any casing of the stream
        name, matching :meth:`enable_history` and :meth:`snapshot`.
        """
        try:
            return self.histories[stream_name.lower()]
        except KeyError:
            raise EslSemanticError(
                f"no history enabled for stream {stream_name!r}; call "
                "engine.enable_history() first"
            ) from None

    def snapshot(self, text: str) -> list[dict[str, Any]]:
        """Run a one-shot SELECT against current state.

        Streams in FROM are read from their enabled histories; tables from
        their current rows.  Returns the result rows immediately — nothing
        is registered, nothing keeps running.
        """
        from ..core.language.compiler import execute_snapshot

        return execute_snapshot(self, text)

    def collect(self, stream_name: str) -> Collector:
        """Attach a :class:`Collector` to a stream and return it."""
        collector = Collector(stream_name)
        collector.attach(self.streams.get(stream_name))
        return collector

    def stop_all(self) -> None:
        for handle in list(self.queries):
            handle.stop()

    def __repr__(self) -> str:
        return (
            f"Engine(streams={len(self.streams)}, tables={len(self.tables)}, "
            f"queries={len(self.queries)}, now={self.now:g})"
        )
