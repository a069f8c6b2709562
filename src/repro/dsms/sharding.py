"""Partition-sharded parallel engine.

The paper's central RFID idiom — equality on ``tag_id`` hoisted into
per-partition operator state (Example 6) — makes SEQ/EXCEPTION_SEQ
workloads embarrassingly parallel across tags: tuples of different tags
never interact.  :class:`ShardedEngine` exploits that.  It owns N inner
:class:`~repro.dsms.engine.Engine` shards, hash-routes each pushed tuple
to one shard by its partition key, broadcasts clock advancement to every
shard (so EXCEPTION_SEQ *Active Expiration* timers fire identically
everywhere), and k-way merges the per-shard outputs back into the single
deterministic result stream a one-engine run would have produced (see
:mod:`repro.dsms.merge` for the stamp/merge discipline).

Routing rules
-------------

Each input stream gets exactly one routing policy, derived when queries
are registered:

* **hash** — tuples go to ``crc32(str(key)) % n_shards`` where the key
  field comes from (a) an explicit ``shard_by={'stream': 'field'}``
  override, else (b) the query's hoisted equality-chain partition key
  (``QueryHandle.partition_field``) when every source stream carries it.
* **broadcast** — every shard receives every tuple.  This is the fallback
  for keyless streams: a query whose sources cannot all be keyed is
  *replicated* (each shard computes the full result from the full input)
  and its output is collected from shard 0 only, so rows are not
  duplicated N times.

A stream's policy must be consistent across all queries that read it:
registering a query that needs stream S broadcast when another query
hash-routes S (or needs a different key) raises
:class:`~repro.dsms.errors.EslSemanticError` — run the conflicting query
on its own ``ShardedEngine`` or add a ``shard_by`` override.  Correctness
of an explicit ``shard_by`` key is the caller's contract: the query's
semantics must not relate tuples with different key values (true for any
query whose predicates all correlate on that key, like Example 1's
per-tag dedup).

Executors
---------

Two interchangeable executors implement the same routing/merge contract:

* ``executor='serial'`` — all shards live in this process and every
  record is applied synchronously: the target shard ingests, every other
  shard's clock advances first.  This is the *reference* executor the
  differential tests compare against a single ``Engine``.
* ``executor='parallel'`` — the pipe transport
  (:mod:`repro.dsms.transport`): each shard is one persistent worker
  process owning its Engine for the sharded engine's lifetime, fed
  batches over a duplex pipe as struct-packed binary frames.  Output
  frames stream back asynchronously on a per-shard reader thread;
  dispatch is pipelined with a bounded in-flight window (backpressure)
  and an adaptive batch-size controller.  Per-shard wire counters are
  surfaced through :meth:`ShardedEngine.transport_stats`.

Both executors batch through the same fused ingestion
(:meth:`Stream.batch_ingester`), so the PR-1 fast path applies per
shard.  Clock advancement is broadcast at batch boundaries, which
preserves merged output *order* (timer outputs are stamped with their
deadline either way) at the cost of coarser stamp granularity; see
``docs/PERFORMANCE.md`` for the exact guarantee.

Setup (``create_stream`` / ``create_table`` / ``register_udf`` /
``query`` / ``collect``) must happen before the first push: the first
data or clock operation freezes the configuration, and — in process
modes — spawns the worker processes from a declarative replay spec.
Call :meth:`ShardedEngine.start` to freeze and wait for workers
explicitly (benchmarks do, to keep process spawn out of timed regions).

Typical use::

    sharded = ShardedEngine(n_shards=4, executor='parallel')
    for name in ('c1', 'c2', 'c3', 'c4'):
        sharded.create_stream(name, 'readerid str, tagid str, tagtime float')
    handle = sharded.query(QUALITY_QUERY)   # partitions on tagid
    sharded.run_trace(trace)
    sharded.flush()
    print(handle.rows())                    # merged, single-engine order
    sharded.close()
"""

from __future__ import annotations

import zlib
from collections.abc import Mapping as _MappingABC
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping, Sequence

from .columns import ColumnBatch
from .engine import Engine, QueryHandle, execution_tier
from .errors import EslSemanticError, TransportError
from .merge import RunCollector, StampedRow, merge_runs
from .schema import Schema
from .tuples import Tuple, dict_rows


def shard_of(key: Any, n_shards: int) -> int:
    """Stable hash routing: same key -> same shard, across runs and hosts.

    Uses CRC-32 of ``str(key)`` rather than :func:`hash` because the
    latter is salted per process (``PYTHONHASHSEED``) — worker processes
    and the router must agree.
    """
    if type(key) is not str:
        key = str(key)
    return zlib.crc32(key.encode("utf-8", "surrogatepass")) % n_shards


class _Route:
    """Routing decision for one stream."""

    __slots__ = ("stream", "policy", "field", "owner", "key_fn")

    def __init__(self, stream: str) -> None:
        self.stream = stream
        self.policy: str | None = None  # None (undecided) | "hash" | "broadcast"
        # For "hash": the key field, or None for *opaque* partitioned
        # streams (derived outputs of a partitioned query whose schema
        # does not carry the partition key — readable via collect(), but
        # not pushable or re-consumable).
        self.field: str | None = None
        self.owner: str | None = None  # query label that fixed the policy
        self.key_fn: Callable[[Any], Any] | None = None


class ShardSpec:
    """Declarative, picklable recipe for building one shard's Engine.

    ``ops`` replays the setup calls in order; ``sinks`` lists the outputs
    to stamp, as ``(sink_id, kind, target, ship)`` with kind ``"query"``
    (collector or derived-stream output of a registered query) or
    ``"stream"`` (an explicit :meth:`ShardedEngine.collect`), and ship
    ``"all"`` (every shard emits) or ``"zero"`` (replicated output,
    shard 0 only).  ``stream_table`` lists every pushable stream as
    ``(lowercased_name, Schema)``, in registration order — both ends of
    the pipe transport derive their interned stream-id and column-packing
    tables from it, so ids agree without crossing the wire.
    """

    __slots__ = ("ops", "sinks", "stream_table")

    def __init__(
        self,
        ops: Sequence[tuple],
        sinks: Sequence[tuple[str, str, str, str]],
        stream_table: Sequence[tuple[str, Schema]] = (),
    ) -> None:
        self.ops = list(ops)
        self.sinks = list(sinks)
        self.stream_table = tuple(stream_table)


class _StampedRun:
    """One output of one shard: stamps each row as it is emitted.

    The output callback of a query (or the subscriber of a stream); each
    delivered tuple becomes ``(ts, g, shard, local)`` + values, where
    ``g`` is the global record index the runtime set before the step
    that emitted it.  :attr:`rows` holds only what was emitted since the
    last :meth:`_ShardRuntime.take_outputs`.
    """

    __slots__ = ("sink_id", "runtime", "rows", "local")

    def __init__(self, sink_id: str, runtime: "_ShardRuntime") -> None:
        self.sink_id = sink_id
        self.runtime = runtime
        self.rows: list[StampedRow] = []
        self.local = 0

    def __call__(self, tup: Tuple) -> None:
        runtime = self.runtime
        self.rows.append(
            (tup.ts, runtime.g, runtime.shard, self.local, tup.values)
        )
        self.local += 1


def _discard(tup: Tuple) -> None:
    """Output callback of a replicated query on a shard other than 0."""


class _ShardRuntime:
    """One shard: a full Engine built from a :class:`ShardSpec`.

    Lives in-process (serial executor) or inside a worker process
    (parallel executor).  All mutation goes through :meth:`ingest`,
    :meth:`advance`, and :meth:`flush`, each of which first sets
    :attr:`g` so every row emitted during the step is stamped with it
    (see :mod:`repro.dsms.merge`).
    """

    def __init__(self, spec: ShardSpec, shard: int, n_shards: int) -> None:
        from ..core.language.compiler import compile_program

        self.shard = shard
        self.n_shards = n_shards
        # -1 stamps what comes before every step: the rows a table-only
        # SELECT emits while compiling.
        self.g = -1
        self.engine = Engine()
        self.engine.clock.schedule = self._stamped_at_arming(
            self.engine.clock.schedule
        )
        self.handles: dict[str, QueryHandle] = {}
        self._runs: list[_StampedRun] = []
        outputs: dict[tuple[str, str], Any] = {}
        for sink_id, kind, target, ship in spec.sinks:
            if ship == "zero" and shard != 0:
                outputs[kind, target] = _discard  # replicated: shard 0 ships
            else:
                run = _StampedRun(sink_id, self)
                self._runs.append(run)
                outputs[kind, target] = run
        for op in spec.ops:
            kind = op[0]
            if kind == "stream":
                _, name, schema, ooo, slack = op
                self.engine.create_stream(name, schema, ooo, slack)
            elif kind == "table":
                _, name, schema = op
                self.engine.create_table(name, schema)
            elif kind == "udf":
                _, name, fn, strict = op
                self.engine.register_udf(name, fn, strict=strict)
            elif kind == "query":
                _, text, label = op
                # A query's sink-less output goes straight to its stamped
                # run; INSERT INTO and table sinks ignore the callback.
                self.handles[label] = compile_program(
                    self.engine, text, label, outputs.get(("query", label))
                )
            else:  # pragma: no cover - spec is built by ShardedEngine only
                raise EslSemanticError(f"unknown shard op {kind!r}")
        for (kind, target), output in outputs.items():
            if output is _discard:
                continue
            if kind == "query":
                stream = self.handles[target].output
                if stream is None:
                    continue  # delivered by the compiled query itself
            else:
                stream = self.engine.streams.get(target)
            stream.subscribe(output)
        self._ingesters: dict[str, Callable[[Any, float], Tuple]] = {}
        self._advance_if_due = self.engine.clock.advance_if_due

    def _stamped_at_arming(self, schedule: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap the shard clock's ``schedule`` so the rows a timer emits
        are stamped with the step that armed it, not the step it fires in.

        One engine fires due timers before the step's record, in arming
        order; the arming step keeps both orders across shards (see
        :mod:`repro.dsms.merge`).
        """

        def schedule_at_step(
            deadline: float, callback: Callable[[float], None], periodic: bool = False
        ) -> Any:
            armed = self.g

            def fire(fired_at: float) -> None:
                step, self.g = self.g, armed
                try:
                    callback(fired_at)
                finally:
                    self.g = step

            return schedule(deadline, fire, periodic)

        return schedule_at_step

    def _at(self, g: int) -> None:
        """Enter a step: rows emitted from here on are stamped *g*."""
        self.g = g

    def ingest(self, g: int, stream: str, values: Any, ts: float) -> None:
        self._at(g)
        self._advance_if_due(ts)
        ingest = self._ingesters.get(stream)
        if ingest is None:
            ingest = self._ingesters[stream] = self.engine.streams.get(
                stream
            ).batch_ingester()
        ingest(values, ts)

    def advance(self, g: int, ts: float) -> None:
        """Clock broadcast: fire timers due at or before *ts*.

        Monotone-clamped (a stale heartbeat is a no-op) because batched
        hand-off can re-deliver an epoch boundary a shard already passed.
        """
        self._at(g)
        clock = self.engine.clock
        if clock._now is None or ts > clock._now:
            self._advance_if_due(ts)

    def flush(self, g: int) -> None:
        self._at(g)
        self.engine.flush()

    def take_outputs(self) -> dict[str, list[StampedRow]]:
        """Stamped rows emitted since the last take (picklable); the
        runtime keeps none of them."""
        out: dict[str, list[StampedRow]] = {}
        for run in self._runs:
            if run.rows:
                out[run.sink_id] = run.rows
                run.rows = []
        return out

    def query_state_size(self, label: str) -> int:
        operator = getattr(self.handles[label], "operator", None)
        return getattr(operator, "state_size", 0) if operator is not None else 0

    def table_rows(self, name: str) -> list[dict[str, Any]]:
        return list(self.engine.tables.get(name).scan())


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------


class _SerialExecutor:
    """Reference executor: shards applied synchronously, in-process.

    Per record, every non-target shard's clock advances *before* output
    collection, so active-expiration timers fire at exactly the same
    global record index ``g`` as they would inside a single engine.
    """

    def __init__(self, spec: ShardSpec, n_shards: int) -> None:
        self._runtimes = [_ShardRuntime(spec, i, n_shards) for i in range(n_shards)]
        self._collector = RunCollector()
        for sink_id, _kind, _target, _ship in spec.sinks:
            self._collector.register(sink_id, n_shards)

    def route_one(self, shard: int, g: int, stream: str, values: Any, ts: float) -> None:
        for index, runtime in enumerate(self._runtimes):
            if index == shard:
                runtime.ingest(g, stream, values, ts)
            else:
                runtime.advance(g, ts)

    def broadcast_one(self, g: int, stream: str, values: Any, ts: float) -> None:
        for runtime in self._runtimes:
            runtime.ingest(g, stream, values, ts)

    def advance_all(self, g: int, ts: float) -> None:
        for runtime in self._runtimes:
            runtime.advance(g, ts)

    def flush_all(self, g: int) -> None:
        for runtime in self._runtimes:
            runtime.flush(g)

    def outputs(self) -> dict[str, list[list[StampedRow]]]:
        collector = self._collector
        for index, runtime in enumerate(self._runtimes):
            collector.absorb(index, runtime.take_outputs())
        return {
            sink_id: collector.runs_for(sink_id)
            for sink_id in collector.sink_ids()
        }

    def query_state_sizes(self, label: str) -> list[int]:
        return [runtime.query_state_size(label) for runtime in self._runtimes]

    def table_rows(self, name: str) -> list[list[dict[str, Any]]]:
        return [runtime.table_rows(name) for runtime in self._runtimes]

    def close(self) -> None:
        for runtime in self._runtimes:
            runtime.engine.stop_all()


class _PipeExecutor:
    """Pipe-transport executor: persistent workers, framed dispatch.

    Same routing/merge contract as the serial executor, different
    plumbing: each shard is a :class:`~repro.dsms.transport.ShardWorkerClient`
    wrapping one long-lived worker process, outputs stream back on reader
    threads into a :class:`~repro.dsms.merge.RunCollector`, and dispatch
    thresholds per shard are governed by an
    :class:`~repro.dsms.transport.AdaptiveBatcher`.  Any
    exception escaping a transport operation tears the workers down
    before re-raising — a dead executor must not hold N processes.
    """

    def __init__(
        self,
        spec: ShardSpec,
        n_shards: int,
        batch_size: int,
        start_method: str | None = None,
        hang_timeout: float | None = None,
    ) -> None:
        import multiprocessing

        from .transport import AdaptiveBatcher, ShardWorkerClient

        self._closed = False
        self._collector = RunCollector()
        for sink_id, _kind, _target, _ship in spec.sinks:
            self._collector.register(sink_id, n_shards)
        context = multiprocessing.get_context(start_method)
        self._clients: list[ShardWorkerClient] = []
        try:
            for shard in range(n_shards):
                self._clients.append(
                    ShardWorkerClient(
                        spec,
                        shard,
                        n_shards,
                        context,
                        self._collector.absorb,
                        hang_timeout=hang_timeout,
                    )
                )
        except BaseException:
            self.close(sync=False)
            raise
        self._batchers = [AdaptiveBatcher(batch_size) for _ in range(n_shards)]
        self._buffers: list[list[tuple[int, str, Any, float]]] = [
            [] for _ in range(n_shards)
        ]
        self._max_ts: float | None = None
        self._max_g = 0

    def warm_up(self) -> None:
        """Block until every worker has built its shard engine (HELLO)."""
        try:
            for client in self._clients:
                client.wait_ready()
        except BaseException:
            self.close(sync=False)
            raise

    # -- dispatch ----------------------------------------------------------

    def _dispatch_all(self, advance_to: tuple[int, float] | None) -> None:
        for shard, client in enumerate(self._clients):
            records = self._buffers[shard]
            if records:
                self._buffers[shard] = []
                client.send_batch(records, advance_to)
                batcher = self._batchers[shard]
                for rtt_s, n_records in client.take_rtt_samples():
                    batcher.observe(rtt_s, n_records)
            elif advance_to is not None and (
                client.last_sent_ts is None
                or advance_to[1] > client.last_sent_ts
            ):
                # Coalesced heartbeat: one small advance frame, and only
                # when the stamp is newer — a stale clock cannot fire
                # timers or produce outputs, so skipping preserves the
                # merge order exactly.
                client.send_advance(advance_to[0], advance_to[1])

    def _drain_all(self) -> None:
        for client in self._clients:
            client.drain()

    def _note(self, g: int, ts: float) -> None:
        self._max_g = g
        if self._max_ts is None or ts > self._max_ts:
            self._max_ts = ts

    def _guard(self, fn, *args):
        try:
            return fn(*args)
        except BaseException:
            self.close(sync=False)
            raise

    def route_one(self, shard: int, g: int, stream: str, values: Any, ts: float) -> None:
        self._note(g, ts)
        buffer = self._buffers[shard]
        buffer.append((g, stream, values, ts))
        if len(buffer) >= self._batchers[shard].size:
            self._guard(self._dispatch_all, (g, self._max_ts))

    def broadcast_one(self, g: int, stream: str, values: Any, ts: float) -> None:
        self._note(g, ts)
        record = (g, stream, values, ts)
        full = False
        for buffer, batcher in zip(self._buffers, self._batchers):
            buffer.append(record)
            full = full or len(buffer) >= batcher.size
        if full:
            self._guard(self._dispatch_all, (g, self._max_ts))

    def advance_all(self, g: int, ts: float) -> None:
        self._note(g, ts)
        self._guard(self._dispatch_all, (g, ts))

    def _flush_all(self, g: int) -> None:
        self._dispatch_all(None)
        for client in self._clients:
            client.send_flush(g)
        self._drain_all()

    def flush_all(self, g: int) -> None:
        self._guard(self._flush_all, g)

    def _sync(self) -> None:
        if any(self._buffers):
            advance = (
                None if self._max_ts is None else (self._max_g, self._max_ts)
            )
            self._dispatch_all(advance)
        self._drain_all()

    def sync(self) -> None:
        """Barrier: drain buffers, then wait until every frame is acked."""
        self._guard(self._sync)

    def outputs(self) -> dict[str, list[list[StampedRow]]]:
        self.warm_up()  # the HELLOs carry the rows emitted while compiling
        self.sync()
        collector = self._collector
        return {
            sink_id: collector.runs_for(sink_id)
            for sink_id in collector.sink_ids()
        }

    def query_state_sizes(self, label: str) -> list[int]:
        self.sync()
        return self._guard(
            lambda: [
                client.call("query_state_size", label) for client in self._clients
            ]
        )

    def table_rows(self, name: str) -> list[list[dict[str, Any]]]:
        self.sync()
        return self._guard(
            lambda: [client.call("table_rows", name) for client in self._clients]
        )

    def stats(self) -> list[dict[str, Any]]:
        stats = []
        for client, batcher in zip(self._clients, self._batchers):
            entry = client.stats()
            entry["batch_size"] = batcher.size
            entry["batch_growths"] = batcher.growths
            entry["batch_shrinks"] = batcher.shrinks
            stats.append(entry)
        return stats

    def alive_workers(self) -> int:
        return sum(1 for client in self._clients if client.alive)

    def close(self, sync: bool = True) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            if sync:
                self._sync()
        except TransportError:
            pass  # tearing down a failed transport must not mask the cause
        finally:
            for client in self._clients:
                try:
                    client.close()
                except Exception:  # noqa: BLE001 - keep reaping the rest
                    pass


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


class ShardedQueryHandle:
    """Handle for a query (or collected stream) on a :class:`ShardedEngine`.

    API-compatible with :class:`~repro.dsms.engine.QueryHandle` where that
    makes sense for merged output: ``results`` / ``rows()`` return the
    deterministically merged result stream; ``state_size`` sums operator
    state across shards.  Sequence numbers are re-assigned by the merge
    (shard-local numbering cannot survive a union), so compare merged
    tuples by value/timestamp, not ``seq``.
    """

    def __init__(
        self,
        sharded: "ShardedEngine",
        name: str,
        kind: str,  # "collector" | "stream" | "table" | "ddl"
        *,
        sink_id: str | None = None,
        schema: Schema | None = None,
        stream_name: str = "",
        table_name: str | None = None,
        partition_field: str | None = None,
        replicated: bool = False,
    ) -> None:
        self.sharded = sharded
        self.name = name
        self.kind = kind
        self.sink_id = sink_id
        self.schema = schema
        self.stream_name = stream_name
        self.table_name = table_name
        self.partition_field = partition_field
        self.replicated = replicated

    @property
    def results(self) -> list[Tuple]:
        """Merged output tuples, in deterministic single-engine order."""
        if self.kind not in ("collector", "stream"):
            raise EslSemanticError(
                f"query {self.name!r} has no tuple output stream "
                f"(kind={self.kind}); use rows()"
            )
        assert self.sink_id is not None and self.schema is not None
        merged = self.sharded._merged(self.sink_id)
        schema = self.schema
        stream = self.stream_name
        trusted = Tuple.trusted
        # Row width is guaranteed by the shard engine's schema (and, over
        # the pipe transport, re-checked by the frame codec), so the
        # trusted constructor is safe here.
        return [
            trusted(schema, values, ts, stream)
            for ts, _g, _s, _l, values in merged
        ]

    def rows(self) -> list[dict[str, Any]]:
        """Merged output as plain dicts."""
        if self.kind == "table":
            assert self.table_name is not None
            return self.sharded.table_rows(self.table_name)
        if self.kind == "ddl":
            return []
        # Straight from the merged (ts, g, shard, local, values) rows.
        assert self.sink_id is not None and self.schema is not None
        merged = self.sharded._merged(self.sink_id)
        return dict_rows(self.schema.names, map(itemgetter(4), merged))

    @property
    def state_size(self) -> int:
        """Total retained operator state, summed across shards."""
        return sum(self.sharded._executor_for_stats().query_state_sizes(self.name))

    def __repr__(self) -> str:
        return (
            f"ShardedQueryHandle({self.name!r}, kind={self.kind}, "
            f"{'replicated' if self.replicated else 'partitioned'})"
        )


class ShardedEngine:
    """N hash-partitioned Engine shards behind the single-engine API.

    See the module docstring for routing rules and executor semantics.

    Args:
        n_shards: number of inner engines (>= 1).
        executor: ``'serial'`` (in-process reference) or ``'parallel'``
            (persistent pipe workers, framed transport).
        shard_by: explicit ``{stream_name: key_field}`` routing overrides;
            takes precedence over hoisted partition keys.
        batch_size: records buffered per shard before a parallel hand-off
            (the adaptive controller's starting point under ``parallel``).
        start_method: multiprocessing start method for pipe workers
            (``None`` = platform default); ignored by the serial executor.
        hang_timeout: wall-clock seconds a worker may sit on in-flight
            frames without progress before it is declared hung
            (``parallel`` only; ``None`` disables hang detection; any
            other value must be positive).

    A worker failure under ``parallel`` is never recovered: it raises
    :class:`~repro.dsms.errors.WorkerCrashed`,
    :class:`~repro.dsms.errors.WorkerHung` or
    :class:`~repro.dsms.errors.TransportError` (carrying the worker's
    traceback), and every worker is reaped first.
    """

    def __init__(
        self,
        n_shards: int = 4,
        executor: str = "serial",
        shard_by: Mapping[str, str] | None = None,
        batch_size: int = 2048,
        start_method: str | None = None,
        hang_timeout: float | None = None,
    ) -> None:
        if n_shards < 1:
            raise EslSemanticError(f"n_shards must be >= 1, got {n_shards}")
        if executor not in ("serial", "parallel"):
            raise EslSemanticError(
                f"unknown executor {executor!r}: expected 'serial' or "
                "'parallel'"
            )
        if executor != "parallel" and hang_timeout is not None:
            raise EslSemanticError("hang_timeout requires executor='parallel'")
        if hang_timeout is not None and not hang_timeout > 0:
            raise EslSemanticError(
                f"hang_timeout must be > 0 seconds (or None to disable hang "
                f"detection), got {hang_timeout!r}"
            )
        self.n_shards = n_shards
        self.executor_kind = executor
        self.batch_size = batch_size
        self.start_method = start_method
        self.hang_timeout = hang_timeout
        self.shard_by = {
            name.lower(): field.lower() for name, field in (shard_by or {}).items()
        }
        # The catalog engine holds schemas and compiled query metadata for
        # routing decisions; it never receives data.
        self.catalog = Engine()
        self._ops: list[tuple] = []
        self._sink_specs: list[tuple[str, str, str]] = []  # (sink_id, kind, target)
        self._routes: dict[str, _Route] = {}
        self._handles: dict[str, ShardedQueryHandle] = {}
        self._table_replicated: dict[str, bool] = {}
        self._executor: _SerialExecutor | _PipeExecutor | None = None
        self._closed = False
        self._g = 0
        self._max_ts: float | None = None
        self._query_counter = 0

    # -- setup (pre-freeze) ---------------------------------------------

    def _ensure_setup_open(self, what: str) -> None:
        if self._executor is not None:
            raise EslSemanticError(
                f"cannot {what} after data has been pushed: a ShardedEngine "
                "freezes its configuration at the first push/advance"
            )

    def _route_entry(self, name: str) -> _Route:
        key = name.lower()
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = _Route(key)
        return route

    def create_stream(
        self,
        name: str,
        schema: Schema | str | Iterable[str],
        allow_out_of_order: bool = False,
        reorder_slack: float = 0.0,
    ):
        self._ensure_setup_open("declare streams")
        stream = self.catalog.create_stream(
            name, schema, allow_out_of_order, reorder_slack
        )
        self._ops.append(
            ("stream", name, stream.schema, allow_out_of_order, reorder_slack)
        )
        self._route_entry(name)
        return stream

    def create_table(self, name: str, schema: Schema | str | Iterable[str]):
        self._ensure_setup_open("declare tables")
        table = self.catalog.create_table(name, schema)
        self._ops.append(("table", name, table.schema))
        return table

    def register_udf(self, name: str, fn: Callable[..., Any], strict: bool = True) -> None:
        """Register a scalar UDF on every shard.

        With the parallel executor the function must be importable/picklable
        from worker processes (module-level functions are; lambdas are not
        under the ``spawn`` start method).
        """
        self._ensure_setup_open("register UDFs")
        self.catalog.register_udf(name, fn, strict=strict)
        self._ops.append(("udf", name, fn, strict))

    def collect(self, stream_name: str) -> ShardedQueryHandle:
        """Merged collector over a stream (the sharded ``Engine.collect``)."""
        self._ensure_setup_open("attach collectors")
        stream = self.catalog.streams.get(stream_name)
        key = stream.name.lower()
        sink_id = f"s:{key}"
        if all(spec[0] != sink_id for spec in self._sink_specs):
            self._sink_specs.append((sink_id, "stream", stream.name))
        handle = ShardedQueryHandle(
            self,
            f"collect:{key}",
            "stream",
            sink_id=sink_id,
            schema=stream.schema,
            stream_name=stream.name,
        )
        return handle

    # -- query registration and routing ---------------------------------

    def query(self, text: str, name: str | None = None) -> ShardedQueryHandle:
        """Register an ESL-EV statement block on every shard.

        Routing metadata is derived from the *last* statement in *text*
        (the one whose handle a single Engine would return); register one
        continuous SELECT per call so every query's routing is checked.
        """
        self._ensure_setup_open("register queries")
        self._query_counter += 1
        label = name or f"q{self._query_counter}"
        catalog_handle = self.catalog.query(text, name=label)
        self._ops.append(("query", text, label))
        # DDL inside the text (or an auto-created INSERT INTO target) may
        # have added streams; give them route entries.
        for stream in self.catalog.streams:
            self._route_entry(stream.name)

        sources = catalog_handle.source_streams
        if sources is None:  # pure DDL block: nothing to route
            handle = ShardedQueryHandle(self, label, "ddl")
            self._handles[label] = handle
            return handle

        replicated = self._resolve_routing(catalog_handle, label)

        partition_field = catalog_handle.partition_field
        sink_table = getattr(catalog_handle, "sink_table", None)
        if catalog_handle.output is not None:
            # INSERT INTO stream: route the derived stream for downstream
            # consumers, and stamp its output for merged reads.
            out_route = self._route_entry(catalog_handle.output.name)
            if out_route.policy is None:
                if replicated:
                    out_route.policy = "broadcast"
                else:
                    out_route.policy = "hash"
                    out_schema = catalog_handle.output.schema
                    if partition_field is not None and any(
                        field.lower() == partition_field
                        for field in out_schema.names
                    ):
                        out_route.field = partition_field
                out_route.owner = label
            sink_id = f"q:{label}"
            self._sink_specs.append((sink_id, "query", label))
            handle = ShardedQueryHandle(
                self,
                label,
                "stream",
                sink_id=sink_id,
                schema=catalog_handle.output.schema,
                stream_name=catalog_handle.output.name,
                partition_field=partition_field,
                replicated=replicated,
            )
        elif catalog_handle.collector is not None:
            sink_id = f"q:{label}"
            self._sink_specs.append((sink_id, "query", label))
            handle = ShardedQueryHandle(
                self,
                label,
                "collector",
                sink_id=sink_id,
                schema=catalog_handle.collector.schema,
                partition_field=partition_field,
                replicated=replicated,
            )
        elif sink_table is not None:
            self._table_replicated[sink_table.name.lower()] = replicated
            handle = ShardedQueryHandle(
                self,
                label,
                "table",
                table_name=sink_table.name,
                partition_field=partition_field,
                replicated=replicated,
            )
        else:  # pragma: no cover - every SELECT has one of the three sinks
            handle = ShardedQueryHandle(self, label, "ddl")
        self._handles[label] = handle
        return handle

    def _resolve_routing(self, catalog_handle: QueryHandle, label: str) -> bool:
        """Fix routing policies for the query's source streams.

        Returns True when the query must run *replicated* (all sources
        broadcast, output collected from shard 0).
        """
        sources = [name.lower() for name in (catalog_handle.source_streams or ())]
        if not sources:
            return True  # table-only FROM: every shard computes identically
        partition_field = catalog_handle.partition_field
        desired: dict[str, str | None] = {}
        for source in sources:
            schema = self.catalog.streams.get(source).schema
            field = self.shard_by.get(source)
            if field is None and partition_field is not None and any(
                name.lower() == partition_field for name in schema.names
            ):
                field = partition_field
            if field is not None and not any(
                name.lower() == field for name in schema.names
            ):
                raise EslSemanticError(
                    f"shard_by key {field!r} is not a field of stream "
                    f"{source!r} ({', '.join(schema.names)})"
                )
            desired[source] = field

        # A query is partitioned only when every source can be keyed AND no
        # source is already pinned to broadcast; otherwise it is replicated
        # and needs *all* of its sources on every shard.
        existing = {source: self._routes[source] for source in desired}
        partitioned = all(field is not None for field in desired.values()) and not any(
            route.policy == "broadcast" for route in existing.values()
        )
        if not partitioned:
            for source, route in existing.items():
                if route.policy == "hash":
                    raise EslSemanticError(
                        f"query {label!r} needs stream {route.stream!r} on every "
                        f"shard, but query {route.owner!r} hash-routes it by "
                        f"{route.field!r}; run {label!r} on a separate "
                        "ShardedEngine or add a shard_by override that keys "
                        "this query too"
                    )
                route.policy = "broadcast"
                route.owner = route.owner or label
            return True
        for source, route in existing.items():
            field = desired[source]
            if route.policy is None:
                route.policy = "hash"
                route.field = field
                route.owner = label
            elif route.field is None or route.field != field:
                raise EslSemanticError(
                    f"conflicting shard keys for stream {route.stream!r}: query "
                    f"{route.owner!r} routes by {route.field!r}, query {label!r} "
                    f"needs {field!r}; use shard_by to pick one key or run the "
                    "queries on separate ShardedEngines"
                )
        return False

    # -- freeze ----------------------------------------------------------

    def _make_key_fn(self, stream_name: str, field: str) -> Callable[[Any], Any]:
        schema = self.catalog.streams.get(stream_name).schema
        actual = None
        position = 0
        for index, name in enumerate(schema.names):
            if name.lower() == field:
                actual, position = name, index
                break
        if actual is None:  # pragma: no cover - validated at routing time
            raise EslSemanticError(
                f"stream {stream_name!r} has no field {field!r}"
            )

        def key_of(values: Any) -> Any:
            # type-is-dict first: typing.Mapping's __instancecheck__ costs
            # more than the rest of this function on the per-record path.
            if type(values) is dict or isinstance(values, _MappingABC):
                return values.get(actual)
            return values[position]

        return key_of

    def _freeze(self) -> None:
        if self._executor is not None:
            return
        for route in self._routes.values():
            if route.policy is None:
                # Never consumed by a partitioned query: broadcasting is
                # always safe (replicated consumers read shard 0).
                route.policy = "broadcast"
            if route.policy == "hash" and route.field is not None:
                route.key_fn = self._make_key_fn(route.stream, route.field)
        sinks: list[tuple[str, str, str, str]] = []
        for sink_id, kind, target in self._sink_specs:
            if kind == "query":
                ship = "zero" if self._handles[target].replicated else "all"
            else:
                route = self._routes[target.lower()]
                ship = "zero" if route.policy == "broadcast" else "all"
            sinks.append((sink_id, kind, target, ship))
        stream_table = tuple(
            (stream.name.lower(), stream.schema)
            for stream in self.catalog.streams
        )
        spec = ShardSpec(self._ops, sinks, stream_table)
        if self.executor_kind == "serial":
            self._executor = _SerialExecutor(spec, self.n_shards)
        else:
            self._executor = _PipeExecutor(
                spec,
                self.n_shards,
                self.batch_size,
                start_method=self.start_method,
                hang_timeout=self.hang_timeout,
            )

    def start(self) -> "ShardedEngine":
        """Freeze the configuration and wait for worker processes.

        Optional — the first push freezes implicitly — but benchmarks
        call it so process spawn and engine construction stay out of
        timed regions, for every executor alike.
        """
        self._freeze()
        warm_up = getattr(self._executor, "warm_up", None)
        if warm_up is not None:
            warm_up()
        return self

    def _executor_for_stats(self):
        self._freeze()
        return self._executor

    # -- time & data -----------------------------------------------------

    @property
    def now(self) -> float:
        """Latest timestamp routed through the engine (0.0 before any)."""
        return self._max_ts if self._max_ts is not None else 0.0

    def _check_open(self) -> None:
        if self._closed:
            raise EslSemanticError(
                "ShardedEngine is closed: it accepts no more data or clock "
                "operations (reads still work)"
            )

    def push(
        self,
        stream_name: str,
        values: Mapping[str, Any] | Sequence[Any],
        ts: float,
    ) -> None:
        """Route one record: hash-partitioned streams go to one shard (all
        other shards receive the clock advance), broadcast streams go to
        every shard.  Unlike :meth:`Engine.push` this cannot return the
        delivered Tuple — with the parallel executor delivery happens in a
        worker process."""
        self._check_open()
        self._route(stream_name, values, ts)

    def _route(
        self,
        stream_name: str,
        values: Mapping[str, Any] | Sequence[Any],
        ts: float,
    ) -> None:
        self._freeze()
        route = self._routes.get(stream_name.lower())
        if route is None:
            self.catalog.streams.get(stream_name)  # raises UnknownStreamError
            raise AssertionError("unreachable")  # pragma: no cover
        ts = float(ts)
        g = self._g
        self._g = g + 1
        if self._max_ts is None or ts > self._max_ts:
            self._max_ts = ts
        if route.policy == "hash":
            key_fn = route.key_fn
            if key_fn is None:
                raise EslSemanticError(
                    f"stream {route.stream!r} is partitioned by its producing "
                    "query but carries no known shard key; it can be collected "
                    "but not pushed to"
                )
            shard = shard_of(key_fn(values), self.n_shards)
            self._executor.route_one(shard, g, route.stream, values, ts)
        else:
            self._executor.broadcast_one(g, route.stream, values, ts)

    def push_columns(self, stream_name: str, batch: ColumnBatch) -> int:
        """Route a :class:`~repro.dsms.columns.ColumnBatch`: the catalog
        stream checks it (:meth:`Stream.unpack`), then each row is routed
        as by :meth:`push`."""
        self._check_open()
        rows = self.catalog.streams.get(stream_name).unpack(batch)
        return self._route_rows(stream_name, rows)

    def push_batch(
        self,
        stream_name: str,
        batch: (
            Iterable[tuple[Mapping[str, Any] | Sequence[Any], float]] | ColumnBatch
        ),
    ) -> int:
        """Route many ``(values, ts)`` records — or a ColumnBatch — to one
        stream."""
        if isinstance(batch, ColumnBatch):
            return self.push_columns(stream_name, batch)
        self._check_open()
        return self._route_rows(stream_name, batch)

    def _route_rows(
        self,
        stream_name: str,
        rows: Iterable[tuple[Mapping[str, Any] | Sequence[Any], float]],
    ) -> int:
        route = self._route
        count = 0
        for values, ts in rows:
            route(stream_name, values, ts)
            count += 1
        return count

    def run_trace(
        self, trace: Iterable[tuple[str, Mapping[str, Any] | Sequence[Any], float]]
    ) -> int:
        """Route a whole trace in order: ``(stream, values, ts)`` records
        and ``(stream, ColumnBatch)`` entries may be interleaved."""
        self._check_open()
        route = self._route
        count = 0
        for record in trace:
            if len(record) == 2:
                stream_name, batch = record
                count += self.push_columns(stream_name, batch)
                continue
            stream_name, values, ts = record
            route(stream_name, values, ts)
            count += 1
        return count

    def advance_time(self, ts: float) -> None:
        """Heartbeat: broadcast a clock advance to every shard."""
        self._check_open()
        self._freeze()
        ts = float(ts)
        if self._max_ts is None or ts > self._max_ts:
            self._max_ts = ts
        self._executor.advance_all(self._g, ts)

    def flush(self) -> None:
        """End of stream: release reorder buffers, fire remaining timers."""
        self._check_open()
        self._freeze()
        self._executor.flush_all(self._g)

    # -- merged reads ----------------------------------------------------

    def _merged(self, sink_id: str) -> list[StampedRow]:
        self._freeze()
        runs = self._executor.outputs().get(sink_id)
        if not runs:
            return []
        return list(merge_runs(runs))

    def table_rows(self, name: str) -> list[dict[str, Any]]:
        """Merged table contents.

        Replicated tables (every shard computed the same rows) read from
        shard 0; partitioned tables concatenate shard contents in shard
        order — per-shard insert order is preserved, global order across
        shards is not meaningful for tables (they carry no timestamps).
        """
        self._freeze()
        per_shard = self._executor.table_rows(name)
        if self._table_replicated.get(name.lower(), True):
            return per_shard[0]
        return [row for rows in per_shard for row in rows]

    def route_for(self, stream_name: str) -> tuple[str | None, str | None]:
        """The (policy, field) a stream is routed by — for tests/tools."""
        route = self._routes.get(stream_name.lower())
        if route is None:
            return (None, None)
        return (route.policy, route.field)

    def transport_stats(self) -> dict[str, Any]:
        """Per-shard transport counters, plus summed totals.

        ``per_shard`` entries carry whatever the active executor tracks —
        for the pipe transport: ``frames_sent``, ``heartbeat_frames``,
        ``records_sent``, ``bytes_sent``/``bytes_received``,
        ``round_trips``, router-side ``encode_s``/``decode_s``,
        worker-side ``worker_encode_s``/``worker_decode_s``, and the
        adaptive controller's ``batch_size``/``batch_growths``/
        ``batch_shrinks``.  The serial executor has no transport, so
        ``per_shard`` is empty.  Counters survive :meth:`close` —
        benchmarks read them after tearing the workers down.
        """
        self._freeze()
        stats_fn = getattr(self._executor, "stats", None)
        per_shard = stats_fn() if stats_fn is not None else []
        totals: dict[str, Any] = {}
        for entry in per_shard:
            for key, value in entry.items():
                if key == "shard" or not isinstance(value, (int, float)):
                    continue
                totals[key] = totals.get(key, 0) + value
        return {
            "executor": self.executor_kind,
            "codec": "framed" if self.executor_kind == "parallel" else None,
            "n_shards": self.n_shards,
            "per_shard": per_shard,
            "totals": totals,
        }

    def execution_tier(self) -> dict[str, Any]:
        """The inner engines' execution path report (see
        :func:`repro.dsms.engine.execution_tier`)."""
        return execution_tier()

    def alive_workers(self) -> int:
        """Worker processes still running (always 0 for the serial
        executor, and 0 after :meth:`close` or an error teardown)."""
        if self._executor is None:
            return 0
        fn = getattr(self._executor, "alive_workers", None)
        return fn() if fn is not None else 0

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Shut down worker processes (parallel) / stop queries (serial).

        Idempotent.  Afterwards data and clock operations raise
        :class:`~repro.dsms.errors.EslSemanticError`; merged reads and
        :meth:`transport_stats` keep working."""
        self._closed = True
        if self._executor is not None:
            self._executor.close()

    stop_all = close

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedEngine(n_shards={self.n_shards}, "
            f"executor={self.executor_kind!r}, queries={len(self._handles)})"
        )
