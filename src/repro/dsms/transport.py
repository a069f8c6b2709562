"""Shard transport: binary frame codec + persistent pipe workers.

The plumbing under ``ShardedEngine(executor="parallel")`` (see
:mod:`repro.dsms.sharding`), built so that per-batch hand-off overhead
does not consume the parallel speedup:

* **Persistent workers.**  Each shard is one long-lived worker process
  owning its shard :class:`~repro.dsms.engine.Engine` for the engine's
  lifetime, fed over a duplex ``multiprocessing`` pipe.  There is no
  executor machinery between router and worker: a batch crosses the
  process boundary as exactly one ``send_bytes`` call.

* **Binary frame codec.**  :class:`FrameCodec` packs a record batch
  ``(g, stream, values, ts)`` — and the stamped output runs coming back —
  into one contiguous struct-packed frame: stream names are interned to
  small integer ids, fixed-type columns (int/float/bool/str, chosen
  schema-first with a per-batch type check) are packed columnar, and
  anything heterogeneous falls back to pickle protocol 5 with out-of-band
  buffers.  Every frame carries a length and CRC-32 so truncation and
  corruption are detected, not silently mis-decoded.

* **Pipelined, backpressure-aware dispatch.**  Output frames are streamed
  back asynchronously: a per-shard reader thread drains the pipe into the
  merge collector while the router keeps sending, with a bounded number
  of un-acknowledged frames in flight (``MAX_INFLIGHT``: double-buffered)
  so a slow shard applies backpressure instead of accumulating unbounded
  queue.  The reader thread also makes the protocol deadlock-free: the
  parent->worker pipe can only stall if the worker stops reading, and the
  worker only stops reading while blocked on a write the reader is, by
  construction, always draining.  :class:`AdaptiveBatcher` closes the
  loop, growing the per-shard batch size while observed round-trip
  latency is cheap and shrinking it when frames queue up.

Every counter a transport question needs — frames, heartbeat-only
frames, bytes on the wire each way, round trips, encode/decode seconds
on both sides of the pipe — is kept per shard and surfaced through
:meth:`ShardedEngine.transport_stats`.
"""

from __future__ import annotations

import struct
import threading
import time
import traceback
import zlib
from collections import deque
from collections.abc import Mapping as _MappingABC
from typing import Any, Callable, Mapping

from .columns import (
    dumps_oob,
    loads_oob,
    pack_column as _pack_column,
    schema_hints as _schema_hints,
    unpack_column as _unpack_column,
)
from .errors import (
    FrameCodecError,
    SchemaError,
    TransportError,
    WorkerCrashed,
    WorkerHung,
)
from .merge import StampedRow

# ---------------------------------------------------------------------------
# Frame envelope
# ---------------------------------------------------------------------------

MAGIC = 0xE51F
_HEADER = struct.Struct("<HBBII")  # magic, ftype, flags, payload_len, crc32

FT_HELLO = 1
FT_BATCH = 2
FT_ADVANCE = 3
FT_FLUSH = 4
FT_OUTPUT = 5
FT_CALL = 6
FT_REPLY = 7
FT_STOP = 8
FT_ERROR = 9

_FRAME_TYPES = frozenset(
    (FT_HELLO, FT_BATCH, FT_ADVANCE, FT_FLUSH, FT_OUTPUT, FT_CALL, FT_REPLY,
     FT_STOP, FT_ERROR)
)


def encode_frame(ftype: int, payload: bytes) -> bytes:
    """Wrap *payload* in the transport envelope (magic, length, CRC-32)."""
    return _HEADER.pack(
        MAGIC, ftype, 0, len(payload), zlib.crc32(payload)
    ) + payload


def decode_frame(data: bytes) -> tuple[int, memoryview]:
    """Split an envelope into ``(ftype, payload)``, verifying integrity.

    Raises :class:`FrameCodecError` for short, truncated, corrupt, or
    unknown frames — a damaged frame must never decode as a shorter valid
    one.
    """
    if len(data) < _HEADER.size:
        raise FrameCodecError(
            f"short frame: {len(data)} bytes < {_HEADER.size}-byte header"
        )
    magic, ftype, _flags, length, crc = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FrameCodecError(f"bad frame magic 0x{magic:04x}")
    if ftype not in _FRAME_TYPES:
        raise FrameCodecError(f"unknown frame type {ftype}")
    payload = memoryview(data)[_HEADER.size:]
    if len(payload) != length:
        raise FrameCodecError(
            f"truncated frame: header declares {length} payload bytes, "
            f"got {len(payload)}"
        )
    if zlib.crc32(payload) != crc:
        raise FrameCodecError("frame CRC mismatch (corrupt payload)")
    return ftype, payload


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------


class FrameCodec:
    """Encodes/decodes the shard transport's frame payloads.

    Both pipe ends construct their codec from the same
    :class:`~repro.dsms.sharding.ShardSpec`, so the interned stream-name
    and sink-id tables agree without ever crossing the wire.
    """

    def __init__(self, spec: Any) -> None:
        table = getattr(spec, "stream_table", None) or ()
        self._stream_ids: dict[str, int] = {}
        self._stream_names: list[str] = []
        self._schemas: list[Any] = []
        self._hints: list[tuple[int | None, ...]] = []
        self._names: list[tuple[str, ...]] = []
        for name, schema in table:
            key = name.lower()
            self._stream_ids[key] = len(self._stream_names)
            self._stream_names.append(key)
            self._schemas.append(schema)
            self._hints.append(_schema_hints(schema))
            self._names.append(schema.names)
        self._sink_ids: list[str] = [sink[0] for sink in spec.sinks]
        self._sink_index = {
            sink_id: index for index, sink_id in enumerate(self._sink_ids)
        }

    # -- record batches (router -> worker) -------------------------------

    def encode_batch(
        self,
        seq: int,
        records: list[tuple[int, str, Any, float]],
        advance_to: tuple[int, float] | None,
    ) -> bytes:
        n = len(records)
        parts: list[bytes] = [struct.pack("<Q", seq)]
        if advance_to is None:
            parts.append(struct.pack("<B", 0))
        else:
            parts.append(struct.pack("<BQd", 1, advance_to[0], advance_to[1]))
        parts.append(struct.pack("<I", n))
        parts.append(struct.pack(f"<{n}Q", *(rec[0] for rec in records)))
        parts.append(struct.pack(f"<{n}d", *(rec[3] for rec in records)))
        stream_ids = self._stream_ids
        groups: dict[int, tuple[list[int], list[tuple]]] = {}
        index = 0
        for _g, stream, values, _ts in records:
            try:
                group = groups[stream_ids[stream]]
            except KeyError:
                stream_id = stream_ids.get(stream)
                if stream_id is None:
                    raise FrameCodecError(
                        f"stream {stream!r} is not in the transport's "
                        "interned table; was it declared before the engine "
                        "froze?"
                    ) from None
                group = groups[stream_id] = ([], [])
            group[0].append(index)
            # Normalize to a positional row exactly as the shard-side
            # ingester would (same covers check, same error messages), so
            # delivering the decoded tuple is semantically identical to
            # delivering the original mapping.
            if type(values) is dict or isinstance(values, _MappingABC):
                group[1].append(values)
            else:
                group[1].append(tuple(values))
            index += 1
        parts.append(struct.pack("<H", len(groups)))
        for stream_id, (indices, raw_rows) in groups.items():
            names = self._names[stream_id]
            schema = self._schemas[stream_id]
            covers = schema.covers
            n_cols = len(names)
            rows: list[tuple] = []
            append = rows.append
            for values in raw_rows:
                if type(values) is tuple:
                    if len(values) != n_cols:
                        raise SchemaError(
                            f"tuple has {len(values)} values for "
                            f"{n_cols}-column schema {schema!r}"
                        )
                    append(values)
                else:
                    if not covers(values.keys()):
                        extra = set(values) - set(names)
                        raise SchemaError(
                            f"unknown fields {sorted(extra)} for {schema!r}"
                        )
                    append(tuple(map(values.get, names)))
            n_rows = len(rows)
            parts.append(struct.pack("<HIB", stream_id, n_rows, n_cols))
            parts.append(struct.pack(f"<{n_rows}I", *indices))
            hints = self._hints[stream_id]
            for col, column in enumerate(zip(*rows)):
                _pack_column(column, hints[col], parts)
        return encode_frame(FT_BATCH, b"".join(parts))

    def decode_batch(
        self, payload: memoryview
    ) -> tuple[int, list[tuple[int, str, Any, float]], tuple[int, float] | None]:
        try:
            (seq,) = struct.unpack_from("<Q", payload, 0)
            offset = 8
            (has_advance,) = struct.unpack_from("<B", payload, offset)
            offset += 1
            advance_to = None
            if has_advance:
                g_adv, ts_adv = struct.unpack_from("<Qd", payload, offset)
                advance_to = (g_adv, ts_adv)
                offset += 16
            (n,) = struct.unpack_from("<I", payload, offset)
            offset += 4
            gs = struct.unpack_from(f"<{n}Q", payload, offset)
            offset += 8 * n
            tss = struct.unpack_from(f"<{n}d", payload, offset)
            offset += 8 * n
            streams: list[str | None] = [None] * n
            values_at: list[Any] = [None] * n
            (n_groups,) = struct.unpack_from("<H", payload, offset)
            offset += 2
            for _ in range(n_groups):
                stream_id, n_rows, n_cols = struct.unpack_from(
                    "<HIB", payload, offset
                )
                offset += 7
                if stream_id >= len(self._stream_names):
                    raise FrameCodecError(f"unknown stream id {stream_id}")
                if n_cols != len(self._names[stream_id]):
                    raise FrameCodecError(
                        f"{n_cols} columns for stream id {stream_id}"
                    )
                indices = struct.unpack_from(f"<{n_rows}I", payload, offset)
                offset += 4 * n_rows
                columns = []
                for _col in range(n_cols):
                    column, offset = _unpack_column(payload, offset, n_rows)
                    columns.append(column)
                name = self._stream_names[stream_id]
                if indices and max(indices) >= n:
                    raise FrameCodecError(
                        f"record index {max(indices)} out of range "
                        f"(batch of {n})"
                    )
                for index, row in zip(indices, zip(*columns)):
                    streams[index] = name
                    values_at[index] = row
            if any(stream is None for stream in streams):
                raise FrameCodecError("batch frame left records unassigned")
            return seq, [
                (gs[i], streams[i], values_at[i], tss[i]) for i in range(n)
            ], advance_to
        except struct.error as exc:
            raise FrameCodecError(f"truncated batch frame: {exc}") from exc

    # -- small control frames --------------------------------------------

    def encode_advance(self, seq: int, g: int, ts: float) -> bytes:
        return encode_frame(FT_ADVANCE, struct.pack("<QQd", seq, g, ts))

    @staticmethod
    def decode_advance(payload: memoryview) -> tuple[int, int, float]:
        try:
            return struct.unpack_from("<QQd", payload, 0)
        except struct.error as exc:
            raise FrameCodecError(f"truncated advance frame: {exc}") from exc

    def encode_flush(self, seq: int, g: int) -> bytes:
        return encode_frame(FT_FLUSH, struct.pack("<QQ", seq, g))

    @staticmethod
    def decode_flush(payload: memoryview) -> tuple[int, int]:
        try:
            return struct.unpack_from("<QQ", payload, 0)
        except struct.error as exc:
            raise FrameCodecError(f"truncated flush frame: {exc}") from exc

    # -- stamped output runs (worker -> router) --------------------------

    def encode_outputs(
        self,
        ack_seq: int,
        outputs: Mapping[str, list[StampedRow]],
        decode_s: float,
        encode_s: float,
        ftype: int = FT_OUTPUT,
    ) -> bytes:
        head = struct.pack("<Qdd", ack_seq, decode_s, encode_s)
        parts: list[bytes] = [head, struct.pack("<H", len(outputs))]
        for sink_id, rows in outputs.items():
            sink_index = self._sink_index.get(sink_id)
            if sink_index is None:
                raise FrameCodecError(f"unknown sink id {sink_id!r}")
            n = len(rows)
            parts.append(struct.pack("<HI", sink_index, n))
            if not n:
                parts.append(struct.pack("<B", 0))
                parts.append(dumps_oob([]))
                continue
            tss, gs, _shards, locals_, values = zip(*rows)
            parts.append(struct.pack(f"<{n}d", *tss))
            parts.append(struct.pack(f"<{n}q", *gs))  # signed: -1 is pre-step
            parts.append(struct.pack(f"<{n}Q", *locals_))
            widths = {len(v) for v in values}
            if len(widths) == 1:
                n_cols = widths.pop()
                parts.append(struct.pack("<BB", 1, n_cols))
                for column in zip(*values):
                    _pack_column(column, None, parts)
            else:  # ragged values: whole-block pickle fallback
                parts.append(struct.pack("<B", 0))
                parts.append(dumps_oob(list(values)))
        return encode_frame(ftype, b"".join(parts))

    def decode_outputs(
        self, payload: memoryview, shard: int
    ) -> tuple[int, dict[str, list[StampedRow]], float, float]:
        try:
            ack_seq, decode_s, encode_s = struct.unpack_from("<Qdd", payload, 0)
            offset = 24
            (n_sinks,) = struct.unpack_from("<H", payload, offset)
            offset += 2
            outputs: dict[str, list[StampedRow]] = {}
            for _ in range(n_sinks):
                sink_index, n = struct.unpack_from("<HI", payload, offset)
                offset += 6
                if sink_index >= len(self._sink_ids):
                    raise FrameCodecError(f"unknown sink index {sink_index}")
                tss = struct.unpack_from(f"<{n}d", payload, offset)
                offset += 8 * n
                gs = struct.unpack_from(f"<{n}q", payload, offset)
                offset += 8 * n
                locals_ = struct.unpack_from(f"<{n}Q", payload, offset)
                offset += 8 * n
                (uniform,) = struct.unpack_from("<B", payload, offset)
                offset += 1
                if uniform:
                    (n_cols,) = struct.unpack_from("<B", payload, offset)
                    offset += 1
                    columns = []
                    for _col in range(n_cols):
                        column, offset = _unpack_column(payload, offset, n)
                        columns.append(column)
                    if n_cols:
                        values = list(zip(*columns))
                    else:
                        values = [()] * n
                else:
                    values, offset = loads_oob(payload, offset)
                    if not isinstance(values, list) or len(values) != n:
                        raise FrameCodecError("output block has wrong row count")
                shards = [shard] * n
                outputs[self._sink_ids[sink_index]] = list(
                    zip(tss, gs, shards, locals_, values)
                )
            return ack_seq, outputs, decode_s, encode_s
        except struct.error as exc:
            raise FrameCodecError(f"truncated output frame: {exc}") from exc


def encode_error(exc: BaseException) -> bytes:
    detail = (type(exc).__name__, str(exc), traceback.format_exc())
    return encode_frame(FT_ERROR, dumps_oob(detail))


def encode_call(method: str, args: tuple) -> bytes:
    return encode_frame(FT_CALL, dumps_oob((method, args)))


def encode_reply(result: Any) -> bytes:
    return encode_frame(FT_REPLY, dumps_oob(result))


_STOP_FRAME = encode_frame(FT_STOP, b"")


# ---------------------------------------------------------------------------
# Adaptive batch sizing
# ---------------------------------------------------------------------------


class AdaptiveBatcher:
    """Round-trip-latency-driven batch-size controller for one shard.

    Doubles the dispatch threshold while full frames come back fast
    (fixed per-frame overhead dominates — bigger batches amortize it) and
    halves it when acks slow past ``high_water_s`` (frames queueing on a
    saturated shard — smaller batches restore responsiveness).  Bounded
    by ``[min_size, max_size]``; growth/shrink counts are reported in the
    transport stats so a bench run shows what the controller did.
    """

    __slots__ = ("size", "min_size", "max_size", "low_water_s",
                 "high_water_s", "growths", "shrinks")

    def __init__(
        self,
        initial: int,
        min_size: int = 64,
        max_size: int = 8192,
        low_water_s: float = 0.005,
        high_water_s: float = 0.050,
    ) -> None:
        self.size = max(min(initial, max_size), min_size)
        self.min_size = min_size
        self.max_size = max_size
        self.low_water_s = low_water_s
        self.high_water_s = high_water_s
        self.growths = 0
        self.shrinks = 0

    def observe(self, rtt_s: float, n_records: int) -> None:
        # Non-finite and non-positive samples carry no latency signal, so
        # they must not drive the batch size anywhere (a burst of zeros
        # would otherwise grow past every queueing signal).
        if not (0.0 < rtt_s < float("inf")):
            return
        if rtt_s > self.high_water_s and self.size > self.min_size:
            self.size = max(self.size // 2, self.min_size)
            self.shrinks += 1
        elif (
            rtt_s < self.low_water_s
            and n_records >= self.size
            and self.size < self.max_size
        ):
            self.size = min(self.size * 2, self.max_size)
            self.growths += 1


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def shard_worker_main(
    conn: Any, spec: Any, shard: int, n_shards: int
) -> None:
    """Entry point of one persistent shard worker process.

    Builds the shard's engine once, announces readiness with a HELLO
    carrying the rows it emitted while compiling (a table-only SELECT's),
    then serves frames until STOP or pipe close.  Every data frame is answered
    with exactly one OUTPUT frame acknowledging it and carrying whatever
    stamped rows the step produced, so the router's in-flight accounting
    is a plain counter.  Failures are reported as ERROR frames with the
    worker traceback — the router re-raises them as
    :class:`~repro.dsms.errors.TransportError`.
    """
    from .sharding import _ShardRuntime

    clock = time.perf_counter
    decode_s = 0.0
    encode_s = 0.0
    try:
        codec = FrameCodec(spec)
        runtime = _ShardRuntime(spec, shard, n_shards)
        conn.send_bytes(
            codec.encode_outputs(0, runtime.take_outputs(), 0.0, 0.0, FT_HELLO)
        )
        while True:
            try:
                data = conn.recv_bytes()
            except (EOFError, OSError):
                break
            started = clock()
            ftype, payload = decode_frame(data)
            if ftype == FT_BATCH:
                seq, records, advance_to = codec.decode_batch(payload)
                decode_s += clock() - started
                ingest = runtime.ingest
                for g, stream, values, ts in records:
                    ingest(g, stream, values, ts)
                if advance_to is not None:
                    runtime.advance(advance_to[0], advance_to[1])
            elif ftype == FT_ADVANCE:
                seq, g, ts = codec.decode_advance(payload)
                decode_s += clock() - started
                runtime.advance(g, ts)
            elif ftype == FT_FLUSH:
                seq, g = codec.decode_flush(payload)
                decode_s += clock() - started
                runtime.flush(g)
            elif ftype == FT_CALL:
                (method, args), _ = loads_oob(payload)
                result = getattr(runtime, method)(*args)
                conn.send_bytes(encode_reply(result))
                continue
            elif ftype == FT_STOP:
                break
            else:
                raise TransportError(
                    f"shard {shard} worker received unexpected frame "
                    f"type {ftype}"
                )
            outputs = runtime.take_outputs()
            started = clock()
            frame = codec.encode_outputs(seq, outputs, decode_s, encode_s)
            encode_s += clock() - started
            conn.send_bytes(frame)
    except Exception as exc:  # noqa: BLE001 - forwarded to the router
        try:
            conn.send_bytes(encode_error(exc))
        except (OSError, ValueError, BrokenPipeError):
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Router-side worker client
# ---------------------------------------------------------------------------


def _shutdown_worker(process: Any, conn: Any) -> None:
    """Best-effort worker teardown; also runs at interpreter exit."""
    try:
        if process.is_alive():
            try:
                conn.send_bytes(_STOP_FRAME)
            except (OSError, ValueError, BrokenPipeError):
                pass
        process.join(timeout=2.0)
        if process.is_alive():
            process.terminate()
            process.join(timeout=1.0)
        if process.is_alive():
            # SIGTERM stays pending on a stopped (SIGSTOP-wedged) process;
            # SIGKILL does not.
            process.kill()
            process.join(timeout=1.0)
    finally:
        try:
            conn.close()
        except OSError:
            pass


#: Un-acknowledged frames allowed per worker before dispatch blocks:
#: double-buffered, so the router encodes frame N+1 while the worker
#: processes frame N.
MAX_INFLIGHT = 2


class ShardWorkerClient:
    """Router-side handle for one persistent shard worker.

    Owns the pipe, the reader thread that streams OUTPUT frames into the
    merge collector, the in-flight window (backpressure), and the
    per-shard transport counters.  All send-side methods are called from
    the router thread only; the reader thread owns the receive side.
    """

    def __init__(
        self,
        spec: Any,
        shard: int,
        n_shards: int,
        context: Any,
        on_outputs: Callable[[int, Mapping[str, list[StampedRow]]], None],
        hang_timeout: float | None = None,
    ) -> None:
        import weakref

        self.shard = shard
        self._codec = FrameCodec(spec)
        self._on_outputs = on_outputs
        # When hang_timeout is set, the wait loops raise WorkerHung if
        # frames stay unacknowledged past the deadline with no progress.
        self._hang_timeout = hang_timeout
        self._last_progress = time.monotonic()
        conn, worker_conn = context.Pipe(duplex=True)
        self._conn = conn
        self._process = context.Process(
            target=shard_worker_main,
            args=(worker_conn, spec, shard, n_shards),
            daemon=True,
            name=f"repro-shard-{shard}",
        )
        self._process.start()
        worker_conn.close()
        self._finalizer = weakref.finalize(
            self, _shutdown_worker, self._process, conn
        )
        self._cond = threading.Condition()
        self._seq = 0
        self._inflight = 0
        self._pending: deque[tuple[int, float, int]] = deque()
        self._rtt_samples: list[tuple[float, int]] = []
        self._reply: list[Any] = []
        self._error: BaseException | None = None
        self._ready = False
        self._dead = False
        self._closed = False
        self.last_sent_ts: float | None = None
        # Counters.  Send-side fields are written by the router thread,
        # receive-side fields by the reader thread; no field has two
        # writers, so reads for stats() only need the condition lock for
        # a consistent snapshot.
        self.frames_sent = 0
        self.heartbeat_frames = 0
        self.records_sent = 0
        self.bytes_sent = 0
        self.frames_received = 0
        self.bytes_received = 0
        self.rows_received = 0
        self.round_trips = 0
        self.encode_s = 0.0
        self.decode_s = 0.0
        self.worker_decode_s = 0.0
        self.worker_encode_s = 0.0
        self._reader = threading.Thread(
            target=self._read_loop, daemon=True,
            name=f"repro-shard-{shard}-reader",
        )
        self._reader.start()

    # -- reader thread ----------------------------------------------------

    def _read_loop(self) -> None:
        clock = time.perf_counter
        conn = self._conn
        cond = self._cond
        while True:
            try:
                data = conn.recv_bytes()
            except (EOFError, OSError):
                break
            started = clock()
            try:
                ftype, payload = decode_frame(data)
                if ftype == FT_OUTPUT:
                    ack_seq, outputs, wdec, wenc = self._codec.decode_outputs(
                        payload, self.shard
                    )
                    elapsed = clock() - started
                    if outputs:
                        self._on_outputs(self.shard, outputs)
                    with cond:
                        self._last_progress = time.monotonic()
                        self.decode_s += elapsed
                        self.frames_received += 1
                        self.bytes_received += len(data)
                        self.rows_received += sum(
                            len(rows) for rows in outputs.values()
                        )
                        self.round_trips += 1
                        self.worker_decode_s = wdec
                        self.worker_encode_s = wenc
                        if self._pending and self._pending[0][0] == ack_seq:
                            _seq, sent_at, n_records = self._pending.popleft()
                            self._rtt_samples.append(
                                (started - sent_at, n_records)
                            )
                        self._inflight -= 1
                        cond.notify_all()
                elif ftype == FT_HELLO:
                    _, outputs, _, _ = self._codec.decode_outputs(
                        payload, self.shard
                    )
                    if outputs:
                        self._on_outputs(self.shard, outputs)
                    with cond:
                        self._last_progress = time.monotonic()
                        self._ready = True
                        cond.notify_all()
                elif ftype == FT_REPLY:
                    result, _ = loads_oob(payload)
                    with cond:
                        self._last_progress = time.monotonic()
                        self._reply.append(result)
                        self.frames_received += 1
                        self.bytes_received += len(data)
                        cond.notify_all()
                elif ftype == FT_ERROR:
                    (name, message, trace), _ = loads_oob(payload)
                    with cond:
                        self._error = TransportError(
                            f"shard {self.shard} worker failed: {name}: "
                            f"{message}\n--- worker traceback ---\n{trace}"
                        )
                        cond.notify_all()
                else:
                    raise FrameCodecError(
                        f"unexpected frame type {ftype} from worker"
                    )
            except Exception as exc:  # noqa: BLE001 - surfaced to router
                with cond:
                    if self._error is None:
                        self._error = exc if isinstance(
                            exc, TransportError
                        ) else TransportError(
                            f"shard {self.shard} reader failed: {exc}"
                        )
                    cond.notify_all()
                break
        with cond:
            self._dead = True
            cond.notify_all()

    # -- router-side sends ------------------------------------------------

    def _raise_if_failed(self) -> None:
        if self._error is not None:
            raise self._error
        if self._dead and not self._closed:
            raise WorkerCrashed(
                f"shard {self.shard} worker exited unexpectedly"
            )

    def _pipe_closed(self, exc: BaseException, doing: str) -> TransportError:
        """The error to raise when a send hits a closed pipe.

        A worker that died of something it could report (a corrupt frame,
        an application error) wrote an ERROR frame before closing; wait
        for the reader thread to reach it or EOF, so the raised error
        carries the worker's traceback rather than a bare crash whenever
        the router happens to win the race.
        """
        with self._cond:
            self._cond.wait_for(
                lambda: self._dead or self._error is not None, timeout=1.0
            )
            if self._error is not None:
                return self._error
        return WorkerCrashed(
            f"shard {self.shard} worker pipe closed while {doing}: {exc}"
        )

    def _check_hang(self) -> None:
        """Raise WorkerHung when in-flight work stalls past the deadline."""
        timeout = self._hang_timeout
        if timeout is None or not self._inflight:
            return
        stalled = time.monotonic() - self._last_progress
        if stalled > timeout:
            raise WorkerHung(
                f"shard {self.shard} worker made no progress for "
                f"{stalled:.1f}s with {self._inflight} frames in flight "
                f"(hang_timeout={timeout:g}s)"
            )

    def _wait_interval(self) -> float:
        timeout = self._hang_timeout
        if timeout is None:
            return 1.0
        return min(1.0, max(timeout / 4.0, 0.005))

    def _admit(self) -> None:
        """Block until the in-flight window has room (backpressure)."""
        wait_s = self._wait_interval()
        with self._cond:
            self._raise_if_failed()
            while self._inflight >= MAX_INFLIGHT:
                self._cond.wait(timeout=wait_s)
                self._raise_if_failed()
                self._check_hang()

    def _send(self, frame: bytes, n_records: int, heartbeat: bool) -> None:
        self._admit()
        with self._cond:
            self._seq += 1
            self._pending.append((self._seq, time.perf_counter(), n_records))
            self._inflight += 1
            self.frames_sent += 1
            self.bytes_sent += len(frame)
            self.records_sent += n_records
            if heartbeat:
                self.heartbeat_frames += 1
            self._last_progress = time.monotonic()
        try:
            self._conn.send_bytes(frame)
        except (OSError, ValueError, BrokenPipeError) as exc:
            raise self._pipe_closed(exc, "sending") from exc

    def _next_seq(self) -> int:
        return self._seq + 1

    def send_batch(
        self,
        records: list[tuple[int, str, Any, float]],
        advance_to: tuple[int, float] | None,
    ) -> None:
        started = time.perf_counter()
        frame = self._codec.encode_batch(self._next_seq(), records, advance_to)
        self.encode_s += time.perf_counter() - started
        if advance_to is not None:
            self.last_sent_ts = advance_to[1]
        self._send(frame, len(records), heartbeat=not records)

    def send_advance(self, g: int, ts: float) -> None:
        frame = self._codec.encode_advance(self._next_seq(), g, ts)
        self.last_sent_ts = ts
        self._send(frame, 0, heartbeat=True)

    def send_flush(self, g: int) -> None:
        frame = self._codec.encode_flush(self._next_seq(), g)
        self._send(frame, 0, heartbeat=False)

    def drain(self) -> None:
        """Barrier: wait until every sent frame has been acknowledged."""
        wait_s = self._wait_interval()
        with self._cond:
            self._raise_if_failed()
            while self._inflight:
                self._cond.wait(timeout=wait_s)
                self._raise_if_failed()
                self._check_hang()

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        with self._cond:
            self._raise_if_failed()
            while not self._ready:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TransportError(
                        f"shard {self.shard} worker did not come up within "
                        f"{timeout:.0f}s"
                    )
                self._cond.wait(timeout=min(remaining, 1.0))
                self._raise_if_failed()

    def call(self, method: str, *args: Any) -> Any:
        """Synchronous RPC into the worker (stats, table scans)."""
        self.drain()
        if self._closed:
            raise TransportError(
                f"shard {self.shard} worker is closed"
            )
        try:
            self._conn.send_bytes(encode_call(method, args))
        except (OSError, ValueError, BrokenPipeError) as exc:
            raise self._pipe_closed(exc, f"calling {method!r}") from exc
        wait_s = self._wait_interval()
        started = time.monotonic()
        with self._cond:
            while not self._reply:
                self._raise_if_failed()
                timeout = self._hang_timeout
                if (
                    timeout is not None
                    and time.monotonic() - started > timeout
                ):
                    raise WorkerHung(
                        f"shard {self.shard} worker did not reply to "
                        f"{method!r} within {timeout:g}s"
                    )
                self._cond.wait(timeout=wait_s)
            return self._reply.pop()

    def take_rtt_samples(self) -> list[tuple[float, int]]:
        with self._cond:
            samples = self._rtt_samples
            self._rtt_samples = []
            return samples

    @property
    def alive(self) -> bool:
        return self._process.is_alive()

    def stats(self) -> dict[str, Any]:
        with self._cond:
            return {
                "shard": self.shard,
                "frames_sent": self.frames_sent,
                "heartbeat_frames": self.heartbeat_frames,
                "records_sent": self.records_sent,
                "bytes_sent": self.bytes_sent,
                "frames_received": self.frames_received,
                "bytes_received": self.bytes_received,
                "rows_received": self.rows_received,
                "round_trips": self.round_trips,
                "encode_s": self.encode_s,
                "decode_s": self.decode_s,
                "worker_decode_s": self.worker_decode_s,
                "worker_encode_s": self.worker_encode_s,
            }

    def close(self) -> None:
        """Idempotent teardown: STOP the worker, reap it, stop the reader."""
        if self._closed:
            return
        self._closed = True
        self._finalizer()
        self._reader.join(timeout=2.0)
