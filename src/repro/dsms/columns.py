"""Columnar batches and the shared column-packing primitives.

This module is the single home of the engine's columnar representation:

* :class:`ColumnBatch` — a schema-typed batch of rows stored as per-field
  column lists plus a timestamp column.  It is an input format, not an
  execution path: every engine's ``push_columns`` checks the batch at the
  stream edge (:meth:`~repro.dsms.streams.Stream.unpack`) and feeds its
  :meth:`~ColumnBatch.rows` through the same loop row pushes use.

* The struct-based column codec (``pack_column`` / ``unpack_column`` and
  the tag tables) that the shard transport's batch and output frames use
  on the wire.

The transport depends on this module, never the reverse.
"""

from __future__ import annotations

import pickle
import struct
from collections.abc import Mapping as _MappingABC
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .errors import FrameCodecError, SchemaError
from .schema import Schema

# ---------------------------------------------------------------------------
# Pickle protocol 5 with out-of-band buffers
# ---------------------------------------------------------------------------


def dumps_oob(obj: Any) -> bytes:
    """Pickle with protocol 5, packing out-of-band buffers after the body.

    Layout: ``u32 pickle_len, pickle, u32 n_buffers, (u32 len, bytes)*``.
    For plain Python payloads no buffers are produced and this is one
    protocol-5 pickle with an 8-byte frame; buffer-protocol values
    (bytes/bytearray/memoryview/arrays) ride out-of-band without a copy
    into the pickle stream.
    """
    buffers: list[pickle.PickleBuffer] = []
    body = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    parts = [struct.pack("<I", len(body)), body, struct.pack("<I", len(buffers))]
    for buffer in buffers:
        raw = buffer.raw()
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw.tobytes() if not isinstance(raw, bytes) else raw)
    return b"".join(parts)


def loads_oob(view: memoryview | bytes, offset: int = 0) -> tuple[Any, int]:
    """Inverse of :func:`dumps_oob`; returns ``(object, next_offset)``."""
    view = memoryview(view)
    try:
        (body_len,) = struct.unpack_from("<I", view, offset)
        offset += 4
        body = view[offset:offset + body_len]
        if len(body) != body_len:
            raise FrameCodecError("truncated pickle body in frame")
        offset += body_len
        (n_buffers,) = struct.unpack_from("<I", view, offset)
        offset += 4
        buffers = []
        for _ in range(n_buffers):
            (buf_len,) = struct.unpack_from("<I", view, offset)
            offset += 4
            buffers.append(view[offset:offset + buf_len])
            offset += buf_len
    except struct.error as exc:
        raise FrameCodecError(f"corrupt pickle section: {exc}") from exc
    try:
        return pickle.loads(body, buffers=buffers), offset
    except Exception as exc:  # noqa: BLE001 - a damaged pickle raises anything
        raise FrameCodecError(
            f"corrupt pickle section: {type(exc).__name__}: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# Columnar value packing
# ---------------------------------------------------------------------------

TAG_PICKLE = 0
TAG_I64 = 1
TAG_F64 = 2
TAG_BOOL = 3
TAG_STR = 4

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

#: Schema wire-format hint -> preferred column tag (schema-driven packing).
TAG_BY_WIRE = {"q": TAG_I64, "d": TAG_F64, "B": TAG_BOOL, "U": TAG_STR}


def schema_hints(schema: Schema) -> tuple[int | None, ...]:
    """Per-field preferred column tags for *schema* (None for ``any``)."""
    return tuple(
        TAG_BY_WIRE.get(getattr(field.type, "wire_format", None))
        for field in schema.fields
    )


def column_tag(values: Sequence, hint: int | None) -> int:
    """Pick the densest tag every non-None value satisfies.

    The schema's declared type (*hint*) is tried first — the common case
    is one type sweep that confirms it — and the remaining tags are
    probed only when the schema said ``any`` or the data disagrees (e.g.
    ints in a float column, which must round-trip as ints, not doubles).
    """
    candidates = [hint] if hint is not None else []
    candidates += [TAG_F64, TAG_I64, TAG_STR, TAG_BOOL]
    for tag in candidates:
        if tag == TAG_I64:
            if all(
                value is None
                or (type(value) is int and _I64_MIN <= value <= _I64_MAX)
                for value in values
            ):
                return tag
        elif tag == TAG_F64:
            if all(value is None or type(value) is float for value in values):
                return tag
        elif tag == TAG_STR:
            if all(value is None or type(value) is str for value in values):
                return tag
        elif tag == TAG_BOOL:
            if all(value is None or type(value) is bool for value in values):
                return tag
    return TAG_PICKLE


_PACKED_F64 = struct.pack("<BB", TAG_F64, 0)
_PACKED_I64 = struct.pack("<BB", TAG_I64, 0)
_PACKED_STR = struct.pack("<BB", TAG_STR, 0)


def pack_column(values: Sequence, hint: int | None, out: list[bytes]) -> None:
    n = len(values)
    # Fast paths first: a None-free column whose every value exactly
    # matches the hinted type packs with two C-speed sweeps (type check,
    # struct.pack) and no bitmap.  Everything else funnels through the
    # general tag probe.
    if hint == TAG_F64 and all(type(v) is float for v in values):
        out.append(_PACKED_F64)
        out.append(struct.pack(f"<{n}d", *values))
        return
    if hint == TAG_STR and all(type(v) is str for v in values):
        out.append(_PACKED_STR)
        blob = "\x00".join(values).encode("utf-8", "surrogatepass")
        if len(values) == blob.count(b"\x00") + 1:
            # No embedded NULs: ship one separator-joined blob instead of
            # n length prefixes.
            out.append(struct.pack("<BI", 1, len(blob)))
            out.append(blob)
        else:
            blobs = [v.encode("utf-8", "surrogatepass") for v in values]
            out.append(struct.pack("<B", 0))
            out.append(struct.pack(f"<{n}I", *map(len, blobs)))
            out.append(b"".join(blobs))
        return
    if hint == TAG_I64 and all(
        type(v) is int and _I64_MIN <= v <= _I64_MAX for v in values
    ):
        out.append(_PACKED_I64)
        out.append(struct.pack(f"<{n}q", *values))
        return
    tag = column_tag(values, hint)
    if tag == TAG_PICKLE:
        out.append(struct.pack("<B", TAG_PICKLE))
        out.append(dumps_oob(list(values)))
        return
    has_none = None in values
    out.append(struct.pack("<BB", tag, int(has_none)))
    if has_none:
        bitmap = bytearray((n + 7) // 8)
        for index, value in enumerate(values):
            if value is None:
                bitmap[index >> 3] |= 1 << (index & 7)
        out.append(bytes(bitmap))
    if tag == TAG_I64:
        out.append(struct.pack(
            f"<{n}q", *(0 if value is None else value for value in values)
        ))
    elif tag == TAG_F64:
        out.append(struct.pack(
            f"<{n}d", *(0.0 if value is None else value for value in values)
        ))
    elif tag == TAG_BOOL:
        out.append(bytes(
            0 if value is None else int(value) for value in values
        ))
    else:  # TAG_STR
        blobs = [
            b"" if value is None
            else value.encode("utf-8", "surrogatepass")
            for value in values
        ]
        out.append(struct.pack("<B", 0))
        out.append(struct.pack(f"<{n}I", *map(len, blobs)))
        out.append(b"".join(blobs))


def unpack_column(
    view: memoryview, offset: int, n: int
) -> tuple[list, int]:
    """Inverse of :func:`pack_column`; returns ``(values, next_offset)``.

    A damaged column raises :class:`FrameCodecError` and nothing else.
    """
    try:
        (tag,) = struct.unpack_from("<B", view, offset)
        offset += 1
        if tag == TAG_PICKLE:
            values, offset = loads_oob(view, offset)
            if not isinstance(values, list) or len(values) != n:
                raise FrameCodecError("pickle column has wrong row count")
            return values, offset
        if tag not in (TAG_I64, TAG_F64, TAG_BOOL, TAG_STR):
            raise FrameCodecError(f"unknown column tag {tag}")
        (has_none,) = struct.unpack_from("<B", view, offset)
        offset += 1
        bitmap = None
        if has_none:
            bitmap = view[offset:offset + (n + 7) // 8]
            if len(bitmap) != (n + 7) // 8:
                raise FrameCodecError("truncated NULL bitmap")
            offset += (n + 7) // 8
        if tag == TAG_I64:
            raw: Sequence = struct.unpack_from(f"<{n}q", view, offset)
            offset += 8 * n
        elif tag == TAG_F64:
            raw = struct.unpack_from(f"<{n}d", view, offset)
            offset += 8 * n
        elif tag == TAG_BOOL:
            raw = [bool(b) for b in bytes(view[offset:offset + n])]
            if len(raw) != n:
                raise FrameCodecError("truncated bool column")
            offset += n
        else:  # TAG_STR
            (joined,) = struct.unpack_from("<B", view, offset)
            offset += 1
            if joined:
                (blob_len,) = struct.unpack_from("<I", view, offset)
                offset += 4
                blob = view[offset:offset + blob_len]
                if len(blob) != blob_len:
                    raise FrameCodecError("truncated string column")
                offset += blob_len
                raw = bytes(blob).decode("utf-8", "surrogatepass").split("\x00")
                if len(raw) != n:
                    raise FrameCodecError(
                        "string column separator count mismatch"
                    )
            else:
                lengths = struct.unpack_from(f"<{n}I", view, offset)
                offset += 4 * n
                total = sum(lengths)
                blob = bytes(view[offset:offset + total])
                if len(blob) != total:
                    raise FrameCodecError("truncated string column")
                offset += total
                raw = []
                position = 0
                for length in lengths:
                    raw.append(
                        blob[position:position + length].decode(
                            "utf-8", "surrogatepass"
                        )
                    )
                    position += length
    except struct.error as exc:
        raise FrameCodecError(f"truncated column data: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FrameCodecError(f"corrupt string column: {exc}") from exc
    if bitmap is None:
        return list(raw), offset
    values = list(raw)
    for index in range(n):
        if bitmap[index >> 3] & (1 << (index & 7)):
            values[index] = None
    return values, offset


# ---------------------------------------------------------------------------
# ColumnBatch
# ---------------------------------------------------------------------------


class ColumnBatch:
    """A schema-typed batch of stream rows stored column-wise.

    ``columns[j][i]`` is field ``j`` of row ``i``; ``timestamps[i]`` is
    row ``i``'s event timestamp.  Rows within a batch must already be in
    timestamp order — the ingestion paths enforce the same monotonicity
    contract as scalar pushes.
    """

    __slots__ = ("schema", "columns", "timestamps")

    def __init__(
        self,
        schema: Schema,
        columns: Sequence[Sequence[Any]],
        timestamps: Sequence[float],
    ) -> None:
        if len(columns) != len(schema):
            raise SchemaError(
                f"{len(columns)} columns for {len(schema)}-column "
                f"schema {schema!r}"
            )
        n = len(timestamps)
        for position, column in enumerate(columns):
            if len(column) != n:
                raise SchemaError(
                    f"column {schema.names[position]!r} has {len(column)} "
                    f"values for {n} timestamps"
                )
        self.schema = schema
        self.columns = tuple(columns)
        self.timestamps = [float(ts) for ts in timestamps]

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        records: Iterable[tuple[Mapping[str, Any] | Sequence[Any], float]],
    ) -> "ColumnBatch":
        """Build a batch from ``(values, ts)`` records (mapping or positional).

        Applies the same schema validation as the scalar ingestion path
        (:meth:`~repro.dsms.streams.Stream.batch_ingester`): mappings must
        not carry unknown fields (missing ones become None), positional
        rows must match the schema width.
        """
        names = schema.names
        n_cols = len(names)
        covers = schema.covers
        columns: list[list[Any]] = [[] for _ in range(n_cols)]
        # Bound appends, so no row is held as a tuple: a tuple per row kept
        # until a transpose wakes the cyclic GC over all the caller holds.
        appends = [column.append for column in columns]
        plan = list(zip(appends, names))
        timestamps: list[float] = []
        for values, ts in records:
            if type(values) is not tuple and (
                type(values) is dict or isinstance(values, _MappingABC)
            ):
                if not covers(values.keys()):
                    extra = set(values) - set(names)
                    raise SchemaError(
                        f"unknown fields {sorted(extra)} for {schema!r}"
                    )
                get = values.get
                for append, name in plan:
                    append(get(name))
            else:
                row = tuple(values)
                if len(row) != n_cols:
                    raise SchemaError(
                        f"tuple has {len(row)} values for {n_cols}-column "
                        f"schema {schema!r}"
                    )
                for append, value in zip(appends, row):
                    append(value)
            timestamps.append(float(ts))
        return cls(schema, columns, timestamps)

    def __len__(self) -> int:
        return len(self.timestamps)

    def row(self, index: int) -> tuple:
        """Positional values of row *index* (schema order)."""
        return tuple(column[index] for column in self.columns)

    def rows(self) -> Iterator[tuple[tuple, float]]:
        """Iterate ``(values, ts)`` records — the scalar-path view."""
        if not self.columns:
            return iter(self.to_records())
        return zip(zip(*self.columns), self.timestamps)

    def to_records(self) -> list[tuple[tuple, float]]:
        """Materialize every row as a ``(values, ts)`` record."""
        if not self.columns:
            return [((), ts) for ts in self.timestamps]
        return list(zip(zip(*self.columns), self.timestamps))

    def __repr__(self) -> str:
        return (
            f"ColumnBatch({len(self)} rows x {len(self.schema)} cols, "
            f"schema={self.schema!r})"
        )
