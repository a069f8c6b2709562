"""Trace persistence: CSV import/export for reading streams.

Real deployments capture reader output as flat files; this module moves
traces between disk and the engine:

* :func:`save_trace` — write ``(stream, row, ts)`` records to CSV, one
  file per format: a ``stream`` column, a ``ts`` column, and the union of
  the row fields;
* :func:`load_trace` — read them back as schema-ordered value tuples,
  coerced against the engine's declared stream schemas (so ints stay
  ints);
* :func:`replay` — feed a loaded trace into an engine, optionally scaled
  (time-compressed replays for testing, as middleware test rigs do).

The format is deliberately trivial — one reading per line — so traces are
diffable and editable by hand.
"""

from __future__ import annotations

import csv
import math
import sys
from collections.abc import Mapping
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from ..dsms.engine import Engine
from ..dsms.errors import EslSemanticError
from ..dsms.schema import FieldType

#: ``(stream, values, ts)``: *values* is a field dict or a positional
#: tuple in schema order (what :func:`load_trace` returns with an engine).
TraceRecord = tuple[str, dict[str, Any] | tuple[Any, ...], float]

#: Reserved CSV column names.
STREAM_COLUMN = "stream"
TS_COLUMN = "ts"

#: Parser bound per declared type; a type absent here keeps the cell string.
_PARSERS: dict[FieldType, Callable[[str], Any]] = {
    FieldType.INT: int,
    FieldType.FLOAT: float,
    FieldType.TIMESTAMP: float,
    FieldType.BOOL: FieldType.BOOL.coerce,
}
#: One stream's decode state: its interned name, its plan, and the values
#: of its previous row (``None`` without an engine).  With an engine the
#: plan is ``(position, column, parser or None)`` per schema field in the
#: header; without one it is ``(field, column)`` in header order.
_Stream = tuple[str, list[tuple[Any, ...]], list[Any] | None]
_INF = math.inf


def save_trace(trace: Iterable[TraceRecord], path: str | Path) -> int:
    """Write *trace* to *path* as CSV.  Returns the record count.

    Columns are ``stream``, ``ts``, then the sorted union of all row
    fields; rows missing a field leave it empty.  Rows must be field
    dicts: a positional row carries no field names to write.
    """
    records = list(trace)
    fields: set[str] = set()
    for __, row, __ts in records:
        if not isinstance(row, Mapping):
            raise EslSemanticError(
                f"save_trace needs field-dict rows, got {type(row).__name__}"
            )
        if STREAM_COLUMN in row or TS_COLUMN in row:
            raise EslSemanticError(
                f"row fields may not be named {STREAM_COLUMN!r} or {TS_COLUMN!r}"
            )
        fields.update(row)
    header = [STREAM_COLUMN, TS_COLUMN, *sorted(fields)]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for stream, row, ts in records:
            writer.writerow(
                [stream, repr(ts) if isinstance(ts, float) else ts]
                + [_cell(row.get(field)) for field in sorted(fields)]
            )
    return len(records)


def _cell(value: Any) -> Any:
    return "" if value is None else value


def load_trace(
    path: str | Path, engine: Engine | None = None
) -> list[TraceRecord]:
    """Read a CSV trace written by :func:`save_trace`, sorted by ``ts``.

    With *engine* given, each record is ``(stream, values, ts)`` with
    *values* a tuple in the order of the stream's declared schema, each
    cell coerced to its field's type; a schema field the header lacks
    loads as ``None``, a column the schema lacks is dropped, and an
    unknown stream raises.  Without an engine, *values* is a dict of
    strings in header order.  An empty cell loads as ``None`` whatever
    its type: CSV cannot tell ``""`` from NULL.  A missing, unparsable
    or non-finite ``ts`` raises :class:`EslSemanticError` naming the
    file and line.

    One pass: the first row of each stream binds its decode plan, and
    every row after that is one loop over the plan.  Repeated cells
    share one object: every record of a stream holds the same name
    string, a ``str`` / ``any`` cell equal to the same field's cell in
    the stream's previous row reuses that row's value, and a ``float``
    / ``timestamp`` cell whose text equals the row's ``ts`` cell reuses
    the ``ts`` float.  No other float is shared, so two NaN cells are
    never one object (dict-keyed probes match a key by identity first).
    """
    records: list[TraceRecord] = []
    append = records.append
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or STREAM_COLUMN not in header:
            raise EslSemanticError(f"{path}: not a trace file (no stream column)")
        if TS_COLUMN not in header:
            raise EslSemanticError(f"{path}: not a trace file (no ts column)")
        # A repeated name keeps its first position and its last column.
        columns = {name: at for at, name in enumerate(header)}
        stream_at = columns.pop(STREAM_COLUMN)
        ts_at = columns.pop(TS_COLUMN)
        width = len(header)
        streams: dict[str, _Stream] = {}
        last = -sys.float_info.max  # the lowest finite ts, so -inf is not in order
        ordered = True
        for cells in reader:
            if not cells:
                continue
            if len(cells) < width:
                cells += [""] * (width - len(cells))
            stream_name = cells[stream_at]
            if stream_name not in streams:
                streams[stream_name] = _bind(columns, engine, stream_name)
            name, plan, values = streams[stream_name]
            ts_cell = cells[ts_at]
            try:
                ts = float(ts_cell)
            except ValueError:
                raise EslSemanticError(
                    f"{path}, line {reader.line_num}: "
                    f"ts {ts_cell!r} is not a number"
                ) from None
            # NaN fails every comparison, and ts - ts is 0 only when finite.
            if last <= ts < _INF:
                last = ts
            elif ts - ts == 0.0:
                ordered = False
            else:
                raise EslSemanticError(
                    f"{path}, line {reader.line_num}: ts {ts!r} is not finite"
                )
            if values is None:
                row: dict[str, Any] = {}
                for field, at in plan:
                    row[field] = cells[at] or None
                append((name, row, ts))
                continue
            # *values* still holds the previous row, so an unchanged text
            # cell keeps its object; the record takes a tuple copy.
            try:
                for position, at, parse in plan:
                    cell = cells[at]
                    if not cell:
                        values[position] = None
                    elif parse is None:
                        if cell != values[position]:
                            values[position] = cell
                    elif parse is float:
                        values[position] = ts if cell == ts_cell else float(cell)
                    else:
                        values[position] = parse(cell)
            except ValueError:
                _coerce_row(engine, name, plan, cells)
                raise
            append((name, tuple(values), ts))
    if not ordered:
        records.sort(key=itemgetter(2))
    return records


def _bind(
    columns: dict[str, int], engine: Engine | None, stream_name: str
) -> _Stream:
    """The decode state one stream's rows start from."""
    if engine is None:
        return stream_name, list(columns.items()), None
    schema = engine.streams.get(stream_name).schema
    plan = []
    for name, at in columns.items():
        if name in schema:
            position = schema.position(name)
            plan.append((position, at, _PARSERS.get(schema.fields[position].type)))
    return stream_name, plan, [None] * len(schema)


def _coerce_row(
    engine: Engine, stream_name: str, plan: list[tuple[Any, ...]],
    cells: list[str],
) -> None:
    """Re-decode a row a bound parser rejected through ``FieldType.coerce``,
    which raises the :class:`SchemaError` naming the bad value."""
    fields = engine.streams.get(stream_name).schema.fields
    for position, at, __ in plan:
        fields[position].type.coerce(cells[at] or None)


def replay(
    engine: Engine,
    trace: Iterable[TraceRecord],
    time_scale: float = 1.0,
    offset: float = 0.0,
) -> int:
    """Feed *trace* into *engine* through :meth:`Engine.run_trace`,
    rescaling timestamps.

    ``time_scale=0.1`` compresses a 10-minute capture into one virtual
    minute; ``offset`` shifts the epoch (useful when appending a second
    capture after a first).  Timers due at or before a record's rescaled
    ``ts`` fire before it is delivered, as with one :meth:`Engine.push`
    per record.  Returns the number of tuples pushed.
    """
    if not (0 < time_scale < math.inf):
        raise EslSemanticError("time_scale must be finite and positive")
    return engine.run_trace(
        (stream, values, offset + ts * time_scale)
        for stream, values, ts in trace
    )


def iter_stream(
    trace: Iterable[TraceRecord], stream: str
) -> Iterator[TraceRecord]:
    """Yield only the records of one stream (case-insensitive)."""
    wanted = stream.lower()
    for record in trace:
        if record[0].lower() == wanted:
            yield record
