"""Trace persistence: CSV import/export for reading streams.

Real deployments capture reader output as flat files; this module moves
traces between disk and the engine:

* :func:`save_trace` — write ``(stream, row, ts)`` records to CSV, one
  file per format: a ``stream`` column, a ``ts`` column, and the union of
  the row fields;
* :func:`load_trace` — read them back, coercing values against the
  engine's declared stream schemas (so ints stay ints);
* :func:`replay` — feed a loaded trace into an engine, optionally scaled
  (time-compressed replays for testing, as middleware test rigs do).

The format is deliberately trivial — one reading per line — so traces are
diffable and editable by hand.
"""

from __future__ import annotations

import csv
import math
import sys
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from ..dsms.engine import Engine
from ..dsms.errors import EslSemanticError
from ..dsms.schema import FieldType

TraceRecord = tuple[str, dict[str, Any], float]

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
#: One stream's decode plan: ``(field, column, parser or None)`` entries.
_Plan = list[tuple[str, int, "Callable[[str], Any] | None"]]
_INF = math.inf


def save_trace(trace: Iterable[TraceRecord], path: str | Path) -> int:
    """Write *trace* to *path* as CSV.  Returns the record count.

    Columns are ``stream``, ``ts``, then the sorted union of all row
    fields; rows missing a field leave it empty.
    """
    records = list(trace)
    fields: set[str] = set()
    for __, row, __ts in records:
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

    With *engine* given, each row keeps the fields of its stream's
    declared schema, coerced to their types (unknown streams raise);
    without it, all values stay strings except ``ts``.  An empty cell
    loads as ``None`` whatever its type: CSV cannot tell ``""`` from
    NULL.  A missing, unparsable or non-finite ``ts`` raises
    :class:`EslSemanticError` naming the file and line.

    One pass: the first row of each stream binds a plan of ``(field,
    column, parser)`` entries, and every row after that is one loop over
    its plan.
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
        plans: dict[str, _Plan] = {}
        last = -sys.float_info.max  # the lowest finite ts, so -inf is not in order
        ordered = True
        for cells in reader:
            if not cells:
                continue
            if len(cells) < width:
                cells += [""] * (width - len(cells))
            stream_name = cells[stream_at]
            plan = plans.get(stream_name)
            if plan is None:
                plan = plans[stream_name] = _plan(columns, engine, stream_name)
            try:
                ts = float(cells[ts_at])
            except ValueError:
                raise EslSemanticError(
                    f"{path}, line {reader.line_num}: "
                    f"ts {cells[ts_at]!r} is not a number"
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
            row: dict[str, Any] = {}
            try:
                for name, at, parse in plan:
                    cell = cells[at]
                    row[name] = (parse(cell) if parse else cell) if cell else None
            except ValueError:
                _coerce_row(engine, stream_name, plan, cells)
                raise
            append((stream_name, row, ts))
    if not ordered:
        records.sort(key=itemgetter(2))
    return records


def _plan(
    columns: dict[str, int], engine: Engine | None, stream_name: str
) -> _Plan:
    """The ``(field, column, parser)`` entries one stream's rows decode by."""
    if engine is None:
        return [(name, at, None) for name, at in columns.items()]
    schema = engine.streams.get(stream_name).schema
    return [
        (name, at, _PARSERS.get(schema.fields[schema.position(name)].type))
        for name, at in columns.items()
        if name in schema
    ]


def _coerce_row(
    engine: Engine, stream_name: str, plan: _Plan, cells: list[str]
) -> None:
    """Re-decode a row a bound parser rejected through ``FieldType.coerce``,
    which raises the :class:`SchemaError` naming the bad value."""
    schema = engine.streams.get(stream_name).schema
    for name, at, __ in plan:
        schema.fields[schema.position(name)].type.coerce(cells[at] or None)


def replay(
    engine: Engine,
    trace: Iterable[TraceRecord],
    time_scale: float = 1.0,
    offset: float = 0.0,
) -> int:
    """Feed *trace* into *engine*, rescaling timestamps.

    ``time_scale=0.1`` compresses a 10-minute capture into one virtual
    minute; ``offset`` shifts the epoch (useful when appending a second
    capture after a first).  Returns the number of tuples pushed.
    """
    if not (0 < time_scale < math.inf):
        raise EslSemanticError("time_scale must be finite and positive")
    count = 0
    for stream, row, ts in trace:
        engine.push(stream, row, ts=offset + ts * time_scale)
        count += 1
    return count


def iter_stream(
    trace: Iterable[TraceRecord], stream: str
) -> Iterator[TraceRecord]:
    """Yield only the records of one stream (case-insensitive)."""
    wanted = stream.lower()
    for record in trace:
        if record[0].lower() == wanted:
            yield record
