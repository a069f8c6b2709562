"""Stream tuples.

A :class:`Tuple` is an immutable, schema-aware record with a timestamp and
the name of the stream it arrived on.  Values are stored positionally (the
schema provides name->position lookup), which keeps per-tuple overhead low —
important because benchmarks push hundreds of thousands of tuples through the
engine.

Tuples compare by (timestamp, sequence number) so that a heap of tuples pops
in arrival order even when timestamps tie; the engine assigns monotonically
increasing sequence numbers at ingestion.

Sequence numbering is *per engine*: each :class:`~repro.dsms.streams.StreamRegistry`
owns a counter, and every tuple delivered on one of its streams is stamped
from it (at construction for stream-built tuples, at first delivery for
standalone ones).  Tuples constructed standalone — outside any stream — fall
back to a module-level counter.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .errors import SchemaError
from .schema import Schema

_GLOBAL_SEQ = itertools.count()


def dict_rows(
    names: Sequence[str], rows: Iterable[Sequence[Any]]
) -> list[dict[str, Any]]:
    """Positional rows of one schema as ``{field: value}`` dicts, with the
    field *names* read once for the whole list rather than once per row."""
    return [dict(zip(names, values)) for values in rows]


class Tuple:
    """One record on a data stream.

    Attributes:
        schema: the :class:`Schema` describing the fields.
        values: positional field values.
        ts: event timestamp (seconds, on the engine's virtual clock).
        stream: name of the source stream (set by the engine at ingestion;
            empty string for tuples constructed standalone).
        seq: global arrival sequence number used to break timestamp ties.
    """

    __slots__ = ("schema", "values", "ts", "stream", "seq")

    def __init__(
        self,
        schema: Schema,
        values: Sequence[Any],
        ts: float,
        stream: str = "",
        seq: int | None = None,
    ) -> None:
        self.schema = schema
        self.values = tuple(values)
        if len(self.values) != len(schema):
            raise SchemaError(
                f"tuple has {len(self.values)} values for {len(schema)}-column "
                f"schema {schema!r}"
            )
        self.ts = float(ts)
        self.stream = stream
        self.seq = next(_GLOBAL_SEQ) if seq is None else seq

    @classmethod
    def trusted(
        cls, schema: Schema, values: Sequence[Any], ts: float,
        stream: str = "",
    ) -> "Tuple":
        """Construct without width validation or timestamp coercion.

        For compiled emit paths whose projection plan already guarantees a
        schema-width value list and a float timestamp — and for the shard
        transport, which rebuilds result tuples from decoded frames whose
        width the codec has already checked.  Otherwise identical to the
        checked constructor (fresh sequence number; *stream* defaults to
        unset).
        """
        tup = cls.__new__(cls)
        tup.schema = schema
        tup.values = tuple(values)
        tup.ts = ts
        tup.stream = stream
        tup.seq = next(_GLOBAL_SEQ)
        return tup

    @classmethod
    def from_mapping(
        cls,
        schema: Schema,
        mapping: Mapping[str, Any],
        ts: float,
        stream: str = "",
        seq: int | None = None,
    ) -> "Tuple":
        """Build a tuple from a field-name mapping, filling gaps with None."""
        get = mapping.get
        values = [get(name) for name in schema.names]
        if not schema.covers(mapping.keys()):
            extra = set(mapping) - set(schema.names)
            raise SchemaError(f"unknown fields {sorted(extra)} for {schema!r}")
        return cls(schema, values, ts, stream, seq)

    def __getitem__(self, name: str) -> Any:
        return self.values[self.schema.position(name)]

    def get(self, name: str, default: Any = None) -> Any:
        if name in self.schema:
            return self.values[self.schema.position(name)]
        return default

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self.schema

    def as_dict(self) -> dict[str, Any]:
        """Return the tuple as a plain ``{field: value}`` dict."""
        return dict(zip(self.schema.names, self.values))

    def replace(self, **updates: Any) -> "Tuple":
        """Return a copy with some field values replaced."""
        values = list(self.values)
        for name, value in updates.items():
            values[self.schema.position(name)] = value
        return Tuple(self.schema, values, self.ts, self.stream)

    def with_ts(self, ts: float) -> "Tuple":
        """Return a copy carrying a different timestamp."""
        return Tuple(self.schema, self.values, ts, self.stream)

    def project(self, names: Sequence[str], schema: Schema | None = None) -> "Tuple":
        """Return a new tuple containing only *names* (ordered)."""
        out_schema = schema if schema is not None else self.schema.project(names)
        values = [self.values[self.schema.position(name)] for name in names]
        return Tuple(out_schema, values, self.ts, self.stream)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    # Ordering: by timestamp, ties broken by arrival sequence.  This is what
    # "joint tuple history" union ordering in the paper relies on.
    def __lt__(self, other: "Tuple") -> bool:
        ts = self.ts
        other_ts = other.ts
        if ts != other_ts:
            return ts < other_ts
        return self.seq < other.seq

    def __le__(self, other: "Tuple") -> bool:
        ts = self.ts
        other_ts = other.ts
        if ts != other_ts:
            return ts < other_ts
        return self.seq <= other.seq

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tuple):
            return NotImplemented
        return (
            self.schema == other.schema
            and self.values == other.values
            and self.ts == other.ts
            and self.stream == other.stream
        )

    def __hash__(self) -> int:
        return hash((self.schema, self.values, self.ts, self.stream))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.schema.names, self.values)
        )
        source = f" @{self.stream}" if self.stream else ""
        return f"Tuple({pairs}, ts={self.ts:g}{source})"
