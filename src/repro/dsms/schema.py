"""Stream and table schemas.

A :class:`Schema` declares an ordered list of named, typed fields.  Schemas
are immutable and hashable; two schema objects with the same fields compare
equal, which lets derived streams share schema instances freely.

The type system is deliberately small — the paper's examples only need
strings, numbers, and timestamps — but validation is strict so that workload
generators and the engine catch shape errors early instead of producing
silently wrong joins.
"""

from __future__ import annotations

import enum
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import SchemaError


class FieldType(enum.Enum):
    """Logical field types supported by the DSMS."""

    INT = "int"
    FLOAT = "float"
    STR = "str"
    BOOL = "bool"
    TIMESTAMP = "timestamp"
    ANY = "any"

    def accepts(self, value: Any) -> bool:
        """Return True when *value* is a legal instance of this type."""
        if value is None:
            return True  # SQL NULL is legal for every type
        if self is FieldType.INT:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is FieldType.FLOAT:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self is FieldType.STR:
            return isinstance(value, str)
        if self is FieldType.BOOL:
            return isinstance(value, bool)
        if self is FieldType.TIMESTAMP:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        return True  # ANY

    def coerce(self, value: Any) -> Any:
        """Best-effort coercion of *value* into this type.

        Used when loading external data (e.g. CSV traces); raises
        :class:`SchemaError` when the value cannot be represented.
        """
        if value is None:
            return None
        try:
            if self is FieldType.INT:
                return int(value)
            if self in (FieldType.FLOAT, FieldType.TIMESTAMP):
                return float(value)
            if self is FieldType.STR:
                return str(value)
            if self is FieldType.BOOL:
                if isinstance(value, str):
                    lowered = value.strip().lower()
                    if lowered in ("true", "t", "1", "yes"):
                        return True
                    if lowered in ("false", "f", "0", "no"):
                        return False
                    raise ValueError(value)
                return bool(value)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"cannot coerce {value!r} to {self.value}") from exc
        return value

    @property
    def wire_format(self) -> str | None:
        """Preferred fixed-width wire encoding for the shard transport.

        A ``struct`` format character for fixed-width types, ``"U"`` for
        length-prefixed UTF-8 strings, or ``None`` when values of this
        type have no single wire shape (``ANY``) and must be pickled.
        The transport treats this as a *hint*: the declared type names
        the expected column encoding, and the codec still verifies each
        batch (``accepts`` is deliberately looser than the wire format —
        e.g. FLOAT admits ints, which pack as ``q`` instead).
        """
        return _WIRE_FORMATS.get(self)


#: FieldType -> wire format hint (see :attr:`FieldType.wire_format`).
_WIRE_FORMATS: Mapping[FieldType, str] = {
    FieldType.INT: "q",
    FieldType.FLOAT: "d",
    FieldType.TIMESTAMP: "d",
    FieldType.BOOL: "B",
    FieldType.STR: "U",
}


#: Mapping from the type names accepted in ESL-EV DDL to FieldType.
TYPE_NAMES: Mapping[str, FieldType] = {
    "int": FieldType.INT,
    "integer": FieldType.INT,
    "bigint": FieldType.INT,
    "float": FieldType.FLOAT,
    "real": FieldType.FLOAT,
    "double": FieldType.FLOAT,
    "str": FieldType.STR,
    "string": FieldType.STR,
    "varchar": FieldType.STR,
    "char": FieldType.STR,
    "text": FieldType.STR,
    "bool": FieldType.BOOL,
    "boolean": FieldType.BOOL,
    "timestamp": FieldType.TIMESTAMP,
    "time": FieldType.TIMESTAMP,
    "any": FieldType.ANY,
}


class Field:
    """A single named, typed column of a schema."""

    __slots__ = ("name", "type")

    def __init__(self, name: str, type: FieldType = FieldType.ANY) -> None:
        if not name or not name.replace("_", "a").isalnum():
            raise SchemaError(f"invalid field name: {name!r}")
        self.name = name
        self.type = type

    def __repr__(self) -> str:
        return f"Field({self.name!r}, {self.type.value})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Field):
            return NotImplemented
        return self.name == other.name and self.type == other.type

    def __hash__(self) -> int:
        return hash((self.name, self.type))


class Schema:
    """An ordered, immutable collection of :class:`Field` objects.

    Supports fast name->position lookup, which the tuple representation uses
    to store values positionally rather than in per-tuple dicts.
    """

    __slots__ = ("fields", "_index", "_names", "_hash")

    def __init__(self, fields: Iterable[Field | tuple[str, FieldType] | str]) -> None:
        normalized: list[Field] = []
        for spec in fields:
            if isinstance(spec, Field):
                normalized.append(spec)
            elif isinstance(spec, str):
                normalized.append(Field(spec))
            else:
                name, ftype = spec
                normalized.append(Field(name, ftype))
        self.fields: tuple[Field, ...] = tuple(normalized)
        self._index: dict[str, int] = {}
        for pos, field in enumerate(self.fields):
            if field.name in self._index:
                raise SchemaError(f"duplicate field name: {field.name!r}")
            self._index[field.name] = pos
        self._names: tuple[str, ...] = tuple(f.name for f in self.fields)
        self._hash = hash(self.fields)

    @classmethod
    def of(cls, *names: str) -> "Schema":
        """Shorthand for an all-ANY schema: ``Schema.of('reader_id', 'tag_id')``."""
        return cls(names)

    @classmethod
    def parse(cls, spec: str) -> "Schema":
        """Parse ``"name type, name type"`` DDL column lists.

        The type is optional and defaults to ``any``:

        >>> Schema.parse("reader_id str, tag_id str, read_time timestamp")
        Schema(reader_id str, tag_id str, read_time timestamp)
        """
        fields: list[Field] = []
        for part in spec.split(","):
            words = part.split()
            if not words:
                continue
            if len(words) == 1:
                fields.append(Field(words[0]))
            elif len(words) == 2:
                type_name = words[1].lower()
                if type_name not in TYPE_NAMES:
                    raise SchemaError(f"unknown type {words[1]!r} in {part!r}")
                fields.append(Field(words[0], TYPE_NAMES[type_name]))
            else:
                raise SchemaError(f"malformed column spec: {part!r}")
        return cls(fields)

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def covers(self, names: Iterable[str]) -> bool:
        """True when every name in *names* is a field of this schema.

        ``dict.keys()`` views and sets compare directly without building an
        intermediate set, keeping per-tuple mapping validation allocation-free.
        The set-likeness probe is duck-typed (``<=`` raises TypeError for
        plain iterables) rather than an ABC isinstance check, which would put
        a ``__subclasscheck__`` dispatch on the per-tuple ingestion path.
        """
        keys = self._index.keys()
        try:
            return names <= keys
        except TypeError:
            return all(name in keys for name in names)

    def position(self, name: str) -> int:
        """Return the 0-based position of *name*, raising SchemaError if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                f"unknown field {name!r}; schema has {', '.join(self.names)}"
            ) from None

    def key_getter(self, names: Sequence[str]) -> Callable[[Sequence[Any]], tuple]:
        """A function reading the *names* columns of a positional row as a
        tuple: the key a hash index files the row under."""
        positions = [self.position(name) for name in names]
        if len(positions) == 1:
            (position,) = positions
            return lambda values: (values[position],)
        return itemgetter(*positions)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self.fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.fields == other.fields

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        cols = ", ".join(f"{f.name} {f.type.value}" for f in self.fields)
        return f"Schema({cols})"

    def validate(self, values: Sequence[Any]) -> None:
        """Raise :class:`SchemaError` unless *values* conforms positionally."""
        if len(values) != len(self.fields):
            raise SchemaError(
                f"expected {len(self.fields)} values, got {len(values)}"
            )
        for field, value in zip(self.fields, values):
            if not field.type.accepts(value):
                raise SchemaError(
                    f"field {field.name!r} expects {field.type.value}, "
                    f"got {value!r}"
                )

    def coerce_row(self, values: Sequence[Any]) -> tuple[Any, ...]:
        """Coerce a positional row into the schema's types."""
        if len(values) != len(self.fields):
            raise SchemaError(
                f"expected {len(self.fields)} values, got {len(values)}"
            )
        return tuple(
            field.type.coerce(value) for field, value in zip(self.fields, values)
        )

    def project(self, names: Sequence[str]) -> "Schema":
        """Return a new schema containing only *names*, in the given order."""
        return Schema(self.fields[self.position(name)] for name in names)

    def rename(self, mapping: Mapping[str, str]) -> "Schema":
        """Return a new schema with fields renamed per *mapping*."""
        return Schema(
            Field(mapping.get(field.name, field.name), field.type)
            for field in self.fields
        )
