"""Persistent in-memory tables.

The paper's stream–DB spanning queries (Example 2: location tracking) need a
database table that continuous queries can read (context retrieval,
correlated NOT EXISTS) and write (INSERT from a stream).  :class:`Table` is
a small row store with optional hash indexes; it is deliberately not a full
DBMS — it stands in for the persistent database the ESL system attaches to,
preserving the query semantics the paper exercises.

Rows are plain tuples validated against the table's schema.  Secondary hash
indexes accelerate the equality probes the paper's queries use
(``WHERE tagid = tid AND location = loc``); the query compiler creates one
on the correlation keys of every table EXISTS sub-query it compiles.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import SchemaError, UnknownTableError
from .schema import Schema
from .tuples import Tuple


class Table:
    """A schema'd, indexable, in-memory row store."""

    def __init__(self, name: str, schema: Schema | str) -> None:
        self.name = name
        self.schema = Schema.parse(schema) if isinstance(schema, str) else schema
        self._rows: list[tuple[Any, ...]] = []
        # Index columns in sorted order -> (key getter, key -> row positions).
        self._indexes: dict[
            tuple[str, ...],
            tuple[Callable[[Sequence[Any]], tuple], dict[tuple, list[int]]],
        ] = {}

    # -- writes ---------------------------------------------------------

    def insert(self, values: Sequence[Any]) -> None:
        """Append one row after schema validation."""
        self.schema.validate(values)
        row = tuple(values)
        position = len(self._rows)
        self._rows.append(row)
        for key_of, index in self._indexes.values():
            index[key_of(row)].append(position)

    def insert_dict(self, mapping: Mapping[str, Any]) -> None:
        """Append a row given as ``{column: value}``; missing columns are NULL."""
        extra = set(mapping) - set(self.schema.names)
        if extra:
            raise SchemaError(f"unknown columns {sorted(extra)} for {self.name!r}")
        self.insert([mapping.get(name) for name in self.schema.names])

    def insert_tuple(self, tup: Tuple) -> None:
        """Append a stream tuple's values (schemas must align by name)."""
        self.insert([tup.get(name) for name in self.schema.names])

    def delete_where(self, predicate: Callable[[tuple[Any, ...]], bool]) -> int:
        """Remove rows matching *predicate*; rebuilds indexes.  Returns count."""
        before = len(self._rows)
        self._rows = [row for row in self._rows if not predicate(row)]
        removed = before - len(self._rows)
        if removed:
            self._rebuild_indexes()
        return removed

    def update_where(
        self,
        predicate: Callable[[tuple[Any, ...]], bool],
        updates: Mapping[str, Any] | Callable[[tuple[Any, ...]], Mapping[str, Any]],
    ) -> int:
        """Set *updates* on every row matching *predicate*.  Returns count.

        *updates* maps columns to new values, or is a function from a row
        to such a mapping.  One pass: every row is matched and given its
        new values from its own pre-update contents, and then all of them
        are written at once, so duplicate rows are each updated once.
        Updated rows are validated like inserts (so an indexed column never
        holds a value its hash index cannot file); a rejected update leaves
        the table unchanged.
        """
        assign = updates if callable(updates) else lambda row: updates
        position = self.schema.position
        updated: list[tuple[int, tuple[Any, ...]]] = []
        for i, row in enumerate(self._rows):
            if predicate(row):
                new_row = list(row)
                for name, value in assign(row).items():
                    new_row[position(name)] = value
                self.schema.validate(new_row)
                updated.append((i, tuple(new_row)))
        for i, row in updated:
            self._rows[i] = row
        if updated:
            self._rebuild_indexes()
        return len(updated)

    def clear(self) -> None:
        self._rows.clear()
        for _key_of, index in self._indexes.values():
            index.clear()

    # -- indexes --------------------------------------------------------

    def create_index(self, *columns: str) -> tuple[str, ...]:
        """Build (or rebuild) a hash index on *columns*.

        Returns the index's name: its columns in sorted order, the order
        :meth:`bucket` keys and :meth:`lookup` criteria are matched in.
        """
        name = tuple(sorted(columns))
        key_of = self.schema.key_getter(name)
        index: dict[tuple, list[int]] = defaultdict(list)
        for position, row in enumerate(self._rows):
            index[key_of(row)].append(position)
        self._indexes[name] = (key_of, index)
        return name

    def _rebuild_indexes(self) -> None:
        for columns in list(self._indexes):
            self.create_index(*columns)

    # -- reads ----------------------------------------------------------

    def rows(self) -> Iterator[tuple[Any, ...]]:
        return iter(self._rows)

    def scan(self) -> Iterator[dict[str, Any]]:
        """Rows as dicts (convenient for assertions and reports)."""
        names = self.schema.names
        for row in self._rows:
            yield dict(zip(names, row))

    def lookup(self, **criteria: Any) -> Iterator[dict[str, Any]]:
        """Equality lookup; uses a matching index when one exists.

        ``table.lookup(tagid='t1', location='dock')`` yields matching rows
        as dicts.
        """
        columns = tuple(sorted(criteria))
        entry = self._indexes.get(columns)
        names = self.schema.names
        if entry is not None:
            wanted = tuple(criteria[column] for column in columns)
            for position in entry[1].get(wanted, ()):
                yield dict(zip(names, self._rows[position]))
            return
        positions = {self.schema.position(c): v for c, v in criteria.items()}
        for row in self._rows:
            if all(row[pos] == value for pos, value in positions.items()):
                yield dict(zip(names, row))

    def exists(self, **criteria: Any) -> bool:
        """True when at least one row matches the equality criteria."""
        return next(self.lookup(**criteria), None) is not None

    def as_tuples(self, ts: float = 0.0) -> Iterator[Tuple]:
        """Rows as stream tuples (for table scans inside queries)."""
        for row in self._rows:
            yield Tuple(self.schema, row, ts, self.name)

    def bucket(self, columns: tuple[str, ...], key: tuple) -> list[Tuple]:
        """The rows filed under *key* in the index named *columns* (see
        :meth:`create_index`), as :meth:`as_tuples` would yield them.

        Callers go through the table on every probe and never keep the
        index: :meth:`create_index`, :meth:`delete_where`,
        :meth:`update_where` and :meth:`restore` replace it.  Raises
        ``TypeError`` for an unhashable *key*.
        """
        rows = self._rows
        schema, name = self.schema, self.name
        return [
            Tuple(schema, rows[position], 0.0, name)
            for position in self._indexes[columns][1].get(key, ())
        ]

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self._rows)} rows)"


class TableRegistry:
    """Name -> :class:`Table` catalog (case-insensitive)."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    def create(self, name: str, schema: Schema | str | Iterable[str]) -> Table:
        key = name.lower()
        if key in self._tables:
            raise SchemaError(f"table {name!r} already exists")
        if not isinstance(schema, (Schema, str)):
            schema = Schema(schema)
        table = Table(name, schema)  # type: ignore[arg-type]
        self._tables[key] = table
        return table

    def get(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            known = ", ".join(sorted(self._tables)) or "<none>"
            raise UnknownTableError(
                f"unknown table {name!r}; registered: {known}"
            ) from None

    def drop(self, name: str) -> None:
        self._tables.pop(name.lower(), None)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._tables

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)
