"""Storage backend interface.

A backend manages *stream tables*: append-only sequences of stream elements
with a retention bound (time- or count-based, mirroring GSN's
``<storage size="...">`` directive). Every table keeps its retained rows
in a :class:`~repro.streams.history.RowHistory` — the structure input
windows use too — and reads copy them to a
:class:`~repro.sqlengine.relation.Relation`, whatever the backend; a
persistent backend is a write-through sink behind those rows.
"""

from __future__ import annotations

import abc
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.datatypes import DataType
from repro.exceptions import StorageError
from repro.sqlengine.relation import Relation
from repro.streams.element import StreamElement
from repro.streams.history import RetentionPolicy, RowHistory
from repro.streams.schema import StreamSchema

Row = Tuple[Any, ...]

#: Values as SQLite hands them back: REAL stores NaN as NULL.
_DURABLE: Dict[DataType, Callable[[Any], Any]] = {
    DataType.DOUBLE: lambda value: None if value != value else float(value),
    DataType.BINARY: bytes,
}


class StreamTable:
    """One stream table: a history of rows ``(fields..., timed)`` in the
    form SQLite stores them, which every read copies. Each append
    advances the history's horizon to its stamp, so time retention
    evicts every row stamped at or before the newest stamp minus the
    span, wherever it sits."""

    def __init__(self, name: str, schema: StreamSchema,
                 retention: RetentionPolicy, lock: threading.Lock) -> None:
        self.name = name
        self.schema = schema
        self.retention = retention
        self.appended = 0
        self._fields = tuple(schema.field_names)
        self._durable = [(i, _DURABLE[field.type])
                         for i, field in enumerate(schema)
                         if field.type in _DURABLE]
        # An SQLite table passes its connection lock, so the durable
        # write and the rows change in one critical section.
        self._lock = lock
        self.history = RowHistory(  # guarded-by: StreamTable._lock
            self._fields, retention)
        self.columns = self.history.columns

    def append(self, element: StreamElement) -> None:
        """Store one element (must be timestamped)."""
        if element.timed is None:
            raise StorageError("cannot store an unstamped element")
        values = self.schema.validate(element.values)
        cells = [values[field] for field in self._fields]
        for position, durable in self._durable:
            if cells[position] is not None:
                cells[position] = durable(cells[position])
        cells.append(element.timed)
        row = tuple(cells)
        with self._lock:
            self._persist(row)
            self.appended += 1
            self.history.extend((row,))
            self.history.advance(element.timed)

    def _persist(self, row: Row) -> None:  # requires-lock: _lock
        """Make ``row`` durable; if this raises, nothing is retained."""

    def _load(self, rows: List[Row]) -> None:  # requires-lock: _lock
        """Adopt rows the backend already retains, oldest first."""
        self.history.extend(rows)
        if rows:
            self.history.advance(max(row[-1] for row in rows))

    def relation(self, now: Optional[int] = None) -> Relation:
        """The retained rows as a relation (schema fields plus ``timed``),
        oldest first; for time retention ``now`` narrows them to
        ``(now - span, now]``."""
        with self._lock:
            return self.history.read(now)

    def count(self, now: Optional[int] = None) -> int:
        """Number of rows :meth:`relation` would return."""
        return len(self.relation(now))

    def latest(self) -> Optional[StreamElement]:
        """The last retained row in append order, as an element."""
        with self._lock:
            rows = self.history.rows
            row = rows[-1] if rows else None
        if row is None:
            return None
        return StreamElement(dict(zip(self._fields, row)), timed=row[-1],
                             producer=self.name)


class StorageBackend(abc.ABC):
    """Manages a namespace of stream tables."""

    def __init__(self) -> None:
        self._tables: Dict[str, StreamTable] = {}

    @abc.abstractmethod
    def _make_table(self, name: str, schema: StreamSchema,
                    retention: RetentionPolicy) -> StreamTable:
        """Create the backend-specific table object."""

    def create(self, name: str, schema: StreamSchema,
               retention: Optional[RetentionPolicy] = None) -> StreamTable:
        key = name.lower()
        if key in self._tables:
            raise StorageError(f"stream table {name!r} already exists")
        table = self._make_table(key, schema,
                                 retention or RetentionPolicy("all"))
        self._tables[key] = table
        return table

    def drop(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise StorageError(f"no stream table {name!r}")
        table = self._tables.pop(key)
        self._dispose(table)

    def release(self, name: str) -> None:
        """Forget a table without destroying its backing data.

        For persistent backends this is the shutdown path: the SQLite
        table stays on disk and a later ``create`` with the same name
        reattaches to it.
        """
        key = name.lower()
        if key not in self._tables:
            raise StorageError(f"no stream table {name!r}")
        del self._tables[key]

    def _dispose(self, table: StreamTable) -> None:
        """Backend-specific cleanup when a table is dropped."""

    def get(self, name: str) -> StreamTable:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise StorageError(f"no stream table {name!r}") from None

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._tables

    def close(self) -> None:
        """Release backend resources (default: drop all tables)."""
        for name in list(self._tables):
            self.drop(name)
