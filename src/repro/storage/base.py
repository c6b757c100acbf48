"""Storage backend interface.

A backend manages *stream tables*: append-only sequences of stream elements
with a retention bound (time- or count-based, mirroring GSN's
``<storage size="...">`` directive). Every table keeps its retained rows
in memory and reads materialize them to a
:class:`~repro.sqlengine.relation.Relation`, whatever the backend; a
persistent backend is a write-through sink behind those rows.
"""

from __future__ import annotations

import abc
import threading
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.datatypes import DataType
from repro.exceptions import StorageError
from repro.gsntime.duration import parse_window_spec
from repro.sqlengine.relation import Relation
from repro.streams.element import StreamElement
from repro.streams.schema import StreamSchema

Row = Tuple[Any, ...]

#: Values as SQLite hands them back: REAL stores NaN as NULL.
_DURABLE: Dict[DataType, Callable[[Any], Any]] = {
    DataType.DOUBLE: lambda value: None if value != value else float(value),
    DataType.BINARY: bytes,
}


@dataclass(frozen=True)
class RetentionPolicy:
    """How long a stream table keeps elements.

    ``kind`` is ``"count"`` (keep the last N), ``"time"`` (keep the last
    span milliseconds, judged against element timestamps) or ``"all"``.
    """

    kind: str
    amount: int = 0

    @classmethod
    def parse(cls, spec: Optional[str]) -> "RetentionPolicy":
        if spec is None or spec.strip().lower() in ("", "all", "unbounded"):
            return cls("all")
        kind, amount = parse_window_spec(spec)
        return cls(kind, amount)

    def __post_init__(self) -> None:
        if self.kind not in ("count", "time", "all"):
            raise StorageError(f"unknown retention kind {self.kind!r}")
        if self.kind != "all" and self.amount <= 0:
            raise StorageError("retention amount must be positive")


class StreamTable:
    """One stream table: its retained rows ``(fields..., timed)`` in
    append order, in the form SQLite stores them, which every read
    copies. Time retention evicts each row stamped at or before the
    newest retained stamp minus the span, wherever it sits."""

    def __init__(self, name: str, schema: StreamSchema,
                 retention: RetentionPolicy, lock: threading.Lock) -> None:
        self.name = name
        self.schema = schema
        self.retention = retention
        self.appended = 0
        self.columns: Tuple[str, ...] = tuple(schema.field_names) + ("timed",)
        self._fields = tuple(schema.field_names)
        self._durable = [(i, _DURABLE[field.type])
                         for i, field in enumerate(schema)
                         if field.type in _DURABLE]
        # An SQLite table passes its connection lock, so the durable
        # write and the rows change in one critical section.
        self._lock = lock
        maxlen = retention.amount if retention.kind == "count" else None
        self._rows: Deque[Row] = deque(maxlen=maxlen)  # guarded-by: StreamTable._lock
        self._newest: Optional[int] = None  # guarded-by: StreamTable._lock
        # False once a late row is retained: rows out of timestamp order.
        self._ordered = True  # guarded-by: StreamTable._lock

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
            self._retain(row)

    def _persist(self, row: Row) -> None:  # requires-lock: _lock
        """Make ``row`` durable; if this raises, nothing is retained."""

    def _load(self, rows: List[Row]) -> None:  # requires-lock: _lock
        """Adopt rows the backend already retains, oldest first."""
        self._rows.extend(rows)
        if self.retention.kind == "time" and rows:
            self._newest = max(row[-1] for row in rows)
            self._ordered = False  # checked at the next append

    def _retain(self, row: Row) -> None:  # requires-lock: _lock
        self.appended += 1
        rows = self._rows
        rows.append(row)  # count retention evicts through maxlen
        if self.retention.kind != "time":
            return
        timed = row[-1]
        if self._newest is None or timed >= self._newest:
            self._newest = timed
        else:
            self._ordered = False
        cutoff = self._newest - self.retention.amount
        # The newest row is never evicted, so ``rows`` stays non-empty.
        while rows[0][-1] <= cutoff:
            rows.popleft()
        if not self._ordered:
            rows = self._rows = deque(r for r in rows if r[-1] > cutoff)
            self._ordered = all(a[-1] <= b[-1] for a, b in
                                zip(rows, islice(rows, 1, None)))

    def _retained(self, now: Optional[int]) -> List[Row]:
        with self._lock:
            rows = list(self._rows)
        if now is not None and self.retention.kind == "time":
            cutoff = now - self.retention.amount
            rows = [row for row in rows if cutoff < row[-1] <= now]
        return rows

    def relation(self, now: Optional[int] = None) -> Relation:
        """The retained rows as a relation (schema fields plus ``timed``),
        oldest first; for time retention ``now`` narrows them to
        ``(now - span, now]``."""
        return Relation.adopt(self.columns, self._retained(now))

    def count(self, now: Optional[int] = None) -> int:
        """Number of rows :meth:`relation` would return."""
        return len(self._retained(now))

    def latest(self) -> Optional[StreamElement]:
        """The last retained row in append order, as an element."""
        with self._lock:
            row = self._rows[-1] if self._rows else None
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
