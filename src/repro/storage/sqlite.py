"""SQLite-backed persistent storage.

Plays the role MySQL plays in the original GSN: virtual sensors declaring
``permanent-storage="true"`` have their output streams written to an
SQLite database (on disk or ``:memory:``), behind the rows every stream
table holds in memory. Besides the standard
:class:`~repro.storage.base.StreamTable` interface, the backend exposes
:meth:`SQLiteStorage.execute_sql` as a reference to check those rows and
the scratch SQL engine against.
"""

from __future__ import annotations

import sqlite3
import threading

from repro.concurrency import new_lock
from repro.datatypes import DataType
from repro.exceptions import StorageError
from repro.sqlengine.relation import Relation
from repro.storage.base import RetentionPolicy, StorageBackend, StreamTable
from repro.streams.schema import StreamSchema

_SQLITE_TYPES = {
    DataType.INTEGER: "INTEGER",
    DataType.DOUBLE: "REAL",
    DataType.VARCHAR: "TEXT",
    DataType.BINARY: "BLOB",
    DataType.BOOLEAN: "INTEGER",
    DataType.TIMESTAMP: "INTEGER",
}


class SQLiteStreamTable(StreamTable):
    """A write-through durable sink behind the retained rows: an append
    is inserted, evicted and committed before it joins them. They are
    loaded once, at create (a released table reattaches to its data)."""

    def __init__(self, name: str, schema: StreamSchema,
                 retention: RetentionPolicy,
                 connection: sqlite3.Connection,
                 lock: threading.Lock) -> None:
        super().__init__(name, schema, retention, lock)
        self._connection = connection  # guarded-by: SQLiteStreamTable._lock
        # The storage backend's own lock, shared by all of its tables —
        # statically named both SQLiteStreamTable._lock and
        # SQLiteStorage._lock; LOCK_ORDER declares both aliases.
        self._lock = lock
        columns = ", ".join(
            f'"{field.name}" {_SQLITE_TYPES[field.type]}'
            for field in schema
        )
        column_list = ", ".join(f'"{c}"' for c in self.columns)
        booleans = {i for i, field in enumerate(schema)
                    if field.type is DataType.BOOLEAN}
        with self._lock:
            self._connection.execute(
                f'CREATE TABLE IF NOT EXISTS "{name}" '
                f"(_seq INTEGER PRIMARY KEY AUTOINCREMENT, "
                f'{columns}, "timed" INTEGER NOT NULL)'
            )
            self._connection.execute(
                f'CREATE INDEX IF NOT EXISTS "idx_{name}_timed" '
                f'ON "{name}" ("timed")'
            )
            self._evict()  # the stored rows may predate this retention
            # The lock exists to serialize exactly this: statement plus
            # commit as one atomic unit on the shared connection.
            self._connection.commit()  # gsn-lint: disable=GSN502
            stored = self._connection.execute(
                f'SELECT {column_list} FROM "{name}" ORDER BY _seq')
            self._load([
                tuple(bool(value) if position in booleans
                      and value is not None else value
                      for position, value in enumerate(row))
                for row in stored])
        self._insert_sql = (f'INSERT INTO "{name}" ({column_list}) '
                            f'VALUES ({", ".join("?" * len(self.columns))})')

    def _persist(self, row: tuple) -> None:  # requires-lock: _lock
        self._connection.execute(self._insert_sql, row)
        self._evict()
        # Insert + evict + commit must be one atomic unit on the
        # shared connection; committing outside would interleave
        # with other tables' statements. Durability cost is bounded
        # (single row) and the lock is leaf-level in LOCK_ORDER.
        self._connection.commit()  # gsn-lint: disable=GSN502

    def _evict(self) -> None:  # requires-lock: _lock
        if self.retention.kind == "time":
            self._connection.execute(
                f'DELETE FROM "{self.name}" WHERE "timed" <= '
                f'(SELECT MAX("timed") FROM "{self.name}") - ?',
                (self.retention.amount,),
            )
        elif self.retention.kind == "count":
            self._connection.execute(
                f'DELETE FROM "{self.name}" WHERE _seq <= ('
                f'SELECT _seq FROM "{self.name}" '
                f"ORDER BY _seq DESC LIMIT 1 OFFSET ?)",
                (self.retention.amount,),
            )


class SQLiteStorage(StorageBackend):
    """Stream tables persisted in one SQLite database."""

    def __init__(self, path: str = ":memory:") -> None:
        super().__init__()
        self.path = path
        try:
            self._connection = sqlite3.connect(  # guarded-by: SQLiteStorage._lock
                path, check_same_thread=False)
        except sqlite3.Error as exc:
            raise StorageError(f"cannot open database {path!r}: {exc}") from exc
        self._lock = new_lock("SQLiteStorage._lock")

    def _make_table(self, name: str, schema: StreamSchema,
                    retention: RetentionPolicy) -> StreamTable:
        return SQLiteStreamTable(name, schema, retention,
                                 self._connection, self._lock)

    def _dispose(self, table: StreamTable) -> None:
        with self._lock:
            self._connection.execute(f'DROP TABLE IF EXISTS "{table.name}"')
            # DROP + commit as one unit, same justification as append().
            self._connection.commit()  # gsn-lint: disable=GSN502

    def execute_sql(self, sql: str) -> Relation:
        """Run arbitrary (read-only) SQL directly on the database.

        Stream-table reads never come here: this is the reference the
        ablation benchmark compares the scratch engine against and the
        tests check the retained rows against.
        """
        with self._lock:
            try:
                cursor = self._connection.execute(sql)
            except sqlite3.Error as exc:
                raise StorageError(f"sqlite error: {exc}") from exc
            columns = [d[0].lower() for d in cursor.description or ()]
            rows = cursor.fetchall()
        return Relation(columns, rows)

    def close(self) -> None:
        self._tables.clear()
        with self._lock:
            self._connection.close()
