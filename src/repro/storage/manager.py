"""Per-container storage manager.

Routes each virtual sensor's output stream to the right backend according
to its ``<storage permanent-storage=... size=...>`` directive, allocates
collision-free table names, and exposes everything as a lazy
:class:`~repro.sqlengine.executor.Catalog` view so registered queries can
read any stream hosted by the container.
"""

from __future__ import annotations

import logging
import re
from typing import Dict, List, Optional

from repro.concurrency import new_lock
from repro.exceptions import StorageError
from repro.sqlengine.executor import Catalog
from repro.sqlengine.relation import Relation
from repro.storage.base import RetentionPolicy, StorageBackend, StreamTable
from repro.storage.memory import MemoryStorage
from repro.storage.sqlite import SQLiteStorage
from repro.streams.schema import StreamSchema

_SAFE_NAME = re.compile(r"[^a-z0-9_]")

logger = logging.getLogger("repro.storage")


def safe_table_name(raw: str) -> str:
    """Sanitize an arbitrary sensor name into an SQL-safe table name."""
    lowered = _SAFE_NAME.sub("_", raw.lower())
    if not lowered or not (lowered[0].isalpha() or lowered[0] == "_"):
        lowered = "t_" + lowered
    return lowered


class StorageCatalog(Catalog):
    """Stream tables, each snapshotted when first read and kept: one
    query sees one state per table, and nobody copies unread tables."""

    def __init__(self, homes: Dict[str, StorageBackend],
                 now: Optional[int]) -> None:
        super().__init__()
        self._homes = homes
        self._now = now

    def get(self, name: str) -> Relation:
        key = name.lower()
        if key not in self._tables and key in self._homes:
            self._tables[key] = self._homes[key].get(key).relation(self._now)
        return super().get(name)

    def __contains__(self, name: object) -> bool:
        return super().__contains__(name) or (
            isinstance(name, str) and name.lower() in self._homes)

    def table_names(self) -> List[str]:
        return sorted(set(self._tables) | set(self._homes))


class StorageManager:
    """Owns the memory and persistent backends of one GSN container.

    Parameters
    ----------
    database_path:
        Location of the SQLite database backing permanent streams
        (defaults to in-memory, which still exercises the SQLite code
        path while keeping tests hermetic).
    """

    def __init__(self, database_path: str = ":memory:") -> None:
        self.memory = MemoryStorage()
        self.persistent = SQLiteStorage(database_path)
        # Serializes the routing table: deploys mutate it on the
        # application thread while health checks and registered queries
        # walk it from scheduler callbacks.  Backend calls (which take
        # their own connection locks and may commit) stay outside it.
        self._lock = new_lock("StorageManager._lock")
        self._homes: Dict[str, StorageBackend] = {}  # guarded-by: StorageManager._lock

    def create_stream(self, name: str, schema: StreamSchema,
                      retention: Optional[str] = None,
                      permanent: bool = False) -> StreamTable:
        """Create a stream table, choosing the backend by ``permanent``."""
        table_name = safe_table_name(name)
        backend = self.persistent if permanent else self.memory
        # Reserve the name first so a concurrent create fails fast, then
        # build the table outside the lock (SQLite commits can block).
        with self._lock:
            if table_name in self._homes:
                raise StorageError(f"stream {name!r} already exists")
            self._homes[table_name] = backend
        try:
            table = backend.create(table_name, schema,
                                   RetentionPolicy.parse(retention))
        except Exception:
            with self._lock:
                self._homes.pop(table_name, None)
            raise
        logger.info("created %s stream %s (retention=%s)",
                    "persistent" if permanent else "memory",
                    table_name, retention or "unbounded")
        return table

    def drop_stream(self, name: str) -> None:
        table_name = safe_table_name(name)
        with self._lock:
            backend = self._homes.pop(table_name, None)
        if backend is None:
            raise StorageError(f"no stream {name!r}")
        backend.drop(table_name)
        logger.info("dropped stream %s", table_name)

    def release_stream(self, name: str) -> None:
        """Detach a stream, preserving persistent data on disk.

        Transient (memory) streams are simply dropped — there is nothing
        durable to preserve.
        """
        table_name = safe_table_name(name)
        with self._lock:
            backend = self._homes.pop(table_name, None)
        if backend is None:
            raise StorageError(f"no stream {name!r}")
        if backend is self.persistent:
            backend.release(table_name)
        else:
            backend.drop(table_name)

    def get(self, name: str) -> StreamTable:
        table_name = safe_table_name(name)
        with self._lock:
            backend = self._homes.get(table_name)
        if backend is None:
            raise StorageError(f"no stream {name!r}")
        return backend.get(table_name)

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        with self._lock:
            return safe_table_name(name) in self._homes

    def stream_names(self):
        with self._lock:
            return sorted(self._homes)

    def catalog(self, now: Optional[int] = None) -> Catalog:
        """A catalog of every stream hosted now; each table's contents
        are snapshotted when a query first reads it."""
        with self._lock:
            homes = dict(self._homes)
        return StorageCatalog(homes, now)

    def close(self) -> None:
        with self._lock:
            self._homes.clear()
        self.memory.close()
        self.persistent.close()
