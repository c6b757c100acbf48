"""In-memory storage backend.

The default for transient streams (``permanent-storage="false"``): the
table is nothing but the retained rows every
:class:`~repro.storage.base.StreamTable` holds.
"""

from __future__ import annotations

from repro.concurrency import new_lock
from repro.storage.base import RetentionPolicy, StorageBackend, StreamTable
from repro.streams.schema import StreamSchema


class MemoryStreamTable(StreamTable):
    """A stream table with no durable copy."""


class MemoryStorage(StorageBackend):
    """A backend holding every stream table in process memory."""

    def _make_table(self, name: str, schema: StreamSchema,
                    retention: RetentionPolicy) -> StreamTable:
        return MemoryStreamTable(name, schema, retention,
                                 new_lock("MemoryStreamTable._lock"))
