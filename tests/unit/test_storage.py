"""Unit tests for the storage layer: backends, retention, manager."""

import sqlite3
import sys
import threading

import pytest

from repro.datatypes import DataType
from repro.exceptions import StorageError
from repro.storage.base import RetentionPolicy, StreamTable
from repro.storage.manager import StorageManager, safe_table_name
from repro.storage.memory import MemoryStorage
from repro.storage.sqlite import SQLiteStorage
from repro.streams.element import StreamElement
from repro.streams.schema import StreamSchema

from tests.conftest import simple_mote_descriptor

SCHEMA = StreamSchema.build(v=DataType.INTEGER, tag=DataType.VARCHAR)


def element(timed, v=0, tag="x"):
    return StreamElement({"v": v, "tag": tag}, timed=timed)


@pytest.fixture(params=["memory", "sqlite"])
def backend(request):
    if request.param == "memory":
        store = MemoryStorage()
    else:
        store = SQLiteStorage(":memory:")
    yield store
    store.close()


class TestRetentionPolicy:
    def test_parse_variants(self):
        assert RetentionPolicy.parse(None).kind == "all"
        assert RetentionPolicy.parse("all").kind == "all"
        assert RetentionPolicy.parse("10") == RetentionPolicy("count", 10)
        assert RetentionPolicy.parse("10s") == RetentionPolicy("time", 10_000)

    def test_invalid(self):
        with pytest.raises(StorageError):
            RetentionPolicy("weird")
        with pytest.raises(StorageError):
            RetentionPolicy("count", 0)


class TestStreamTables:
    def test_append_and_read(self, backend):
        table = backend.create("s", SCHEMA)
        table.append(element(1, 10))
        table.append(element(2, 20))
        relation = table.relation()
        assert relation.columns == ("v", "tag", "timed")
        assert relation.rows == [(10, "x", 1), (20, "x", 2)]

    def test_rejects_unstamped(self, backend):
        table = backend.create("s", SCHEMA)
        with pytest.raises(StorageError):
            table.append(StreamElement({"v": 1}))

    def test_schema_enforced(self, backend):
        table = backend.create("s", SCHEMA)
        with pytest.raises(Exception):
            table.append(StreamElement({"nope": 1}, timed=1))

    def test_count_retention(self, backend):
        table = backend.create("s", SCHEMA, RetentionPolicy("count", 3))
        for i in range(6):
            table.append(element(i, i))
        assert table.count() == 3
        assert [row[0] for row in table.relation().rows] == [3, 4, 5]

    def test_time_retention(self, backend):
        table = backend.create("s", SCHEMA, RetentionPolicy("time", 100))
        table.append(element(1_000))
        table.append(element(1_050))
        table.append(element(1_200))  # expires both older ones
        assert [row[2] for row in table.relation().rows] == [1_200]

    def test_time_retention_with_now(self, backend):
        table = backend.create("s", SCHEMA, RetentionPolicy("time", 100))
        table.append(element(1_000))
        table.append(element(1_050))
        assert table.count(now=1_060) == 2

    def test_late_timestamps(self, backend):
        """The reference is the newest retained stamp, on every backend
        and for eviction as for reads without ``now``."""
        table = backend.create("s", SCHEMA, RetentionPolicy("time", 10_000))
        for stamp in (1_000, 2_000, 1_500):
            table.append(element(stamp))
        assert [row[2] for row in table.relation().rows] == \
            [1_000, 2_000, 1_500]
        assert table.count() == 3
        assert [row[2] for row in table.relation(now=1_500).rows] == \
            [1_000, 1_500]
        table.append(element(11_600))  # evicts 1000 and 1500, not 2000
        assert [row[2] for row in table.relation().rows] == [2_000, 11_600]
        table.append(element(1_600))  # late, at the bound: evicted
        assert [row[2] for row in table.relation().rows] == [2_000, 11_600]
        assert table.latest().timed == 11_600

    def test_latest(self, backend):
        table = backend.create("s", SCHEMA)
        assert table.latest() is None
        table.append(element(5, 50, "last"))
        latest = table.latest()
        assert latest.timed == 5
        assert latest["v"] == 50

    def test_appended_counter(self, backend):
        table = backend.create("s", SCHEMA, RetentionPolicy("count", 2))
        for i in range(5):
            table.append(element(i))
        assert table.appended == 5
        assert table.count() == 2

    def test_duplicate_create_rejected(self, backend):
        backend.create("s", SCHEMA)
        with pytest.raises(StorageError):
            backend.create("S", SCHEMA)

    def test_drop(self, backend):
        backend.create("s", SCHEMA)
        backend.drop("s")
        assert "s" not in backend
        with pytest.raises(StorageError):
            backend.drop("s")

    def test_null_values_stored(self, backend):
        table = backend.create("s", SCHEMA)
        table.append(StreamElement({"v": None, "tag": None}, timed=9))
        assert table.relation().rows == [(None, None, 9)]


class TestMemoryTableConcurrency:
    def test_reads_beside_appends(self):
        """Time-retention reads copy the rows under the table lock, so a
        reader never sees the history change mid-read."""
        table = MemoryStorage().create("s", SCHEMA,
                                       RetentionPolicy("time", 50))
        errors = []
        done = threading.Event()

        def write():
            for stamp in range(20_000):
                table.append(element(stamp))
            done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writer = threading.Thread(target=write)
            writer.start()
            for __ in range(2_000):
                try:
                    table.relation(now=10_000)
                    table.count()
                except RuntimeError as exc:
                    errors.append(exc)
                if done.is_set():
                    break
            writer.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not writer.is_alive()
        assert errors == []
        assert table.count() == 50


class TestSQLiteSpecifics:
    def test_binary_roundtrip(self):
        store = SQLiteStorage(":memory:")
        schema = StreamSchema.build(img=DataType.BINARY)
        table = store.create("cam", schema)
        payload = bytes(range(256))
        table.append(StreamElement({"img": payload}, timed=1))
        assert table.relation().rows == [(payload, 1)]
        store.close()

    def test_boolean_roundtrip(self):
        store = SQLiteStorage(":memory:")
        schema = StreamSchema.build(flag=DataType.BOOLEAN)
        table = store.create("s", schema)
        table.append(StreamElement({"flag": True}, timed=1))
        table.append(StreamElement({"flag": False}, timed=2))
        assert [row[0] for row in table.relation().rows] == [True, False]
        assert table.latest()["flag"] is False
        store.close()

    def test_execute_sql(self):
        store = SQLiteStorage(":memory:")
        table = store.create("s", SCHEMA)
        for i in range(4):
            table.append(element(i, i))
        result = store.execute_sql("select count(*) as n from s")
        assert result.to_dicts() == [{"n": 4}]
        store.close()

    def test_execute_sql_error_wrapped(self):
        store = SQLiteStorage(":memory:")
        with pytest.raises(StorageError):
            store.execute_sql("select * from missing_table")
        store.close()

    def test_disk_persistence(self, tmp_path):
        path = str(tmp_path / "gsn.db")
        store = SQLiteStorage(path)
        table = store.create("s", SCHEMA)
        table.append(element(1, 42))
        store.close()

        reopened = SQLiteStorage(path)
        reloaded = reopened.create("s", SCHEMA)  # CREATE IF NOT EXISTS
        assert reloaded.relation().rows == [(42, "x", 1)]

        # Release, then re-create: the rows come back from the file as
        # they were, BOOLEAN decoded and the late row in arrival order.
        schema = StreamSchema.build(flag=DataType.BOOLEAN,
                                    v=DataType.DOUBLE)
        table = reopened.create("t", schema, RetentionPolicy("time", 100))
        for stamp, flag in ((1_000, True), (1_090, None), (1_050, False)):
            table.append(StreamElement({"flag": flag, "v": 1}, timed=stamp))
        before = table.relation().rows
        reopened.release("t")
        again = reopened.create("t", schema, RetentionPolicy("time", 100))
        assert again.relation().rows == before
        assert [type(row[0]) for row in before] == [bool, type(None), bool]
        again.append(StreamElement({"flag": True}, timed=1_151))
        # The late 1050 goes although it sits after 1090, which stays.
        assert [row[2] for row in again.relation().rows] == [1_090, 1_151]
        assert again.appended == 1
        reopened.close()

    def test_recreate_applies_the_new_retention(self, tmp_path):
        store = SQLiteStorage(str(tmp_path / "gsn.db"))
        table = store.create("s", SCHEMA)
        for i in range(5):
            table.append(element(i, i))
        store.release("s")
        again = store.create("s", SCHEMA, RetentionPolicy("count", 2))
        assert [row[0] for row in again.relation().rows] == [3, 4]
        assert store.execute_sql("select count(*) as n from s").rows == \
            [(2,)]
        store.close()

    def test_failed_write_leaves_rows(self):
        store = SQLiteStorage(":memory:")
        table = store.create("s", SCHEMA, RetentionPolicy("count", 2))
        table.append(element(1, 10))
        store.close()
        with pytest.raises(sqlite3.ProgrammingError):
            table.append(element(2, 20))
        assert table.relation().rows == [(10, "x", 1)]
        assert table.appended == 1


class TestSafeTableName:
    @pytest.mark.parametrize("raw,expected", [
        ("simple", "simple"),
        ("With-Dash", "with_dash"),
        ("dots.and spaces", "dots_and_spaces"),
        ("1leading", "t_1leading"),
        ("", "t_"),
    ])
    def test_sanitization(self, raw, expected):
        assert safe_table_name(raw) == expected


class TestStorageManager:
    def test_routes_by_permanence(self):
        manager = StorageManager()
        transient = manager.create_stream("a", SCHEMA, permanent=False)
        durable = manager.create_stream("b", SCHEMA, permanent=True)
        assert type(transient).__name__ == "MemoryStreamTable"
        assert type(durable).__name__ == "SQLiteStreamTable"
        manager.close()

    def test_name_collision_across_backends(self):
        manager = StorageManager()
        manager.create_stream("x", SCHEMA, permanent=False)
        with pytest.raises(StorageError):
            manager.create_stream("x", SCHEMA, permanent=True)
        manager.close()

    def test_catalog_view(self):
        manager = StorageManager()
        table = manager.create_stream("s", SCHEMA)
        table.append(element(1, 5))
        catalog = manager.catalog()
        assert catalog.get("s").rows == [(5, "x", 1)]
        manager.close()

    def test_catalog_snapshots_once_per_table(self):
        manager = StorageManager()
        table = manager.create_stream("s", SCHEMA)
        manager.create_stream("unread", SCHEMA)
        table.append(element(1, 5))
        catalog = manager.catalog()
        assert catalog.table_names() == ["s", "unread"]
        first = catalog.get("S")
        table.append(element(2, 6))
        assert catalog.get("s") is first
        assert first.rows == [(5, "x", 1)]
        assert manager.catalog().get("s").rows == [(5, "x", 1),
                                                   (6, "x", 2)]
        manager.close()

    def test_arrival_snapshots_only_the_subscribed_table(
            self, container, monkeypatch):
        for index in range(16):
            container.deploy(simple_mote_descriptor(name=f"m{index}"))
        subscription = container.register_query(
            "select count(*) as n from vs_m3")
        read = []
        relation = StreamTable.relation

        def counting(table, now=None):
            read.append(table.name)
            return relation(table, now)
        monkeypatch.setattr(StreamTable, "relation", counting)
        container.run_for(5_000)
        assert subscription.notifications_sent > 0
        assert read == ["vs_m3"] * subscription.notifications_sent

    def test_drop_stream(self):
        manager = StorageManager()
        manager.create_stream("s", SCHEMA)
        manager.drop_stream("s")
        assert "s" not in manager
        with pytest.raises(StorageError):
            manager.get("s")
        manager.close()

    def test_retention_spec_passthrough(self):
        manager = StorageManager()
        table = manager.create_stream("s", SCHEMA, retention="2")
        for i in range(5):
            table.append(element(i))
        assert table.count() == 2
        manager.close()
