"""Property: a stream table's retained rows are its durable table.

Random appends — stamps that mostly advance but sometimes arrive late,
NULL, BOOLEAN, DOUBLE (NaN and infinities included) and BINARY values —
under count, time and unbounded retention. After every append the rows
of an SQLite-backed table equal ``SELECT <cols> FROM t ORDER BY _seq``
on its database with BOOLEAN decoded (``SQLiteStorage.execute_sql`` is
the reference), for reads with and without ``now``; and a memory table
fed the same appends answers exactly as the SQLite one.
"""

from hypothesis import given, settings, strategies as st

from repro.datatypes import DataType
from repro.storage.base import RetentionPolicy
from repro.storage.memory import MemoryStorage
from repro.storage.sqlite import SQLiteStorage
from repro.streams.element import StreamElement
from repro.streams.schema import StreamSchema

SCHEMA = StreamSchema.build(flag=DataType.BOOLEAN, v=DataType.DOUBLE,
                            blob=DataType.BINARY, n=DataType.INTEGER)
COLUMNS = "flag, v, blob, n, timed"
INT64 = st.integers(-2**63, 2**63 - 1)

values = st.fixed_dictionaries({
    "flag": st.none() | st.booleans(),
    "v": st.none() | st.floats() | INT64,
    "blob": st.none() | st.binary(max_size=8)
    | st.binary(max_size=8).map(bytearray),
    "n": st.none() | INT64,
})
retentions = st.one_of(
    st.just(RetentionPolicy("all")),
    st.integers(1, 6).map(lambda n: RetentionPolicy("count", n)),
    st.integers(1, 400).map(lambda ms: RetentionPolicy("time", ms)),
)
#: (stamp step, values, read time offset or None); a negative step is a
#: late arrival.
steps = st.lists(st.tuples(st.integers(-300, 200), values,
                           st.none() | st.integers(-300, 300)),
                 max_size=40)


def typed(rows):
    """Rows with each value's type beside it: 1 == 1.0 == True, but the
    rows must hold what the database hands back."""
    return [tuple((type(value), value) for value in row) for row in rows]


def reference(store, retention, now):
    sql = f"SELECT {COLUMNS} FROM s"
    if now is not None and retention.kind == "time":
        sql += f" WHERE timed > {now - retention.amount} AND timed <= {now}"
    rows = store.execute_sql(sql + " ORDER BY _seq").rows
    return [(None if row[0] is None else bool(row[0]),) + tuple(row[1:])
            for row in rows]


@settings(max_examples=300, deadline=None)
@given(retention=retentions, script=steps, start=st.integers(0, 1_000))
def test_rows_equal_the_durable_table(retention, script, start):
    durable_store = SQLiteStorage(":memory:")
    durable = durable_store.create("s", SCHEMA, retention)
    memory = MemoryStorage().create("s", SCHEMA, retention)
    stamp = start
    try:
        for step, row, offset in script:
            stamp = max(0, stamp + step)
            for table in (durable, memory):
                table.append(StreamElement(row, timed=stamp))
            for now in (None, None if offset is None else stamp + offset):
                expected = reference(durable_store, retention, now)
                got = durable.relation(now).rows
                assert typed(got) == typed(expected)
                assert typed(memory.relation(now).rows) == typed(got)
                assert durable.count(now) == memory.count(now) \
                    == len(expected)
            latest = durable.latest()
            last = reference(durable_store, retention, None)[-1]
            assert tuple(latest[name] for name in SCHEMA.field_names) \
                + (latest.timed,) == last
            assert memory.latest().timed == latest.timed
    finally:
        durable_store.close()
