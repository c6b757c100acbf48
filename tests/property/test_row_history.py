"""Property: a row history keeps exactly what the one retention rule says.

The model keeps every admitted row and a horizon. After every step it
derives what retention keeps, in arrival order: the last N rows
(count), every row (all), or every row stamped after
``horizon - span`` (time); and what a read at ``now`` returns: for
time retention the kept rows in ``(now - span, now]``. The horizon
moves forward only: to each appended stamp when the history is a
stream table, to the query's ``now`` at each read when it is an input
window. Counting moves nothing.

Hypothesis drives random scripts of appended batches (in-order, late,
duplicate and future stamps), reads at varying ``now`` and counts,
under count, time and unbounded retention and both advance modes.
After every step the history's rows, its ``len`` and the rows of a
listener mirroring it equal the model's, and every read answers as the
model does — the live history exactly when no kept row is stamped after
``now``.
"""

from hypothesis import given, settings, strategies as st

from repro.streams.history import RetentionPolicy, RowHistory, RowListener


class Mirror(RowListener):
    """Rebuilds the history from its deltas alone."""

    def __init__(self):
        self.rows = []

    def row_appended(self, row):
        self.rows.append(row)

    def row_evicted(self, row):
        assert self.rows[0] == row, "evictions are FIFO between resets"
        del self.rows[0]

    def rows_reset(self, rows):
        self.rows = list(rows)


class Model:
    """Every admitted row, and the rule applied on demand."""

    def __init__(self, retention):
        self.kind, self.amount = retention.kind, retention.amount
        self.admitted = []
        self.horizon = None

    def advance(self, horizon):
        if self.horizon is None or horizon > self.horizon:
            self.horizon = horizon

    def kept(self):
        if self.kind == "count":
            return self.admitted[-self.amount:]
        if self.kind == "time" and self.horizon is not None:
            cutoff = self.horizon - self.amount
            return [row for row in self.admitted if row[-1] > cutoff]
        return list(self.admitted)

    def read(self, now):
        if now is None or self.kind != "time":
            return self.kept()
        return [row for row in self.kept()
                if now - self.amount < row[-1] <= now]


retentions = st.one_of(
    st.just(RetentionPolicy("all")),
    st.integers(1, 6).map(lambda n: RetentionPolicy("count", n)),
    st.integers(1, 400).map(lambda ms: RetentionPolicy("time", ms)),
)
#: A negative step is a late stamp, zero a duplicate; a read offset
#: below zero reads the past, above zero a time no row has reached.
steps = st.lists(st.one_of(
    st.tuples(st.just("append"),
              st.lists(st.integers(-300, 200), min_size=1, max_size=4)),
    st.tuples(st.just("read"), st.none() | st.integers(-300, 300)),
    st.tuples(st.just("count")),
), max_size=30)


def check(retention, table, start, script):
    history = RowHistory(["seq"], retention)
    mirror = Mirror()
    history.add_listener(mirror)
    model = Model(retention)
    stamp, seq = start, 0
    for step in script:
        if step[0] == "append":
            batch = []
            for delta in step[1]:
                stamp, seq = max(0, stamp + delta), seq + 1
                batch.append((seq, stamp))
            model.admitted.extend(batch)
            if table:
                for row in batch:
                    history.append(row)
                    history.advance(row[-1])
                    model.advance(row[-1])
            else:
                history.extend(batch)
        elif step[0] == "read":
            now = None if step[1] is None else max(0, stamp + step[1])
            if table:
                got = history.read(now)
            else:
                got, live = history.view(now)
                if now is not None and retention.kind == "time":
                    model.advance(now)
                    assert live == all(row[-1] <= now
                                       for row in model.kept())
                else:
                    assert live
                assert live is (got is history)
            assert list(got.rows) == model.read(now), step
        else:
            version = history.version
            assert len(history) == len(model.kept())
            assert history.version == version
        assert list(history.rows) == model.kept(), step
        assert len(history) == len(model.kept())
        assert mirror.rows == model.kept()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(retention=retentions, table=st.booleans(),
       start=st.integers(0, 1_000), script=steps)
def test_history_matches_the_model(retention, table, start, script):
    check(retention, table, start, script)
