"""Unit tests for the batch-native admission path.

One batch through ``RowHistory.extend`` → ``rows_extended`` must be
indistinguishable from the same rows through ``append`` one at a time:
same deltas in the same order, same rows, same accumulator bits, same
poisoning, and one ingest span that still stitches under the trigger.
"""

import dataclasses

import pytest

from repro import GSNContainer
from repro.exceptions import SchemaError
from repro.sqlengine.incremental import (
    GroupedAggregateState, IncrementalAggregateState, IncrementalJoinState,
    classify, classify_join,
)
from repro.sqlengine.parser import parse_select
from repro.sqlengine.planner import plan_select
from repro.streams.element import StreamElement
from repro.streams.history import (
    RetentionPolicy, RowHistory, RowListener, in_window_order,
)

from tests.conftest import simple_mote_descriptor


def plan(sql):
    return plan_select(parse_select(sql))


def rows(values, start=100):
    return [(value % 3, value, start + index)
            for index, value in enumerate(values)]


def count_history(size, fields=("g", "v")):
    return RowHistory(fields, RetentionPolicy("count", size))


class RowRecorder(RowListener):
    """Implements only the per-row callbacks, so a batch reaches it
    through the protocol's default replay."""

    def __init__(self):
        self.events = []

    def row_appended(self, row):
        self.events.append(("append", row[1]))

    def row_evicted(self, row):
        self.events.append(("evict", row[1]))

    def rows_reset(self, rows):
        self.events.append(("reset", [row[1] for row in rows]))


def twin_histories(factory):
    pair = []
    for __ in range(2):
        history, recorder = factory(), RowRecorder()
        history.add_listener(recorder)
        pair.append((history, recorder))
    return pair


class TestWindowExtend:
    @pytest.mark.parametrize("size,prefill,batch", [
        (5, 0, 3),      # still filling: no eviction
        (5, 3, 4),      # fills up half-way through the batch
        (5, 5, 4),      # full: every append preceded by its eviction
        (4, 4, 11),     # batch longer than the window evicts its own head
        (1, 1, 3),
    ])
    def test_count_window_deltas_match_repeated_append(self, size, prefill,
                                                       batch):
        (one, one_seen), (many, many_seen) = twin_histories(
            lambda: count_history(size))
        for history in (one, many):
            for row in rows(range(prefill), start=10):
                history.append(row)
        fresh = rows(range(100, 100 + batch))
        for row in fresh:
            one.append(row)
        many.extend(fresh)
        assert many_seen.events == one_seen.events
        assert list(many.rows) == list(one.rows)
        assert many.version == one.version
        assert len(many) == len(one) == min(size, prefill + batch)

    def test_full_count_window_evicts_before_each_append(self):
        history, seen = twin_histories(lambda: count_history(2))[0]
        history.extend(rows([1, 2]))
        seen.events.clear()
        history.extend(rows([3, 4]))
        assert seen.events == [("evict", 1), ("append", 3),
                               ("evict", 2), ("append", 4)]

    def test_time_window_tracks_order_per_element(self):
        stamps = [(1, 1000), (2, 3000), (3, 2000), (4, 3500)]
        batch = [(0, v, t) for v, t in stamps]
        (one, one_seen), (many, many_seen) = twin_histories(
            lambda: RowHistory(("g", "v"), RetentionPolicy("time", 1500)))
        for row in batch:
            one.append(row)
        many.extend(batch)
        assert many_seen.events == one_seen.events
        assert (many._newest, many._late) \
            == (one._newest, one._late) == (3500, True)
        assert many.version == one.version
        # The out-of-order row hides mid-deque: both repair alike.
        assert list(many.view(3600)[0].rows) \
            == list(one.view(3600)[0].rows)
        assert many_seen.events == one_seen.events
        assert one_seen.events[-2:] == [("evict", 1), ("reset", [2, 4])]

    def test_in_window_order(self):
        assert list(in_window_order("abcd", "xy")) == [
            (None, "a"), (None, "b"), ("x", "c"), ("y", "d")]
        assert list(in_window_order("ab", "")) == [(None, "a"), (None, "b")]


class TestRelationAndListeners:
    def mirrored(self, size=4):
        history = count_history(size)
        recorder = RowRecorder()
        history.add_listener(recorder)
        return history, recorder

    def test_rows_match_per_element(self):
        one, one_rows = self.mirrored()
        many, many_rows = self.mirrored()
        batch = rows(range(9))
        for row in batch:
            one.append(row)
        many.extend(batch)
        assert list(many.rows) == list(one.rows) == batch[-4:]
        assert many_rows.events == one_rows.events

    def attach(self, state_class, sql, size=4):
        history = count_history(size)
        poisonings = []
        state = state_class(classify(plan(sql)), history, label=sql,
                            on_poison=poisonings.append)
        history.add_listener(state)
        return history, state, poisonings

    def test_float_sums_are_bit_identical(self):
        sql = "select sum(v) as s, avg(v) as a, min(v) as lo from wrapper"
        values = [0.1, 1e16, -1e16, 0.2, 0.3, 1e-9, 7.7, 0.1, 3.3, 2.2, 5.5]
        one, one_state, __ = self.attach(IncrementalAggregateState, sql)
        many, many_state, __ = self.attach(IncrementalAggregateState, sql)
        batch = [(0, v, 100 + i) for i, v in enumerate(values)]
        for row in batch:
            one.append(row)
        many.extend(batch[:5])
        many.extend(batch[5:])
        assert list(many_state.snapshot().rows) \
            == list(one_state.snapshot().rows)
        assert many_state.updates == one_state.updates

    def test_grouped_state_through_the_default_replay(self):
        # The grouped state now folds a batch itself, like the flat one.
        sql = ("select g, count(*) as n, sum(v) as s, max(v) as hi "
               "from wrapper group by g")
        one, one_state, __ = self.attach(GroupedAggregateState, sql)
        many, many_state, __ = self.attach(GroupedAggregateState, sql)
        batch = rows([5, 1, 9, 4, 4, 8, 2, 7, 6])
        for row in batch:
            one.append(row)
        many.extend(batch)
        assert list(many_state.snapshot().rows) \
            == list(one_state.snapshot().rows)
        assert many_state.updates == one_state.updates

    def test_join_side_through_the_default_replay(self):
        sql = "select a.v as av, b.v as bv from a join b on a.g = b.g"

        def build():
            sides = {name: count_history(3) for name in ("a", "b")}
            state = IncrementalJoinState(classify_join(plan(sql)),
                                         sides["a"], sides["b"])
            return sides, state

        one, one_state = build()
        many, many_state = build()
        left, right = rows([1, 2, 3, 4, 5]), rows([6, 7, 8, 9])
        for row in left:
            one["a"].append(row)
        for row in right:
            one["b"].append(row)
        many["a"].extend(left)
        many["b"].extend(right)
        assert list(many_state.snapshot().rows) \
            == list(one_state.snapshot().rows) != []
        assert many_state.updates == one_state.updates

    def test_poison_parity(self):
        sql = "select sum(v) as s from wrapper"
        batch = [(0, v, 100 + i) for i, v in enumerate([1, 2, "x", 3, "y", 4])]
        one, one_state, one_poisonings = self.attach(
            IncrementalAggregateState, sql)
        many, many_state, many_poisonings = self.attach(
            IncrementalAggregateState, sql)
        for row in batch:
            one.append(row)
        many.extend(batch)
        assert not one_state.healthy and not many_state.healthy
        assert len(many_poisonings) == len(one_poisonings) == 1
        # Same first raising row: 3 + "x".
        assert type(many_state.poison_cause) is type(one_state.poison_cause)
        assert str(many_state.poison_cause) == str(one_state.poison_cause)
        # The initial reset plus the two deltas before the bad row.
        assert many_state.updates == one_state.updates == 3

    def test_grouped_poison_parity_under_a_where(self):
        sql = ("select g, count(*) as n from wrapper "
               "where sqrt(v) < 3 group by g")
        batch = [(i % 2, v, 100 + i)
                 for i, v in enumerate([1, 4, -1, 9, -4, 2])]
        one, one_state, one_poisonings = self.attach(
            GroupedAggregateState, sql)
        many, many_state, many_poisonings = self.attach(
            GroupedAggregateState, sql)
        for row in batch:
            one.append(row)
        many.extend(batch)
        assert len(many_poisonings) == len(one_poisonings) == 1
        assert str(many_state.poison_cause) == str(one_state.poison_cause) \
            == "sqrt() failed: math domain error"
        assert many_state.updates == one_state.updates == 3

    def test_poison_counts_once_on_the_sensor(self):
        container = GSNContainer("poison")
        try:
            container.deploy(simple_mote_descriptor(
                window="10",
                source_query="select sum(temperature) as temperature "
                             "from wrapper"))
            sensor = container.sensor("probe")
            # Two bad rows in one batch: the first poisons, the second
            # finds the state already off. (The fallback executor then
            # fails the trigger with the real error, which the sensor
            # logs and counts.)
            sensor.ingest_batch("in", "src", [
                {"temperature": 1}, {"temperature": "x"},
                {"temperature": "y"}, {"temperature": 2}])
            assert sensor.fast_paths.poisoned == 1
        finally:
            container.shutdown()


def admitted_by(source):
    """Spy on a source's admission: the elements it admits, in order."""
    seen = []
    receive_many = source.receive_many

    def spy(elements):
        admitted = receive_many(elements)
        seen.extend(admitted)
        return admitted
    source.receive_many = spy
    return seen


class TestBatchTracing:
    def deployed(self, sampling=1.0):
        container = GSNContainer("traced")
        container.deploy(dataclasses.replace(
            simple_mote_descriptor(window="10"), trace_sampling=sampling))
        return container, container.sensor("probe")

    def step1_count(self, container):
        text = container.metrics_text()
        line = next(line for line in text.splitlines() if line.startswith(
            'gsn_pipeline_step_latency_ms_count{sensor="probe",'
            'step="timestamp"}'))
        return int(float(line.rsplit(" ", 1)[1]))

    def test_one_ingest_span_per_batch_stitched_under_the_trigger(self):
        container, sensor = self.deployed()
        try:
            admitted = admitted_by(sensor.ism.stream("in").source("src"))
            sensor.ingest_batch("in", "src",
                                [{"temperature": i} for i in range(6)])
            [root] = container.traces.recent()
            ingest = [s for s in root.children if s.name == "timestamp"]
            assert len(ingest) == 1
            assert ingest[0].trace_id == root.trace_id
            assert ingest[0].attributes["tuples"] == 6
            assert ingest[0].attributes["admitted"] == 6
            assert ingest[0].duration_ms is not None
            # One batch, one step-1 observation.
            assert self.step1_count(container) == 1
            assert {e.trace_id for e in admitted} == {root.trace_id}
        finally:
            container.shutdown()

    def test_batch_stamps_share_one_clock_reading(self):
        container, sensor = self.deployed()
        try:
            container.clock.advance(5_000)
            source = sensor.ism.stream("in").source("src")
            admitted = admitted_by(source)
            sensor.ingest_batch("in", "src", [
                {"temperature": 1}, {"temperature": 2, "timed": 1_234},
                {"temperature": 3}])
            assert [(e.timed, e.arrival_time) for e in admitted] \
                == [(5_000, 5_000), (1_234, 5_000), (5_000, 5_000)]
            assert [row[-1] for row in source.history.rows] \
                == [5_000, 1_234, 5_000]
        finally:
            container.shutdown()

    def test_inbound_trace_id_is_kept_and_wins_the_span(self):
        container, sensor = self.deployed(sampling=0.0)
        try:
            admitted = admitted_by(sensor.ism.stream("in").source("src"))
            sensor.ingest_batch("in", "src", [
                StreamElement({"temperature": 1}),
                StreamElement({"temperature": 2}, trace_id="upstream")])
            assert [e.trace_id for e in admitted] == [None, "upstream"]
            [root] = container.traces.recent()
            assert root.trace_id == "upstream"
            assert [s.name for s in root.children][0] == "timestamp"
        finally:
            container.shutdown()

    def test_unsampled_batch_opens_no_span(self):
        container, sensor = self.deployed(sampling=0.0)
        try:
            sensor.ingest_batch("in", "src", [{"temperature": 1}])
            assert len(container.traces) == 0
            assert self.step1_count(container) == 0
            source = sensor.ism.stream("in").source("src")
            assert source.last_ingest_span is None
        finally:
            container.shutdown()


class TestDerivationsShareThePayload:
    def test_derived_elements_equal_rebuilt_ones(self):
        base = StreamElement({"A": 1, "b": None}, timed=5, arrival_time=6,
                             producer="w", trace_id="t")
        for derived, rebuilt in [
            (base.with_timestamp(9),
             StreamElement(base.values, 9, 6, "w", "t")),
            (base.with_arrival(9),
             StreamElement(base.values, 5, 9, "w", "t")),
            (base.with_producer("x"),
             StreamElement(base.values, 5, 6, "x", "t")),
            (base.with_trace(None),
             StreamElement(base.values, 5, 6, "w", None)),
        ]:
            assert derived == rebuilt and hash(derived) == hash(rebuilt)
            assert (derived.timed, derived.arrival_time, derived.producer,
                    derived.trace_id) == (
                rebuilt.timed, rebuilt.arrival_time, rebuilt.producer,
                rebuilt.trace_id)
            assert derived.values == {"a": 1, "b": None}

    def test_received_is_the_three_stamps_in_one(self):
        raw = StreamElement({"a": 1}, producer="w")
        assert raw.received(7, "t") == raw.with_trace("t").with_arrival(7) \
            .with_timestamp(7)
        kept = StreamElement({"a": 1}, timed=3, trace_id="up").received(7, "t")
        assert (kept.timed, kept.arrival_time, kept.trace_id) == (3, 7, "up")

    def test_values_is_still_a_copy(self):
        base = StreamElement({"a": 1})
        derived = base.with_arrival(1).with_timestamp(2)
        leaked = derived.values
        leaked["a"] = 99
        leaked["new"] = 1
        assert base["a"] == derived["a"] == 1
        assert "new" not in base and "new" not in derived
        assert derived.with_values(a=5)["a"] == 5 and base["a"] == 1

    def test_the_callers_mapping_is_never_aliased(self):
        payload = {"a": 1}
        element = StreamElement(payload).received(1)
        payload["a"] = 2
        assert element["a"] == 1

    def test_negative_timestamp_still_rejected(self):
        with pytest.raises(SchemaError):
            StreamElement({"a": 1}).with_timestamp(-1)

    def test_as_tuple_and_items(self):
        element = StreamElement({"A": 1, "b": 2}, timed=9)
        assert element.as_tuple(("b", "missing", "a")) == (2, None, 1, 9)
        assert dict(element.items()) == {"a": 1, "b": 2}
