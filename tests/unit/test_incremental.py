"""Unit tests for the incremental hot path.

Covers: fast-path classification, the per-path counters, the escape
hatches, accumulator poisoning, window-relation mirroring, O(1) window
lengths, and the ``from_dicts`` key normalization.
"""

import pytest

from repro.datatypes import DataType
from repro.descriptors.model import (
    AddressSpec, InputStreamSpec, StreamSourceSpec,
    VirtualSensorDescriptor,
)
from repro.descriptors.xml_io import descriptor_from_xml, descriptor_to_xml
from repro.gsntime.clock import VirtualClock
from repro.sqlengine.executor import Catalog, execute_plan
from repro.sqlengine.incremental import (
    AggregateQuery, GroupedAggregateQuery, GroupedAggregateState,
    IdentityQuery, IncrementalJoinState, classify, classify_join,
)
from repro.sqlengine.parser import parse_select
from repro.sqlengine.planner import plan_select
from repro.sqlengine.relation import Relation
from repro.storage.memory import MemoryStorage
from repro.streams.history import RetentionPolicy, RowHistory
from repro.streams.schema import StreamSchema
from repro.vsensor.virtual_sensor import VirtualSensor
from repro.wrappers.scripted import ScriptedWrapper

from tests.conftest import simple_mote_descriptor


def plan(sql):
    return plan_select(parse_select(sql))


class TestClassify:
    def test_identity(self):
        classified = classify(plan("select * from wrapper"))
        assert isinstance(classified, IdentityQuery)
        assert classified.binding == "wrapper"

    def test_identity_with_alias_star(self):
        classified = classify(plan("select w.* from wrapper w"))
        assert isinstance(classified, IdentityQuery)
        assert classified.binding == "w"

    def test_aggregates_with_where(self):
        classified = classify(plan(
            "select count(*) as n, sum(v) as s, avg(v), min(v), max(v) "
            "from wrapper where v > 3"
        ))
        assert isinstance(classified, AggregateQuery)
        assert [item.kind for item in classified.items] == [
            "count_star", "sum", "avg", "min", "max",
        ]
        assert classified.columns == ("n", "s", "avg_v", "min_v", "max_v")
        assert classified.referenced == frozenset({"v"})

    def test_grouped_aggregates(self):
        classified = classify(plan(
            "select room, count(*) as n, avg(v) from wrapper "
            "where v > 0 group by room"
        ))
        assert isinstance(classified, GroupedAggregateQuery)
        assert classified.keys == ("room",)
        assert [item.kind for item in classified.items] == [
            "column", "count_star", "avg",
        ]
        assert classified.columns == ("room", "n", "avg_v")
        assert classified.referenced == frozenset({"room", "v"})

    @pytest.mark.parametrize("sql", [
        "select v from wrapper",                         # projection
        "select count(*) from wrapper group by v + 1",   # group expression
        "select count(*) from wrapper "
        "group by v having count(*) > 1",                # having
        "select * from wrapper where v > 1",             # filtered identity
        "select distinct v from wrapper",                # distinct rows
        "select count(distinct v) from wrapper",         # distinct aggregate
        "select sum(v + 1) from wrapper",                # expression arg
        "select median(v) from wrapper",                 # unsupported agg
        "select sum(v) from wrapper order by 1",         # order by
        "select sum(v) from wrapper limit 1",            # limit
        "select count(*) from wrapper a, wrapper2 b",    # join
        "select sum(v) from wrapper "
        "where v in (select v from t)",                  # subquery
        "select * from wrapper union select * from w2",  # set op
    ])
    def test_disqualified(self, sql):
        assert classify(plan(sql)) is None

    def test_join_classification(self):
        spec = classify_join(plan(
            "select a.v, b.w from a join b on a.k = b.k where a.v > 0"
        ))
        assert spec is not None
        assert (spec.left_table, spec.right_table) == ("a", "b")
        assert (spec.left_binding, spec.right_binding) == ("a", "b")

    @pytest.mark.parametrize("sql", [
        "select * from a left join b on a.k = b.k",      # outer join
        "select * from a join b on a.k < b.k",           # not an equi-join
        "select * from a",                               # single source
        "select a.k, count(*) from a join b on a.k = b.k "
        "group by a.k",                                  # grouped join
        "select * from a join b on a.k = b.k order by a.k",  # order by
        "select * from a join b on a.k = b.k limit 3",   # limit
    ])
    def test_join_disqualified(self, sql):
        assert classify_join(plan(sql)) is None


class TestWindowRelation:
    """The window relation is the source's history itself."""

    def test_mirrors_count_window(self):
        window = RowHistory(["v"], RetentionPolicy("count", 3))
        for i in range(5):
            window.append((i, 100 + i))
        assert list(window.rows) == [(2, 102), (3, 103), (4, 104)]
        assert window.columns == ("v", "timed")

    def test_mirrors_time_window_with_out_of_order(self):
        window = RowHistory(["v"], RetentionPolicy("time", 100))
        window.append((1, 1_000))
        window.append((2, 950))   # out of order
        window.append((3, 1_060))
        window.view(1_060)  # expiry: cutoff 960 drops the 950 row
        assert list(window.rows) == [(1, 1_000), (3, 1_060)]

    def test_version_bumps_on_every_change(self):
        window = RowHistory(["v"], RetentionPolicy("count", 1))
        v0 = window.version
        window.append((1, 1))
        assert window.version == v0 + 1
        window.append((2, 2))     # evict + append
        assert window.version == v0 + 3
        expiring = RowHistory(["v"], RetentionPolicy("time", 10))
        expiring.append((1, 1))
        expiring.view(100)        # expiry
        assert expiring.version == 2

    def test_window_len_is_consistent(self):
        count = RowHistory(["v"], RetentionPolicy("count", 3))
        for i in range(5):
            count.append((i, i))
        assert len(count) == len(count.read()) == 3
        time_window = RowHistory(["v"], RetentionPolicy("time", 50))
        for stamp in (100, 120, 400):
            time_window.append((1, stamp))
        # Counting never moves the horizon; a read at 400 does.
        assert len(time_window) == 3
        assert len(time_window.view(400)[0]) == len(time_window) == 1

    def test_time_window_synchronize_reports_future_elements(self):
        window = RowHistory(["v"], RetentionPolicy("time", 100))
        window.append((1, 1_000))
        assert window.view(1_000)[1] is True
        window.append((2, 2_000))
        # Query time behind the newest stamp: a filtered copy.
        assert window.view(1_500)[1] is False
        assert window.view(2_000)[1] is True


class TestGroupedAggregateState:
    """Direct delta-maintenance tests for the grouped accumulator map."""

    def build(self, sql, window_size=3):
        window = mat = RowHistory(["g", "v"],
                                  RetentionPolicy("count", window_size))
        spec = classify(plan(sql))
        assert isinstance(spec, GroupedAggregateQuery)
        poisonings = []
        state = GroupedAggregateState(spec, mat, label=sql,
                                      on_poison=poisonings.append)
        mat.add_listener(state)
        return window, mat, state, poisonings

    def element(self, g, v, timed):
        return (g, v, timed)

    def test_retraction_on_eviction(self):
        sql = "select g, count(*) as n, sum(v) as s from wrapper group by g"
        window, mat, state, poisonings = self.build(sql, window_size=2)
        window.append(self.element("a", 1, 100))
        window.append(self.element("b", 2, 101))
        assert list(state.snapshot().rows) == [("a", 1, 1), ("b", 1, 2)]
        # Evicting group "a"'s only row deletes the group entirely.
        window.append(self.element("b", 5, 102))
        assert list(state.snapshot().rows) == [("b", 2, 7)]
        # Evicting one of two "b" rows retracts it from the accumulators.
        window.append(self.element("b", 3, 103))
        assert list(state.snapshot().rows) == [("b", 2, 8)]
        assert state.healthy and not poisonings

    def test_extremum_eviction_rescans_group(self):
        sql = "select g, min(v) as lo, max(v) as hi from wrapper group by g"
        window, mat, state, __ = self.build(sql, window_size=3)
        for position, v in enumerate((1, 5, 3)):
            window.append(self.element("a", v, 100 + position))
        assert list(state.snapshot().rows) == [("a", 1, 5)]
        # Evicts v=1: the group's min must be rescanned, not guessed.
        window.append(self.element("a", 2, 103))
        assert list(state.snapshot().rows) == [("a", 2, 5)]

    def test_groups_emit_in_legacy_first_seen_order(self):
        sql = "select g, count(*) as n from wrapper group by g"
        window, mat, state, __ = self.build(sql, window_size=4)
        for position, g in enumerate(("b", "a", "b", "c")):
            window.append(self.element(g, position, 100 + position))
        legacy = execute_plan(plan(sql), Catalog({
            "wrapper": Relation(("g", "v", "timed"), list(mat.rows)),
        }))
        snapshot = state.snapshot()
        assert snapshot.columns == legacy.columns
        assert list(snapshot.rows) == list(legacy.rows) \
            == [("b", 2), ("a", 1), ("c", 1)]
        # Evicting the first "b" row makes "a" the oldest surviving
        # group; the emit order must track that, like a rebuild would.
        window.append(self.element("a", 9, 104))
        assert list(state.snapshot().rows) == [("a", 2), ("b", 1), ("c", 1)]

    def test_poisoning_on_incomparable_extremum(self):
        sql = "select g, min(v) as lo from wrapper group by g"
        window, mat, state, poisonings = self.build(sql, window_size=3)
        window.append(self.element("a", 4, 100))
        window.append(self.element("a", "oops", 101))  # int vs str min()
        assert not state.healthy
        assert len(poisonings) == 1
        assert state.poison_cause is poisonings[0]

    def test_count_of_incomparable_values_does_not_poison(self):
        # count(v) never compares values, so mixed types are fine.
        sql = "select g, count(v) as c from wrapper group by g"
        window, mat, state, poisonings = self.build(sql, window_size=2)
        window.append(self.element("a", 4, 100))
        window.append(self.element("a", "oops", 101))
        window.append(self.element("a", None, 102))
        assert state.healthy and not poisonings
        assert list(state.snapshot().rows) == [("a", 1)]


class TestIncrementalJoinState:
    """Direct delta-propagation tests for the two-source equi-join."""

    SQL = ("select a.k as k, a.v as av, b.v as bv "
           "from a join b on a.k = b.k")

    def build(self, sql=None, left_size=3, right_size=3):
        spec = classify_join(plan(sql or self.SQL))
        assert spec is not None
        sides = {}
        for name, size in (("a", left_size), ("b", right_size)):
            window = RowHistory(["k", "v"], RetentionPolicy("count", size))
            sides[name] = (window, window)
        poisonings = []
        state = IncrementalJoinState(spec, sides["a"][1], sides["b"][1],
                                     label=self.SQL,
                                     on_poison=poisonings.append)
        return sides, state, poisonings

    def element(self, k, v, timed):
        return (k, v, timed)

    def check_against_legacy(self, sides, state, sql=None):
        legacy = execute_plan(plan(sql or self.SQL), Catalog({
            name: Relation(("k", "v", "timed"), list(mat.rows))
            for name, (window, mat) in sides.items()
        }))
        snapshot = state.snapshot()
        assert snapshot.columns == legacy.columns
        assert list(snapshot.rows) == list(legacy.rows)
        return list(snapshot.rows)

    def test_delta_propagation_both_directions(self):
        sides, state, poisonings = self.build()
        a_window, b_window = sides["a"][0], sides["b"][0]
        a_window.append(self.element(1, 10, 100))
        assert self.check_against_legacy(sides, state) == []
        # A right arrival pairs with the existing left row...
        b_window.append(self.element(1, 20, 101))
        assert self.check_against_legacy(sides, state) == [(1, 10, 20)]
        # ...and a left arrival probes the right index.
        a_window.append(self.element(1, 11, 102))
        b_window.append(self.element(2, 30, 103))
        a_window.append(self.element(2, 12, 104))
        assert self.check_against_legacy(sides, state) == [
            (1, 10, 20), (1, 11, 20), (2, 12, 30),
        ]
        assert state.healthy and not poisonings

    def test_eviction_retracts_matches(self):
        sides, state, __ = self.build(left_size=2, right_size=2)
        a_window, b_window = sides["a"][0], sides["b"][0]
        a_window.append(self.element(1, 10, 100))
        b_window.append(self.element(1, 20, 101))
        b_window.append(self.element(1, 21, 102))
        assert self.check_against_legacy(sides, state) == [
            (1, 10, 20), (1, 10, 21),
        ]
        # Right eviction drops that row's pairs from every left entry.
        b_window.append(self.element(1, 22, 103))
        assert self.check_against_legacy(sides, state) == [
            (1, 10, 21), (1, 10, 22),
        ]
        # Left eviction drops the entry and everything it matched.
        a_window.append(self.element(9, 11, 104))
        a_window.append(self.element(1, 12, 105))
        assert self.check_against_legacy(sides, state) == [
            (1, 12, 21), (1, 12, 22),
        ]

    def test_null_keys_never_join(self):
        sides, state, poisonings = self.build()
        sides["a"][0].append(self.element(None, 10, 100))
        sides["b"][0].append(self.element(None, 20, 101))
        sides["a"][0].append(self.element(1, 11, 102))
        sides["b"][0].append(self.element(1, 21, 103))
        assert self.check_against_legacy(sides, state) == [(1, 11, 21)]
        assert state.healthy and not poisonings

    def test_where_and_residual_filter_pairs(self):
        sql = ("select a.k as k, a.v as av, b.v as bv "
               "from a join b on a.k = b.k and a.v < b.v "
               "where b.v < 22")
        sides, state, __ = self.build(sql=sql)
        sides["a"][0].append(self.element(1, 10, 100))
        sides["b"][0].append(self.element(1, 5, 101))    # fails residual
        sides["b"][0].append(self.element(1, 21, 102))   # passes both
        sides["b"][0].append(self.element(1, 30, 103))   # fails where
        assert self.check_against_legacy(sides, state, sql=sql) \
            == [(1, 10, 21)]

    def test_poisoning_on_incomparable_residual(self):
        sql = ("select a.k as k from a join b "
               "on a.k = b.k and a.v < b.v")
        sides, state, poisonings = self.build(sql=sql)
        sides["a"][0].append(self.element(1, 10, 100))
        sides["b"][0].append(self.element(1, "oops", 101))  # int < str
        assert not state.healthy
        assert len(poisonings) == 1
        # Poisoned states ignore further deltas instead of raising.
        sides["a"][0].append(self.element(1, 11, 102))
        assert len(poisonings) == 1

    def test_detach_stops_delta_flow(self):
        sides, state, __ = self.build()
        sides["a"][0].append(self.element(1, 10, 100))
        sides["b"][0].append(self.element(1, 20, 101))
        assert list(state.snapshot().rows) == [(1, 10, 20)]
        state.detach()
        sides["b"][0].append(self.element(1, 21, 102))
        assert list(state.snapshot().rows) == [(1, 10, 20)]


def build_sensor(descriptor, value=7):
    clock = VirtualClock(10_000)
    wrapper = ScriptedWrapper()
    wrapper.script(lambda now: {"temperature": value},
                   StreamSchema.build(temperature=DataType.INTEGER))
    wrapper.attach(clock)
    wrapper.configure({})
    storage = MemoryStorage()
    table = storage.create("out", descriptor.output_structure,
                           RetentionPolicy("all"))
    sensor = VirtualSensor(descriptor, clock, {"src": wrapper},
                           output_table=table)
    return sensor, wrapper, clock, table


class TestFastPathCounters:
    def test_aggregate_path_counts_hits(self):
        descriptor = simple_mote_descriptor(window="10")
        sensor, wrapper, clock, table = build_sensor(descriptor)
        sensor.start()
        for value in (10, 20, 30):
            wrapper._producer = lambda now, v=value: {"temperature": v}
            clock.advance(100)
            wrapper.tick()
        assert table.latest()["temperature"] == 20
        counters = sensor.fast_paths.snapshot()
        assert counters["aggregate_hits"] == 3
        assert counters["legacy_queries"] == 0
        assert counters["view_hits"] == 3
        doc = sensor.status()["incremental"]
        assert doc["fast_paths"] == {"in/src": "aggregate"}

    def test_identity_path_counts_hits(self):
        descriptor = simple_mote_descriptor(
            window="10",
            source_query="select * from wrapper",
            stream_query="select avg(temperature) as temperature from src",
        )
        sensor, wrapper, clock, table = build_sensor(descriptor)
        sensor.start()
        wrapper.tick()
        assert table.latest()["temperature"] == 7
        counters = sensor.fast_paths.snapshot()
        assert counters["identity_hits"] == 1
        assert sensor.status()["incremental"]["fast_paths"] == {
            "in/src": "identity",
        }

    def test_poisoned_aggregate_falls_back_and_error_surfaces(self):
        # sum() over strings fails in the legacy engine at query time;
        # the accumulator must poison itself and reroute to legacy so
        # the pipeline error is identical.
        descriptor = simple_mote_descriptor(
            window="10",
            source_query="select sum(temperature) as temperature "
                         "from wrapper",
        )
        sensor, wrapper, clock, table = build_sensor(descriptor)
        sensor.start()
        wrapper._producer = lambda now: {"temperature": "boom"}
        wrapper.tick()
        assert sensor.lifecycle.pool.tasks_failed == 1
        assert sensor.elements_produced == 0
        counters = sensor.fast_paths.snapshot()
        assert counters["aggregate_fallbacks"] == 1
        assert counters["legacy_queries"] == 1
        assert sensor.status()["incremental"]["fast_paths"] == {
            "in/src": "aggregate (poisoned)",
        }

    def test_poisoning_increments_metric_and_logs_query_once(self, caplog):
        import logging
        descriptor = simple_mote_descriptor(
            window="10",
            source_query="select sum(temperature) as temperature "
                         "from wrapper",
        )
        sensor, wrapper, clock, table = build_sensor(descriptor)
        sensor.start()
        wrapper._producer = lambda now: {"temperature": "boom"}
        with caplog.at_level(logging.WARNING,
                             logger="repro.sqlengine.incremental"):
            wrapper.tick()
            wrapper.tick()  # already poisoned: must not log again
        assert sensor.fast_paths.snapshot()["poisoned"] == 1
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "repro.sqlengine.incremental"
                 and "poisoned" in r.getMessage()]
        assert len(lines) == 1
        # The log line names the triggering query and its sensor/stream.
        assert "sum(temperature)" in lines[0]
        assert "probe/in/src" in lines[0]

    def test_temporary_cache_reused_when_source_idle(self):
        # Time-window aggregate (legacy execution) whose window never
        # changes between triggers on the same version: second trigger
        # must reuse the cached temporary. Easier to see on a two-source
        # sensor, covered by the property tests; here we check the
        # single-source miss accounting stays exact.
        descriptor = simple_mote_descriptor(window="10")
        sensor, wrapper, clock, table = build_sensor(descriptor)
        sensor.start()
        wrapper.tick()
        wrapper.tick()
        counters = sensor.fast_paths.snapshot()
        # Every trigger mutates this source's window: no reuse possible.
        assert counters["cache_hits"] == 0
        assert counters["cache_misses"] == 2


class TestExactFloatSums:
    """A running float sum would drop whole values once a large one has
    passed through the window (1e16 absorbs the 1.0 added beside it,
    and subtracting it back leaves 0.0). The delta state sums exactly,
    so a default sensor answers what a whole-window fold answers."""

    QUERY = "select sum(v) as s, avg(v) as a from wrapper"

    def test_default_sensor_answers_the_whole_window_fold(self):
        descriptor = VirtualSensorDescriptor(
            name="floats",
            output_structure=StreamSchema.build(s=DataType.DOUBLE,
                                                a=DataType.DOUBLE),
            input_streams=(InputStreamSpec(
                name="in",
                sources=(StreamSourceSpec(
                    alias="src", address=AddressSpec("scripted"),
                    query=self.QUERY, storage_size="2"),),
                query="select * from src",
            ),),
        )
        clock = VirtualClock(10_000)
        wrapper = ScriptedWrapper()
        wrapper.script(lambda now: None, StreamSchema.build(v=DataType.DOUBLE))
        wrapper.attach(clock)
        wrapper.configure({})
        sensor = VirtualSensor(descriptor, clock, {"src": wrapper})
        outputs = []
        sensor.add_listener(lambda element: outputs.append(
            (element["s"], element["a"])))
        sensor.start()
        for value in (1e16, 1.0, 1.0):
            clock.advance(1)
            wrapper.emit({"v": value})
        assert outputs[-1] == (2.0, 1.0)
        assert sensor.fast_paths.snapshot()["aggregate_hits"] == 3
        window = sensor.ism.stream("in").source("src").window_relation()
        assert execute_plan(plan(self.QUERY), Catalog({
            "wrapper": window})).rows == [(2.0, 1.0)]


class TestNaNExtrema:
    """A NaN that arrives first must not stick as the running extremum
    once it has left the window: the interpreter answers ``(1.0, 5.0)``
    for the last window. A NaN never enters the ordered structure; the
    state defers to per-trigger execution while one is live."""

    QUERY = "select min(v) as lo, max(v) as hi from wrapper"

    def test_min_max_after_the_nan_leaves_a_count_window(self):
        descriptor = VirtualSensorDescriptor(
            name="nan",
            output_structure=StreamSchema.build(lo=DataType.DOUBLE,
                                                hi=DataType.DOUBLE),
            input_streams=(InputStreamSpec(
                name="in",
                sources=(StreamSourceSpec(
                    alias="src", address=AddressSpec("scripted"),
                    query=self.QUERY, storage_size="3"),),
                query="select * from src",
            ),),
        )
        clock = VirtualClock(10_000)
        wrapper = ScriptedWrapper()
        wrapper.script(lambda now: None, StreamSchema.build(v=DataType.DOUBLE))
        wrapper.attach(clock)
        wrapper.configure({})
        sensor = VirtualSensor(descriptor, clock, {"src": wrapper})
        outputs = []
        sensor.add_listener(lambda element: outputs.append(
            (element["lo"], element["hi"])))
        sensor.start()
        for value in (float("nan"), 5.0, 1.0, 3.0):
            clock.advance(1)
            wrapper.emit({"v": value})
        window = sensor.ism.stream("in").source("src").window_relation()
        assert execute_plan(plan(self.QUERY), Catalog({
            "wrapper": window})).rows == [(1.0, 5.0)]
        assert outputs[-1] == (1.0, 5.0)
        counters = sensor.fast_paths.snapshot()
        assert counters["aggregate_fallbacks"] == 3  # the NaN was live
        assert counters["aggregate_hits"] == 1


class TestDescriptorFlag:
    def test_default_not_serialized_and_roundtrips(self):
        descriptor = simple_mote_descriptor()
        xml = descriptor_to_xml(descriptor)
        assert "incremental" not in xml
        assert descriptor_from_xml(xml) == descriptor

    def test_obsolete_flag_is_ignored(self):
        # Descriptors written while <storage incremental="false"> was an
        # option still parse and deploy, with delta states attached.
        xml = descriptor_to_xml(simple_mote_descriptor(window="10"))
        old = xml.replace("<storage ", '<storage incremental="false" ')
        assert old != xml
        descriptor = descriptor_from_xml(old)
        assert descriptor == descriptor_from_xml(xml)
        assert "incremental" not in descriptor_to_xml(descriptor)
        sensor, wrapper, clock, table = build_sensor(descriptor)
        sensor.start()
        wrapper.tick()
        assert table.latest()["temperature"] == 7
        assert sensor.fast_paths.snapshot()["aggregate_hits"] == 1
        assert sensor.status()["incremental"]["fast_paths"] == {
            "in/src": "aggregate"}


class TestFromDicts:
    def test_keys_normalized_per_shape(self):
        relation = Relation.from_dicts(
            ["a", "b"],
            [{"A": 1, "B": 2}, {"a": 3}, {"A": 4, "B": 5}],
        )
        assert relation.rows == [(1, 2), (3, None), (4, 5)]

    def test_duplicate_case_keys_last_wins(self):
        relation = Relation.from_dicts(["a"], [{"A": 1, "a": 2}])
        assert relation.rows == [(2,)]
