"""Property: the delta states change nothing but the cost.

Two sensors are built from the same descriptor — a default one and a
:class:`~tests.conftest.WholeWindowSensor` twin that attaches no running
accumulators or joins — and driven through the same random operation
sequence: emissions with jittered (out-of-order and future) timestamps,
clock advances, disconnect/reconnect cycles. Every output element
(values and timestamp) must match exactly. The twin answers through the
version-keyed cache and the compiled pipeline; both are in turn checked,
trigger by trigger, against the tree-walking interpreter over the
rebuilt window (``SourceRuntime.window_relation``), which stays the
oracle: the same rows, or the same error class and message.

Values mix integers and doubles: sums are exact on every path, so the
answers compare with ``==``.
"""

from hypothesis import given, settings, strategies as st

from repro.datatypes import DataType
from repro.descriptors.model import (
    AddressSpec, InputStreamSpec, StreamSourceSpec, VirtualSensorDescriptor,
)
from repro.gsntime.clock import VirtualClock
from repro.sqlengine.executor import Catalog, execute_plan
from repro.sqlengine.parser import parse_select
from repro.sqlengine.planner import plan_select
from repro.sqlengine.relation import Relation
from repro.sqlengine.rewriter import WRAPPER_TABLE
from repro.storage.base import RetentionPolicy
from repro.storage.memory import MemoryStorage
from repro.streams.schema import StreamSchema
from repro.vsensor.virtual_sensor import VirtualSensor
from repro.wrappers.scripted import ScriptedWrapper

from tests.conftest import WholeWindowSensor

SCHEMA = StreamSchema.build(temperature=DataType.DOUBLE,
                            label=DataType.VARCHAR)

START = 10_000

values = st.one_of(st.none(), st.integers(-50, 50),
                   st.floats(-50, 50),
                   st.sampled_from([0.1, 1e16, -1e16, 2.0 ** 60 + 1]))
labels = st.one_of(st.none(), st.sampled_from(["t1", "t15", "x", ""]))
jitters = st.integers(-2_500, 2_500)
selectors = st.integers(0, 1)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("emit"), selectors, values, jitters, labels),
        st.tuples(st.just("advance"), st.integers(1, 3_000)),
        st.tuples(st.just("disconnect"), selectors),
        st.tuples(st.just("reconnect"), selectors),
    ),
    min_size=1, max_size=25,
)


def make_descriptor(source_specs, stream_query, output_fields):
    return VirtualSensorDescriptor(
        name="equiv",
        output_structure=StreamSchema.build(**output_fields),
        input_streams=(InputStreamSpec(
            name="in",
            sources=tuple(
                StreamSourceSpec(
                    alias=alias, address=AddressSpec("scripted"),
                    query=query, storage_size=window,
                    disconnect_buffer=4,
                )
                for alias, window, query in source_specs
            ),
            query=stream_query,
        ),),
    )


def outcome(fn):
    """The rows, or the error's class and message."""
    try:
        return ("ok", fn())
    except Exception as exc:
        return ("error", type(exc).__name__, str(exc))


def oracle(sensor):
    """The interpreter over the rebuilt windows at the sensor's clock,
    mapped onto the output structure as the sensor maps its result."""
    now = sensor.clock.now()
    stream = sensor.ism.stream("in")
    temporaries = Catalog()
    for source in stream.sources:
        plan = plan_select(parse_select(source.spec.query))
        window = Catalog({WRAPPER_TABLE: source.window_relation(now)})
        temporaries.register(source.spec.alias, execute_plan(plan, window))
    plan = plan_select(parse_select(stream.spec.query))
    return [sensor._to_output_values(row)
            for row in execute_plan(plan, temporaries).to_dicts()]


def run_ops(descriptor, aliases, ops, sensor_class=VirtualSensor):
    """Drive one sensor through the op sequence; return its outputs,
    the sensor and the rows it was sent. Every trigger is checked
    against the oracle as it happens."""
    clock = VirtualClock(START)
    wrappers = {}
    for alias in aliases:
        wrapper = ScriptedWrapper()
        wrapper.script(lambda now: None, SCHEMA)
        wrapper.attach(clock)
        wrapper.configure({})
        wrappers[alias] = wrapper
    table = MemoryStorage().create("out", descriptor.output_structure,
                                   RetentionPolicy("all"))
    sensor = sensor_class(descriptor, clock, wrappers, output_table=table)
    outputs = []
    sensor.add_listener(
        lambda el, sink=outputs: sink.append((el.timed, dict(el.values)))
    )
    pool = sensor.lifecycle.pool
    sent = []
    sensor.start()
    for op in ops:
        kind = op[0]
        if kind == "emit":
            alias = aliases[op[1] % len(aliases)]
            produced, ran = len(outputs), pool.tasks_completed
            failed = len(pool.errors())
            sent.append((op[2], op[4], clock.now() + op[3]))
            wrappers[alias].emit({"temperature": op[2], "label": op[4]},
                                 timed=sent[-1][2])
            if pool.tasks_completed > ran:
                observed = ("ok", [values for __, values
                                   in outputs[produced:]])
            elif len(pool.errors()) > failed:
                error = pool.errors()[-1]
                observed = ("error", type(error).__name__, str(error))
            else:
                continue  # buffered, sampled out or slide-held: no trigger
            assert observed == outcome(lambda: oracle(sensor)), op
        elif kind == "advance":
            clock.advance(op[1])
        elif kind == "disconnect":
            alias = aliases[op[1] % len(aliases)]
            sensor.ism.stream("in").source(alias).disconnect()
        elif kind == "reconnect":
            alias = aliases[op[1] % len(aliases)]
            sensor.ism.stream("in").source(alias).reconnect()
    return outputs, sensor, sent


def assert_equivalent(source_specs, stream_query, output_fields, ops,
                      aliases=("src",)):
    inc = make_descriptor(source_specs, stream_query, output_fields)
    inc_out, inc_sensor, sent = run_ops(inc, aliases, ops)
    twin_out, twin_sensor, __ = run_ops(inc, aliases, ops,
                                        sensor_class=WholeWindowSensor)
    assert inc_out == twin_out
    assert inc_sensor.elements_produced == twin_sensor.elements_produced
    twin_counters = twin_sensor.fast_paths.snapshot()
    assert twin_counters["identity_hits"] == 0
    assert twin_counters["aggregate_hits"] == 0
    assert twin_counters["join_hits"] == 0
    assert twin_counters["interpreted_queries"] == 0
    # A poisoned state's cause is the error the interpreter raises for
    # one of the rows sent (the state may fold a future-stamped row the
    # query at trigger time does not see yet, so not a trigger's error).
    queries = {source.alias: source.query
               for source in inc.input_streams[0].sources}
    for (__, alias), state in inc_sensor._agg_states.items():
        if not state.healthy:
            plan = plan_select(parse_select(queries[alias]))
            raised = [outcome(lambda: execute_plan(plan, Catalog({
                WRAPPER_TABLE: Relation(state.relation.columns, [row])})))
                for row in sent]
            cause = state.poison_cause
            assert ("error", type(cause).__name__, str(cause)) in raised
    return inc_sensor.fast_paths.snapshot()


AGG_FIELDS = {
    "n": DataType.INTEGER, "c": DataType.INTEGER, "s": DataType.DOUBLE,
    "a": DataType.DOUBLE, "lo": DataType.DOUBLE, "hi": DataType.DOUBLE,
}
AGG_QUERY = (
    "select count(*) as n, count(temperature) as c, "
    "sum(temperature) as s, avg(temperature) as a, "
    "min(temperature) as lo, max(temperature) as hi from wrapper"
)

GROUP_FIELDS = {
    "temperature": DataType.DOUBLE, "n": DataType.INTEGER,
    "s": DataType.DOUBLE, "lo": DataType.DOUBLE,
}
GROUP_QUERY = (
    "select temperature, count(*) as n, sum(temperature) as s, "
    "min(temperature) as lo from wrapper"
)

#: Delta WHERE clauses: every predicate form over INTEGER, VARCHAR and
#: NULL operands, and one that raises (negative ``sqrt``) for poison
#: parity.
DELTA_WHERE = st.sampled_from([
    "label like 't1%'",
    "label not like '_'",
    "temperature in (1, null, 3) or temperature not in (5, null)",
    "temperature between -10 and 10",
    "temperature not between -20 and 20",
    "case when temperature > 0 then label else 'neg' end like 't%'",
    "cast(temperature as varchar) like '1%'",
    "cast(label as varchar) = 't1'",
    "label is not null and temperature is null",
    "label || 'x' = 't1x' or temperature >= 5",
    "sqrt(temperature) < 5",
])


class TestIncrementalEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(ops=operations)
    def test_count_window_aggregates(self, ops):
        assert_equivalent(
            [("src", "4", AGG_QUERY)], "select * from src", AGG_FIELDS,
            ops,
        )

    @settings(max_examples=60, deadline=None)
    @given(ops=operations)
    def test_count_window_aggregates_with_where(self, ops):
        assert_equivalent(
            [("src", "5",
              AGG_QUERY + " where temperature >= 5")],
            "select * from src", AGG_FIELDS, ops,
        )

    @settings(max_examples=40, deadline=None)
    @given(ops=operations, where=DELTA_WHERE,
           window=st.sampled_from(["4", "2s"]))
    def test_delta_where_corpus_flat(self, ops, where, window):
        assert_equivalent(
            [("src", window, f"{AGG_QUERY} where {where}")],
            "select * from src", AGG_FIELDS, ops,
        )

    @settings(max_examples=40, deadline=None)
    @given(ops=operations, where=DELTA_WHERE,
           window=st.sampled_from(["4", "3s"]))
    def test_delta_where_corpus_grouped(self, ops, where, window):
        assert_equivalent(
            [("src", window,
              f"{GROUP_QUERY} where {where} group by temperature")],
            "select * from src", GROUP_FIELDS, ops,
        )

    @settings(max_examples=60, deadline=None)
    @given(ops=operations)
    def test_identity_over_count_window(self, ops):
        assert_equivalent(
            [("src", "6", "select * from wrapper")],
            "select temperature, timed from src",
            {"temperature": DataType.DOUBLE},
            ops,
        )

    @settings(max_examples=60, deadline=None)
    @given(ops=operations)
    def test_time_window_with_out_of_order_arrivals(self, ops):
        # Time-window aggregates ride the accumulators too (eviction
        # arrives through the same observer protocol); out-of-order and
        # future-stamped elements exercise the faithfulness checks.
        assert_equivalent(
            [("src", "2s", AGG_QUERY)], "select * from src", AGG_FIELDS,
            ops,
        )

    @settings(max_examples=60, deadline=None)
    @given(ops=operations)
    def test_grouped_aggregates_over_count_window(self, ops):
        assert_equivalent(
            [("src", "4", GROUP_QUERY + " group by temperature")],
            "select * from src", GROUP_FIELDS, ops,
        )

    @settings(max_examples=60, deadline=None)
    @given(ops=operations)
    def test_grouped_aggregates_over_time_window(self, ops):
        assert_equivalent(
            [("src", "3s", GROUP_QUERY + " group by temperature")],
            "select * from src", GROUP_FIELDS, ops,
        )

    @settings(max_examples=60, deadline=None)
    @given(ops=operations)
    def test_equi_join_over_mixed_windows(self, ops):
        # Identity sources + a two-source equi-join stream query: the
        # delta-maintained join (when it can serve the trigger) and the
        # compiled re-execution must agree element for element.
        assert_equivalent(
            [("a", "3", "select * from wrapper"),
             ("b", "2s", "select * from wrapper")],
            "select a.temperature as ta, b.temperature as tb "
            "from a join b on a.temperature = b.temperature "
            "where a.temperature > -25",
            {"ta": DataType.DOUBLE, "tb": DataType.DOUBLE},
            ops,
            aliases=("a", "b"),
        )

    @settings(max_examples=60, deadline=None)
    @given(ops=operations)
    def test_multi_source_single_firing(self, ops):
        # Only one source fires per emission: the idle source's
        # temporary must be served from the cache and still join
        # identically.
        assert_equivalent(
            [("a", "3", "select min(temperature) as lo from wrapper"),
             ("b", "5", "select max(temperature) as hi from wrapper")],
            "select a.lo as lo, b.hi as hi from a, b",
            {"lo": DataType.DOUBLE, "hi": DataType.DOUBLE},
            ops,
            aliases=("a", "b"),
        )
