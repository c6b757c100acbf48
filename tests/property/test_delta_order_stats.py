"""Property: order statistics over FIFO windows answer as a rescan does.

``min``/``max`` (:class:`IncrementalAggregateState`,
:class:`GroupedAggregateState`) and ``ORDER BY <columns> LIMIT 1``
(:class:`DeltaTopN`) keep a monotone deque under window appends and
evictions instead of rescanning the window. Each is driven through
random appends (single rows and batches) over count and time windows
and compared, step by step, with the tree-walking interpreter
(``execute_plan``) and the generated pipeline (``run_plan``) over the
window's rows. The top-1 answer is the state's best row put through the
source plan, as ``VirtualSensor`` does.

The values are the hard cases: duplicate keys (``1``, ``1.0`` and
``True`` are one key, and the earliest row must win), NULL, NaN keys
that arrive and then leave, late stamps (time windows reset their
listeners when a late row expires), several ORDER BY keys, aliases that
shadow columns, and strings beside numbers. While a NaN is in the
window a state defers (its snapshot is ``None``) and the query runs per
trigger. Mixed types make ``min``/``max`` raise in the interpreter; a
state must poison exactly at the step where that first happens.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.datatypes import DataType
from repro.sqlengine.executor import Catalog, execute_plan
from repro.sqlengine.incremental import (
    AggregateQuery, DeltaTopN, GroupedAggregateQuery, GroupedAggregateState,
    IncrementalAggregateState, TopOneQuery, classify,
)
from repro.sqlengine.parser import parse_select
from repro.sqlengine.physical import run_plan
from repro.sqlengine.planner import plan_select
from repro.sqlengine.relation import Relation
from repro.streams.history import RetentionPolicy, RowHistory

from tests.property.test_incremental_equivalence import (
    DELTA_WHERE, assert_equivalent, operations,
)

NAN = math.nan
COLUMNS = ("v", "k", "seq")

#: Keys that tie across types, NULL, NaN and values of two type ranks.
KEYS = [None, 0, 1, 1.0, True, False, 2, -1.5, 2.5, NAN, "a", "b"]
NUMBERS = [None, 0, 1, 1.0, True, -1.5, 2, 2.5, NAN]

def positive_k(row):
    return row[1] is not None and row[1] > 0


#: (query, which rows pass its WHERE, the columns whose NaN defers it)
TOP_ONE = [
    ("select * from wrapper order by v limit 1", None, (0,)),
    ("select seq, v from wrapper where k > 0 order by v desc limit 1",
     positive_k, (0,)),
    ("select v as seq, seq as v from wrapper order by seq limit 1",
     None, (0,)),
    ("select * from wrapper order by k desc, v limit 1", None, (1, 0)),
    ("select seq, k from wrapper order by wrapper.v desc, k "
     "limit 1 offset 0", None, (0, 1)),
    ("select k, v from wrapper where v is not null order by timed desc "
     "limit 1", lambda row: row[0] is not None, ()),
]
EXTREMA = [
    ("select min(v) as lo, max(v) as hi, count(v) as n from wrapper",
     None, (0,)),
    ("select max(v) as hi, min(k) as lo from wrapper where k > 0",
     positive_k, (0, 1)),
    ("select k, min(v) as lo, max(v) as hi from wrapper group by k",
     None, (0,)),
]

STATES = {AggregateQuery: IncrementalAggregateState,
          GroupedAggregateQuery: GroupedAggregateState,
          TopOneQuery: DeltaTopN}

#: (rows in one batch: (v, k), stamp offset, milliseconds to the next step)
steps = st.lists(
    st.tuples(
        st.lists(st.tuples(st.sampled_from(KEYS),
                           st.sampled_from(NUMBERS)),
                 min_size=1, max_size=3),
        st.integers(-900, 200),
        st.integers(0, 600),
    ),
    min_size=1, max_size=24,
)


def outcome(fn):
    """The rows (each value with its type; NaN matches NaN), or the
    error's class and message."""
    try:
        return ("ok", [tuple("NaN" if x != x else (type(x), x) for x in row)
                       for row in fn()])
    except Exception as exc:
        return ("error", type(exc).__name__, str(exc))


def nan_live(rows, passes, ordered):
    """Whether a passing row holds a NaN in a column the state orders."""
    return any((passes is None or passes(row))
               and any(row[i] != row[i] for i in ordered) for row in rows)


def attach(query, retention):
    relation = RowHistory(COLUMNS, retention)
    spec = classify(plan_select(parse_select(query)))
    state = STATES[type(spec)](spec, relation, label=query)
    relation.add_listener(state)
    return relation, state


def delta_answer(state, plan):
    """What the sensor answers from the state, or ``None`` (deferred)."""
    snapshot = state.snapshot()
    if snapshot is None or not isinstance(state, DeltaTopN):
        return snapshot
    return run_plan(plan, Catalog({"wrapper": snapshot}))[0]


def check(case, kind, ops):
    query, passes, ordered = case
    relation, state = attach(query, RetentionPolicy(
        kind, 4 if kind == "count" else 1_000))
    interpreted = plan_select(parse_select(query))
    emitted = plan_select(parse_select(query))

    def over(rows):
        catalog = Catalog({"wrapper": Relation(relation.columns, list(rows))})
        oracle = outcome(lambda: execute_plan(interpreted, catalog).rows)
        compiled = outcome(lambda: run_plan(emitted, catalog)[0].rows)
        assert compiled == oracle, (compiled, oracle)
        return oracle

    now, seq = 0, 0
    for batch, offset, step in ops:
        rows = []
        for v, k in batch:
            seq += 1
            rows.append((v, k, seq, max(now + offset, 0)))
        healthy = state.healthy
        relation.extend(rows)
        # The state holds what the history holds: it poisons exactly
        # when the interpreter over those rows first raises, unless a
        # NaN hides the type clash from its ordered values.
        clash = over(relation.rows)[0] == "error"
        if healthy and not state.healthy:
            assert clash, state.poison_cause
        if clash and state.healthy:
            assert nan_live(relation.rows, passes, ordered)
        now += step
        window, live = relation.view(now)  # time windows expire here
        oracle = over(window.rows)
        if not live or not state.healthy:
            continue  # the sensor runs the query per trigger
        answer = delta_answer(state, emitted)
        if answer is not None:
            assert outcome(lambda: answer.rows) == oracle, list(window.rows)
        assert (answer is None) == nan_live(relation.rows, passes, ordered)


@pytest.mark.parametrize("kind", ["count", "time"])
@pytest.mark.parametrize("case", TOP_ONE + EXTREMA,
                         ids=[case[0] for case in TOP_ONE + EXTREMA])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(ops=steps)
def test_order_statistics_match_a_rescan(case, kind, ops):
    check(case, kind, ops)


def feed(query, values, window=3):
    relation, state = attach(query, RetentionPolicy("count", window))
    plan = plan_select(parse_select(query))
    answers = []
    for position, (v, k) in enumerate(values):
        relation.append((v, k, position, position))
        answer = delta_answer(state, plan)
        answers.append(None if answer is None else list(answer.rows))
    return answers


def test_nan_leaving_the_window_restores_min_max():
    # The state defers while the NaN is live, then answers the
    # interpreter's (1.0, 5.0), not a NaN stuck as the extremum.
    answers = feed("select min(v) as lo, max(v) as hi from wrapper",
                   [(NAN, 0), (5.0, 0), (1.0, 0), (3.0, 0)])
    assert answers == [None, None, None, [(1.0, 5.0)]]


def test_earliest_of_equal_keys_wins():
    answers = feed("select min(v) as lo, max(v) as hi from wrapper",
                   [(1, 0), (1.0, 0), (True, 0)])
    assert [[tuple(map(type, row)) for row in rows] for rows in answers] \
        == [[(int, int)]] * 3
    answers = feed("select seq, v from wrapper order by v desc limit 1",
                   [(1, 0), (1.0, 0), (True, 0), (0, 0)])
    assert [[(seq, type(v)) for seq, v in rows] for rows in answers] \
        == [[(0, int)]] * 3 + [[(1, float)]]


def test_min_over_a_rising_series_keeps_every_candidate():
    relation, state = attach("select min(v) as lo from wrapper",
                             RetentionPolicy("count", 100))
    for value in range(1_000):
        relation.append((value, 0, value, value))
        assert state.snapshot().rows == [(max(0, value - 99),)]
    assert state.healthy


def test_top_one_through_the_sensor():
    """The pipeline's own ladder: state, then the source plan over the
    best row; the NaN deferral is a counted fallback."""
    fields = {"temperature": DataType.DOUBLE, "label": DataType.VARCHAR}
    counters = assert_equivalent(
        [("src", "3", "select temperature, label from wrapper "
                      "order by temperature desc, label limit 1")],
        "select * from src", fields,
        [("emit", 0, value, 0, "t1") for value in
         (1.0, NAN, 2.0, 3.0, 0.5, 0.25, 0.125)])
    assert counters["aggregate_hits"] == 4
    assert counters["aggregate_fallbacks"] == 3


@settings(max_examples=20, deadline=None, derandomize=True)
@given(ops=operations, where=DELTA_WHERE,
       window=st.sampled_from(["4", "2s"]))
def test_top_one_delta_where_corpus(ops, where, window):
    fields = {"temperature": DataType.DOUBLE, "label": DataType.VARCHAR}
    assert_equivalent(
        [("src", window, f"select * from wrapper where {where} "
                         f"order by temperature desc limit 1")],
        "select temperature, label from src", fields, ops)
