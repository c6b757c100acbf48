"""Property: SUM and AVG over a window are exact on every path.

SQL ``sum`` over ints and doubles is the exact sum of the values,
rounded once to the nearest double (all-int inputs stay an exact int);
``avg`` is that sum divided by the count. ``inf + -inf`` and any NaN
give NaN, and an exact sum past the double range gives ±inf.

Three evaluators must give that answer: the delta states
(:class:`IncrementalAggregateState`, :class:`GroupedAggregateState`)
under window appends and evictions, the tree-walking interpreter
(``execute_plan``) and the generated pipeline (``run_plan``) over the
window's rows. They are compared with ``==`` and the same type, NaN
matching NaN. For finite inputs all three must also equal an oracle
outside the engine: ``Fraction`` arithmetic, rounded by ``float``.

Values are adversarial: cancelling magnitudes (``1e16`` beside ``1``),
``0.1``, subnormals, values near the double range, infinities, NaN and
ints past 2**53 mixed with doubles (windows do not type-check).

The same values feed ``min``/``max``: with no NaN in the window all
three evaluators answer builtin ``min``/``max`` of the non-null values
(the first of equal values, so ``1`` beside ``1.0`` keeps its type);
while a NaN is in the window the delta states defer (their snapshot is
``None``) and the query runs per trigger.
"""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqlengine.executor import Catalog, execute_plan
from repro.sqlengine.incremental import (
    GroupedAggregateQuery, GroupedAggregateState, IncrementalAggregateState,
    classify,
)
from repro.sqlengine.parser import parse_select
from repro.sqlengine.physical import run_plan
from repro.sqlengine.planner import plan_select
from repro.sqlengine.relation import Relation
from repro.streams.history import RetentionPolicy, RowHistory

ADVERSARIAL = [
    1e16, -1e16, 1.0, -1.0, 1e16 + 2, 0.1, -0.1, 0.3,
    5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
    1e308, -1e308, sys.float_info.max, -sys.float_info.max,
    math.inf, -math.inf, math.nan, 0.0, -0.0,
    0, 1, -1, 2 ** 53 + 1, -(2 ** 60 + 3), 10 ** 16 + 1, True,
]

values = st.one_of(
    st.none(),
    st.sampled_from(ADVERSARIAL),
    st.floats(),
    st.integers(-(2 ** 70), 2 ** 70),
)

#: (value, group, milliseconds to the next arrival)
arrivals = st.lists(
    st.tuples(values, st.sampled_from(["a", "b"]), st.integers(0, 700)),
    min_size=1, max_size=30,
)

FLAT = ("select count(*) as n, count(v) as c, sum(v) as s, avg(v) as a "
        "from wrapper")
GROUPED = ("select g, count(*) as n, sum(v) as s, avg(v) as a "
           "from wrapper group by g")
EXTREMA = "select count(v) as c, min(v) as lo, max(v) as hi from wrapper"
GROUPED_EXTREMA = ("select g, min(v) as lo, max(v) as hi "
                   "from wrapper group by g")


def same(x, y):
    """``==`` with the same type; NaN matches NaN."""
    if isinstance(x, float) and isinstance(y, float) and x != x:
        return y != y
    return type(x) is type(y) and x == y


def same_rows(left, right):
    return len(left) == len(right) and all(
        len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
        for a, b in zip(left, right))


def extrema_answer(column):
    """(min, max) of the non-null values by builtin min/max; None when a
    NaN is among them (NaN has no place in an order)."""
    present = [v for v in column if v is not None]
    if any(v != v for v in present):
        return None
    return (min(present), max(present)) if present else (None, None)


def exact_answer(column):
    """(sum, avg) of the non-null values by Fraction arithmetic; None
    when an infinity or NaN is among them."""
    present = [v for v in column if v is not None]
    if not present:
        return None, None
    if any(isinstance(v, float) and not math.isfinite(v) for v in present):
        return None
    total = sum(map(Fraction, present))
    if all(isinstance(v, int) for v in present):
        return int(total), int(total) / len(present)
    try:
        rounded = float(total)
    except OverflowError:
        rounded = math.inf if total > 0 else -math.inf
    return rounded, rounded / len(present)


def attach(sql, retention):
    """A window history and the delta state answering ``sql``."""
    relation = RowHistory(["v", "g"], retention)
    spec = classify(plan_select(parse_select(sql)))
    state_class = (GroupedAggregateState
                   if isinstance(spec, GroupedAggregateQuery)
                   else IncrementalAggregateState)
    state = state_class(spec, relation, label=sql)
    relation.add_listener(state)
    return relation, state


def check(sql, kind, ops):
    relation, state = attach(sql, RetentionPolicy(kind, 4 if kind == "count"
                                                  else 1_500))
    interpreted = plan_select(parse_select(sql))
    emitted = plan_select(parse_select(sql))
    now = 0
    for value, group, step in ops:
        relation.append((value, group, now))
        now += step
        relation.view(now)              # time windows expire here
        catalog = Catalog({"wrapper": Relation(relation.columns,
                                               list(relation.rows))})
        snapshot = state.snapshot()
        oracle = execute_plan(interpreted, catalog).rows
        pipeline, compiled = run_plan(emitted, catalog)
        assert compiled
        assert state.healthy
        extrema = sql in (EXTREMA, GROUPED_EXTREMA)
        nan = any(row[0] != row[0] for row in relation.rows)
        assert (snapshot is None) == (extrema and nan)
        if snapshot is not None:
            assert same_rows(snapshot.rows, oracle), (snapshot.rows, oracle)
        assert same_rows(list(pipeline.rows), oracle), (pipeline.rows, oracle)
        groups = {}
        for row in relation.rows:
            groups.setdefault(row[1], []).append(row[0])
        for row in oracle:
            column = (groups[row[0]] if sql in (GROUPED, GROUPED_EXTREMA)
                      else [r[0] for r in relation.rows])
            expected = (extrema_answer if extrema else exact_answer)(column)
            if expected is not None:
                assert same_rows([row[-2:]], [expected]), (row, column)


@pytest.mark.parametrize("kind", ["count", "time"])
@pytest.mark.parametrize("sql", [FLAT, GROUPED], ids=["flat", "grouped"])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(ops=arrivals)
def test_exact_window_sums(sql, kind, ops):
    check(sql, kind, ops)


@pytest.mark.parametrize("kind", ["count", "time"])
@pytest.mark.parametrize("sql", [EXTREMA, GROUPED_EXTREMA],
                         ids=["flat", "grouped"])
@settings(max_examples=50, deadline=None, derandomize=True)
@given(ops=arrivals)
def test_window_extrema_over_adversarial_values(sql, kind, ops):
    check(sql, kind, ops)


@pytest.mark.parametrize("column, expected", [
    ([1e16, 1.0, 1.0], (1e16 + 2, (1e16 + 2) / 3)),
    ([1.0, 1.0], (2.0, 1.0)),
    ([math.inf, -math.inf], (math.nan, math.nan)),
    ([math.inf, 1e308, 1e308], (math.inf, math.inf)),
    ([1e308, 1e308], (math.inf, math.inf)),
    ([-1e308, -1e308, 5.0], (-math.inf, -math.inf)),
    ([1e308, 1e308, -1e308], (1e308, 1e308 / 3)),
    ([10 ** 400, 1.5], (math.inf, math.inf)),
    ([2 ** 53 + 1, 0.5], (float(2 ** 53 + 2), float(2 ** 53 + 2) / 2)),
    ([2 ** 53 + 1, 2], (2 ** 53 + 3, (2 ** 53 + 3) / 2)),
])
def test_fixed_answers(column, expected):
    sql = "select sum(v) as s, avg(v) as a from wrapper"
    relation, state = attach(sql, RetentionPolicy("count", len(column)))
    for value in column:
        relation.append((value, "a", 0))
    catalog = Catalog({"wrapper": Relation(relation.columns,
                                           list(relation.rows))})
    plan = plan_select(parse_select(sql))
    for rows in (state.snapshot().rows, execute_plan(plan, catalog).rows,
                 run_plan(plan, catalog)[0].rows):
        assert same_rows(list(rows), [expected]), rows
