"""Property: a statically-eligible verdict is a no-poison proof.

gsn-plan's contract with the runtime is that ``source_query_verdict``
only answers *eligible* when the incremental accumulator provably cannot
poison itself on any data the wrapper can produce. This test generates
random aggregate queries over a two-column integer wrapper schema plus
random data streams (including NULLs and evictions through a small count
window) and checks that every statically-eligible query

1. attaches (the runtime classifier agrees),
2. never poisons while the window churns, and
3. answers every snapshot exactly like the legacy executor.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis.planpass import source_query_verdict
from repro.datatypes import DataType
from repro.sqlengine.executor import Catalog, execute_plan
from repro.sqlengine.incremental import (
    AggregateQuery, IncrementalAggregateState, classify,
)
from repro.sqlengine.parser import parse_select
from repro.sqlengine.planner import plan_select
from repro.sqlengine.relation import Relation
from repro.streams.history import RetentionPolicy, RowHistory

SCHEMA = {"v": DataType.INTEGER, "w": DataType.INTEGER,
          "timed": DataType.INTEGER}

columns = st.sampled_from(["v", "w"])
constants = st.integers(-5, 5)

comparisons = st.builds(
    lambda c, op, k: f"{c} {op} {k}",
    columns, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), constants,
)
betweens = st.builds(
    lambda c, low, high: f"{c} between {low} and {high}",
    columns, constants, constants,
)
null_tests = st.builds(
    lambda c, neg: f"{c} is {'not ' if neg else ''}null",
    columns, st.booleans(),
)
in_lists = st.builds(
    lambda c, ks: f"{c} in ({', '.join(str(k) for k in ks)})",
    columns, st.lists(constants, min_size=1, max_size=3),
)
atoms = st.one_of(comparisons, betweens, null_tests, in_lists)
predicates = st.one_of(
    atoms,
    st.builds(lambda a, op, b: f"({a}) {op} ({b})",
              atoms, st.sampled_from(["and", "or"]), atoms),
)

aggregate_items = st.lists(
    st.sampled_from(["count(*) as n", "sum(v) as s", "avg(v) as a",
                     "min(v) as mn", "max(w) as mx", "count(w) as c"]),
    min_size=1, max_size=4, unique=True,
)

queries = st.builds(
    lambda items, where: (
        f"select {', '.join(items)} from wrapper"
        + (f" where {where}" if where else "")
    ),
    aggregate_items,
    st.one_of(st.none(), predicates),
)

cells = st.one_of(st.none(), st.integers(-50, 50))
streams = st.lists(st.tuples(cells, cells), min_size=0, max_size=20)


@settings(max_examples=200, deadline=None)
@given(sql=queries, data=streams, window_size=st.integers(1, 5))
def test_eligible_queries_never_poison(sql, data, window_size):
    plan = plan_select(parse_select(sql))
    verdict = source_query_verdict(plan, "count", SCHEMA)
    assert verdict.eligible, (sql, verdict)

    classified = classify(plan)
    assert isinstance(classified, AggregateQuery), sql

    mirror = RowHistory(["v", "w"], RetentionPolicy("count", window_size))
    poisonings = []
    state = IncrementalAggregateState(classified, mirror, label=sql,
                                      on_poison=poisonings.append)
    mirror.add_listener(state)

    for position, (v, w) in enumerate(data):
        mirror.append((v, w, 1000 + position))
        assert state.healthy, (sql, data[:position + 1], state.poison_cause)

        incremental = state.snapshot()
        legacy = execute_plan(plan, Catalog({
            "wrapper": Relation(("v", "w", "timed"), list(mirror.rows)),
        }))
        assert incremental.columns == legacy.columns, sql
        assert list(incremental.rows) == list(legacy.rows), \
            (sql, data[:position + 1])
    assert not poisonings
