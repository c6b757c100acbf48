"""Properties of the source-generated pipeline stages.

The fused Filter, the fused Project and Top-N are generated Python; the
tree-walking interpreter (``_Executor.eval``) is their oracle — the
only two expression evaluators there are. These properties drive them
over values the inlined fast paths must *not* claim — ``bool``, ``str``,
``bytes``, ``None``, NaN and infinities beside exact ``int`` / ``float``
— and over a fixed corpus of expression texts, and require the same
rows, or the same exception class and message.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqlengine.executor import Catalog, execute_plan
from repro.sqlengine.parser import parse_select
from repro.sqlengine.physical import catalog_schemas, run_plan, try_compile
from repro.sqlengine.planner import plan_select
from repro.sqlengine.relation import Relation

COLUMNS = ("a", "b", "c")

#: One shared NaN object among fresh ones: tuple comparison treats the
#: same object as equal to itself, so both cases must agree.
NAN = math.nan

values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-6, 6),
    st.integers(-10 ** 30, 10 ** 30),
    st.sampled_from([0.0, -0.0, 1.5, -2.5, 4.0, 1e308, -1e308,
                     math.inf, -math.inf, NAN, float("nan")]),
    st.sampled_from(["", "x", "yy", "Z", "10"]),
    st.sampled_from([b"", b"x", b"yy", bytearray(b"x")]),
)
rows = st.lists(st.tuples(values, values, values), max_size=12)

literals = st.sampled_from(
    ["0", "1", "2", "-3", "1.5", "0.0", "1e400", "null", "'x'", "''",
     "true", "false", "100000000000000000000"])
operands = st.recursive(
    st.one_of(st.sampled_from(COLUMNS), literals),
    lambda inner: st.one_of(
        st.builds("({} {} {})".format, inner,
                  st.sampled_from(["+", "-", "*", "/", "%", "||"]), inner),
        st.builds("(- {})".format, inner),  # "--" opens a comment
    ),
    max_leaves=4,
)
comparisons = st.one_of(
    st.builds("{} {} {}".format, operands,
              st.sampled_from(["=", "<>", "<", "<=", ">", ">="]), operands),
    st.builds("{} is null".format, operands),
    st.builds("{} in ({}, {})".format, operands, operands, operands),
    st.builds("{} not between {} and {}".format, operands, operands,
              operands),
    operands,  # a bare value is a predicate by its truthiness
)
predicates = st.recursive(
    comparisons,
    lambda inner: st.one_of(
        st.builds("({} and {})".format, inner, inner),
        st.builds("({} or {})".format, inner, inner),
        st.builds("(not {})".format, inner),
    ),
    max_leaves=6,
)


def compiled_and_plan(sql, catalog):
    plan = plan_select(parse_select(sql))
    pipeline = try_compile(plan, catalog_schemas(plan, catalog))
    assert pipeline is not None, (sql, getattr(plan, "_phys_reason", None))
    return pipeline, plan


def outcome(fn):
    """Rows, or the error's class and message — any error, since the
    helpers let a few (``int(nan)``) through unwrapped."""
    try:
        relation = fn()
    except Exception as exc:
        return ("error", type(exc).__name__, str(exc))
    # A computed NaN is a fresh object on each side: compare by name.
    return ("ok", tuple(relation.columns), [
        tuple("NaN" if isinstance(value, float) and value != value
              else value for value in row) for row in relation.rows])


def assert_same(sql, catalog):
    pipeline, plan = compiled_and_plan(sql, catalog)
    assert outcome(lambda: pipeline.execute(catalog)) \
        == outcome(lambda: execute_plan(plan, catalog)), \
        (sql, pipeline.source)


@settings(max_examples=400, deadline=None)
@given(t=rows, predicate=predicates)
def test_generated_predicate_matches_interpreter(t, predicate):
    catalog = Catalog({"t": Relation(COLUMNS, t)})
    assert_same(f"select * from t where {predicate}", catalog)
    # The flattened conjunction: NULL conjuncts do not stop evaluation.
    assert_same(f"select a from t where b is not null and {predicate} "
                f"and (c = c)", catalog)


@settings(max_examples=200, deadline=None)
@given(t=rows, items=st.lists(st.one_of(operands, predicates),
                              min_size=1, max_size=3))
def test_generated_projection_matches_interpreter(t, items):
    catalog = Catalog({"t": Relation(COLUMNS, t)})
    select = ", ".join(f"{item} as x{i}" for i, item in enumerate(items))
    assert_same(f"select a, {select}, * from t", catalog)
    assert_same(f"select {select}, count(*) as n from t group by a",
                catalog)


#: Every expression form, over a small (a INT, b INT, s VARCHAR) table.
EXPRESSION_COLUMNS = ("a", "b", "s")
EXPRESSION_TEXTS = [
    "a + b * 2",
    "a - b",
    "-a",
    "+a",
    "not (a > b)",
    "a > 0 and b < 5",
    "a > 0 or s = 'x'",
    "a = b or a <> b",
    "a is null",
    "s is not null",
    "a in (1, 2, 3)",
    "a not in (1, null)",
    "a between -10 and 10",
    "a not between b and 50",
    "s like 'x%'",
    "s not like '_'",
    "a || s",
    "abs(a)",
    "coalesce(a, b, 0)",
    "nullif(b, 3)",
    "length(s)",
    "upper(s) || lower(s)",
    "case when a > 0 then 'pos' when a < 0 then 'neg' else 'z' end",
    "case b when 1 then 'one' when 2 then 'two' end",
    "cast(a as double)",
    "cast(b as varchar)",
    "a / b",
    "a % b",
    "a / 0",
    "sqrt(a)",          # raises for negative a on both evaluators
    "'lit' = s",
]
expression_rows = st.lists(st.tuples(
    st.one_of(st.none(), st.integers(-50, 50)),
    st.one_of(st.none(), st.integers(0, 9)),
    st.one_of(st.none(), st.sampled_from(["x", "yy", "Z", ""])),
), max_size=4)


@settings(max_examples=300, deadline=None)
@given(t=expression_rows, text=st.sampled_from(EXPRESSION_TEXTS))
def test_expression_corpus_matches_interpreter(t, text):
    catalog = Catalog({"t": Relation(EXPRESSION_COLUMNS, t)})
    assert_same(f"select {text} as x from t", catalog)
    assert_same(f"select * from t where {text}", catalog)
    assert_same(f"select b, max({text}) as x from t group by b "
                f"having count(*) > 1 or min({text}) = max({text})", catalog)


@settings(max_examples=50, deadline=None)
@given(t=expression_rows)
def test_subquery_expressions_stay_on_the_interpreter(t):
    catalog = Catalog({"t": Relation(EXPRESSION_COLUMNS, t)})
    plan = plan_select(parse_select(
        "select a from t where a in (select b from t) "
        "and exists (select 1 from t where b = 1)"))
    assert try_compile(plan, catalog_schemas(plan, catalog)) is None
    assert plan._phys_reason == "subquery expression"
    result, compiled = run_plan(plan, catalog)
    assert not compiled
    assert outcome(lambda: result) \
        == outcome(lambda: execute_plan(plan, catalog))


order_values = st.one_of(
    st.none(), st.booleans(), st.integers(0, 2),
    st.sampled_from([0.5, 1.0, 2.0, NAN, float("nan"), math.inf]),
    st.sampled_from(["x", "y"]), st.sampled_from([b"x", bytearray(b"y")]),
)
order_keys = st.lists(
    st.tuples(st.sampled_from(COLUMNS + ("1", "3", "9", "a + b", "k")),
              st.sampled_from(["", " asc", " desc"])),
    min_size=1, max_size=3)


@settings(max_examples=400, deadline=None)
@given(t=st.lists(st.tuples(order_values, order_values, st.integers(0, 2)),
                  max_size=14),
       keys=order_keys,
       limit=st.integers(0, 16),
       offset=st.one_of(st.none(), st.integers(0, 16)),
       shape=st.sampled_from([
           "select a, b, c, c as k from t",      # deferred projection
           "select *, 7 as k from t where c < 2",
           "select c as k, b, a from t",         # order by alias
           "select a, b, -c as k from t",        # not total: no deferral
           "select distinct a, b, c as k from t",
           "select a, b, c as k from t union all select a, b, c from t",
           "select a, b, count(*) as k from t group by a, b",
       ]))
def test_top_n_is_sort_then_slice(t, keys, limit, offset, shape):
    catalog = Catalog({"t": Relation(COLUMNS, t)})
    order = ", ".join(key + direction for key, direction in keys)
    tail = f" limit {limit}" + ("" if offset is None
                                else f" offset {offset}")
    bounded = f"{shape} order by {order}{tail}"
    assert_same(bounded, catalog)
    # ... and the compiled full sort, sliced, is the same answer.
    pipeline, __ = compiled_and_plan(bounded, catalog)
    assert any(op.name == "TopN" for op in pipeline.root.walk())
    full, __ = compiled_and_plan(f"{shape} order by {order}", catalog)
    assert all(op.name != "TopN" for op in full.root.walk())
    expected = outcome(lambda: full.execute(catalog))
    if expected[0] == "ok":
        start = offset or 0
        expected = expected[:2] + (expected[2][start:start + limit],)
    assert outcome(lambda: pipeline.execute(catalog)) == expected


def test_projection_still_raises_on_rows_limit_discards():
    catalog = Catalog({"t": Relation(("a", "s"),
                                     [(1, 5), (2, "abc"), (3, 7)])})
    for sql in ("select -s as x from t order by a limit 1",
                "select upper(s) as x, sqrt(a - 3) as y from t "
                "order by a desc limit 1"):
        pipeline, plan = compiled_and_plan(sql, catalog)
        compiled = outcome(lambda: pipeline.execute(catalog))
        assert compiled[0] == "error", sql
        assert compiled == outcome(lambda: execute_plan(plan, catalog))
    # Total items (columns, literals, *) cannot raise: projected last.
    pipeline, plan = compiled_and_plan(
        "select s, 1 as one, * from t order by a desc limit 2", catalog)
    assert [op.name for op in pipeline.root.walk()][:2] == ["Project",
                                                            "TopN"]
    assert pipeline.execute(catalog).rows \
        == execute_plan(plan, catalog).rows \
        == [(7, 1, 3, 7), ("abc", 1, 2, "abc")]


@pytest.mark.parametrize("sql, rows", [
    ("select a from t order by a limit 0", []),
    ("select a from t order by a desc limit 2 offset 5", []),
    ("select a from t order by a desc limit 5 offset 2", [(1,)]),
    ("select a from t order by a offset 1", [(2,), (3,)]),
    ("select a from t limit 1 offset 1", [(1,)]),
])
def test_limit_and_offset_edges(sql, rows):
    catalog = Catalog({"t": Relation(("a",), [(3,), (1,), (2,)])})
    pipeline, plan = compiled_and_plan(sql, catalog)
    assert pipeline.execute(catalog).rows == rows
    assert execute_plan(plan, catalog).rows == rows


def test_constants_are_bound_not_spliced():
    catalog = Catalog({"t": Relation(("a", "s"), [(1, "x'); boom(")])})
    pipeline, plan = compiled_and_plan(
        "select a, s || 'q\"\\n' as j from t "
        "where s = 'x''); boom(' and a < 1e999 and a >= 1", catalog)
    assert "boom" not in pipeline.source and "inf" not in pipeline.source
    assert ">= 1 if" in pipeline.source  # a machine-sized number is text
    assert pipeline.execute(catalog).rows \
        == execute_plan(plan, catalog).rows == [(1, "x'); boom(q\"\\n")]
