"""Property: the compiled physical pipeline is the interpreter, faster.

Hypothesis generates random relations (with NULLs) and drives a query
corpus covering every physical operator — scan, filter, projection,
hash join (with residuals), group-by/having, plain aggregates, order
by, limit/offset, distinct — through both engines. The pipeline must
reproduce the interpreter's answer *exactly*: same columns, same rows,
same row order, and the same error class when the query fails at
runtime.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.exceptions import SQLError
from repro.sqlengine.executor import Catalog, execute_plan
from repro.sqlengine.parser import parse_select
from repro.sqlengine.physical import catalog_schemas, try_compile
from repro.sqlengine.planner import plan_select
from repro.sqlengine.relation import Relation
from repro.simulation.workload import QueryWorkloadGenerator

T_COLUMNS = ("a", "b", "s")
U_COLUMNS = ("k", "w")

t_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(-50, 50)),
        st.one_of(st.none(), st.integers(0, 4)),
        st.one_of(st.none(), st.sampled_from(["x", "yy", "Z", ""])),
    ),
    min_size=0, max_size=20,
)
u_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 4)),
        st.one_of(st.none(), st.integers(-10, 10)),
    ),
    min_size=0, max_size=12,
)

# One query per physical operator family, plus compositions.
QUERIES = [
    "select * from t",
    "select a, b from t where a > 0 and s like 'x%'",
    "select a, b from t where a in (1, 2, 3) or b between 1 and 3",
    "select a + b as ab, -a as na, "
    "case when a > 0 then 'p' else 'n' end as sign from t",
    "select distinct b from t",
    "select distinct b, s from t where s is not null",
    "select * from t order by a, b, s limit 5",
    "select a, b from t order by b desc, a asc limit 4 offset 2",
    "select count(*) as n, count(a) as c, sum(a) as total, "
    "avg(a) as mean, min(a) as lo, max(a) as hi from t",
    "select b, count(*) as n, sum(a) as total from t "
    "group by b having count(*) >= 2",
    "select b, min(s) as lo, max(s) as hi from t "
    "where s is not null group by b order by b limit 3",
    "select t.a, t.s, u.w from t join u on t.b = u.k",
    "select t.a, u.w from t join u on t.b = u.k and t.a < u.w",
    "select t.a, u.w from t join u on t.b = u.k "
    "where u.w is not null order by t.a, u.w limit 6",
    "select u.k, count(*) as n, avg(t.a) as mean "
    "from t join u on t.b = u.k group by u.k",
    "select t.a, u.w from t left join u on t.b = u.k and u.w > 0",
    "select t.a, u.k from t, u where t.b < u.k",       # nested loop
    "select t.a, u.w from t left join u on t.a < u.w "
    "order by u.w desc, t.a limit 7",
    "select b from t union select k from u",
    "select b from t intersect select k from u order by b",
    "select b from t except select k from u",
    "select d.b, count(*) as n from "
    "(select b from t where a is not null) d group by d.b",
]

# What the Figure 4 experiment and the ``client_fanout`` benchmark
# register: conjunctions of integer comparisons and a MOD decimation.
CF_COLUMNS = ("camera_id", "width", "height", "timed")
WORKLOAD_QUERIES = [
    sql for seed in (0, 7, 11)
    for sql in QueryWorkloadGenerator("vs_cf", lambda: 1_000_000,
                                      seed=seed).batch(8)
]
cf_rows = st.lists(
    st.tuples(*[st.one_of(st.none(), st.integers(0, 1000))] * 3,
              st.one_of(st.none(), st.integers(0, 1_000_000))),
    max_size=20,
)


def outcome(fn):
    """The result (or error class) of one engine run, comparable."""
    try:
        relation = fn()
    except SQLError as exc:
        return ("error", type(exc).__name__)
    return ("ok", tuple(relation.columns), list(relation.rows))


@settings(max_examples=120, deadline=None)
@given(t=t_rows, u=u_rows, sql=st.sampled_from(QUERIES))
def test_pipeline_matches_interpreter(t, u, sql):
    plan = plan_select(parse_select(sql))
    catalog = Catalog({"t": Relation(T_COLUMNS, t),
                       "u": Relation(U_COLUMNS, u)})
    schemas = catalog_schemas(plan, catalog)
    assert schemas is not None
    pipeline = try_compile(plan, schemas)
    assert pipeline is not None, \
        (sql, getattr(plan, "_phys_reason", None))
    assert outcome(lambda: pipeline.execute(catalog)) \
        == outcome(lambda: execute_plan(plan, catalog)), sql


@settings(max_examples=120, deadline=None)
@given(cf=cf_rows, sql=st.sampled_from(WORKLOAD_QUERIES))
def test_workload_generator_queries_match_interpreter(cf, sql):
    plan = plan_select(parse_select(sql))
    catalog = Catalog({"vs_cf": Relation(CF_COLUMNS, cf)})
    pipeline = try_compile(plan, catalog_schemas(plan, catalog))
    assert pipeline is not None, \
        (sql, getattr(plan, "_phys_reason", None))
    assert outcome(lambda: pipeline.execute(catalog)) \
        == outcome(lambda: execute_plan(plan, catalog)), sql


@settings(max_examples=40, deadline=None)
@given(t=t_rows)
def test_reexecution_is_stable(t):
    # One compile, many executions against changing data — the deployed
    # sensors' usage pattern.
    sql = QUERIES[9]
    plan = plan_select(parse_select(sql))
    catalog = Catalog({"t": Relation(T_COLUMNS, t)})
    pipeline = try_compile(plan, catalog_schemas(plan, catalog))
    assert pipeline is not None
    for rows in (t, list(reversed(t)), t[: len(t) // 2]):
        target = Catalog({"t": Relation(T_COLUMNS, rows)})
        assert outcome(lambda: pipeline.execute(target)) \
            == outcome(lambda: execute_plan(plan, target))


# HAVING hands IN / BETWEEN / IS NULL to row evaluation of the group's
# first row; the operands mix BOOLEAN, VARCHAR and NULL with a unary
# minus, a concatenation and a scalar call that can each raise.
H_COLUMNS = ("a", "b", "s")
h_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.booleans()),
        st.one_of(st.none(), st.integers(-3, 3)),
        st.one_of(st.none(), st.sampled_from(["x", "y", ""])),
    ),
    max_size=8,
)
h_operands = st.recursive(
    st.sampled_from(["a", "b", "s", "null", "true", "'x'", "1", "-2"]),
    lambda inner: st.one_of(
        st.builds("(- {})".format, inner),
        st.builds("({} || {})".format, inner, inner),
        st.builds("sqrt({})".format, inner),
    ),
    max_leaves=3,
)
h_predicates = st.one_of(
    st.builds("{} in ({}, {})".format, h_operands, h_operands, h_operands),
    st.builds("{} not in ({}, {})".format, h_operands, h_operands,
              h_operands),
    st.builds("{} between {} and {}".format, h_operands, h_operands,
              h_operands),
    st.builds("{} not between {} and {}".format, h_operands, h_operands,
              h_operands),
    st.builds("{} is not null".format, h_operands),
    st.builds("{} >= {}".format, h_operands, h_operands),
)
H_TABLE = [(False, 1, "x"), (True, 2, "y")]


def outcome_with_message(fn):
    """Rows, or the error's class and message — any error: group
    context lets a bare ``-'x'`` raise Python's TypeError on both."""
    try:
        relation = fn()
    except Exception as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", tuple(relation.columns), list(relation.rows))


@settings(max_examples=150, deadline=None)
@example(t=H_TABLE, predicate="a in (a, -a)")
@example(t=H_TABLE, predicate="a not between (s || s) and (- a)")
@example(t=H_TABLE, predicate="a in (sqrt(b - 3), a)")
@given(t=h_rows, predicate=h_predicates)
def test_having_predicates_match_interpreter(t, predicate):
    # The first example raised in the interpreter only (every IN option
    # was evaluated before comparing), the second raised a different
    # error (BETWEEN's upper bound came before the lower comparison),
    # the third read ``sqrt([-2]) failed`` instead of ``sqrt() failed``.
    catalog = Catalog({"t": Relation(H_COLUMNS, t)})
    for sql in (f"select a from t group by a having {predicate}",
                f"select a, count(*) as n from t group by a "
                f"having {predicate} and count(*) > 0"):
        plan = plan_select(parse_select(sql))
        pipeline = try_compile(plan, catalog_schemas(plan, catalog))
        assert pipeline is not None, \
            (sql, getattr(plan, "_phys_reason", None))
        assert outcome_with_message(lambda: pipeline.execute(catalog)) \
            == outcome_with_message(lambda: execute_plan(plan, catalog)), \
            sql


def test_unsupported_shapes_report_a_reason():
    for sql in (
        "select a from t where a in (select k from u)",   # subquery
        "select (select k from u) as k from t",           # scalar subquery
        "select 1 as one",                                # constant source
        "select * from t group by b",                     # star + grouping
    ):
        plan = plan_select(parse_select(sql))
        schemas = {"t": T_COLUMNS, "u": U_COLUMNS}
        assert try_compile(plan, schemas) is None, sql
        assert plan._phys_reason, sql
