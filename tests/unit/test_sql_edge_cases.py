"""SQL engine edge cases beyond the core suites."""

import pytest

from repro.exceptions import SQLExecutionError, SQLSyntaxError
from repro.sqlengine.executor import Catalog, execute
from repro.sqlengine.relation import Relation


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.register("t", Relation(
        ["a", "b", "timed"],
        [(1, "x", 100), (2, "y", 200), (3, "x", 300)],
    ))
    cat.register("empty", Relation(["a", "b"]))
    return cat


class TestEmptyInputs:
    def test_scan_empty(self, catalog):
        assert execute("select * from empty", catalog).rows == []

    def test_join_with_empty(self, catalog):
        assert execute(
            "select * from t join empty on t.a = empty.a", catalog
        ).rows == []

    def test_union_with_empty(self, catalog):
        result = execute(
            "select a from t union select a from empty", catalog)
        assert len(result) == 3

    def test_aggregate_empty_group_by(self, catalog):
        assert execute("select a, count(*) from empty group by a",
                       catalog).rows == []

    def test_order_limit_on_empty(self, catalog):
        assert execute("select * from empty order by a limit 5",
                       catalog).rows == []


class TestNestingDepth:
    def test_three_level_subqueries(self, catalog):
        result = execute(
            "select * from (select * from "
            "(select a from (select * from t) x1) x2) x3 order by a",
            catalog,
        )
        assert result.column("a") == [1, 2, 3]

    def test_correlated_two_levels(self, catalog):
        # Inner subquery references the outermost scope.
        result = execute(
            "select a from t outer_t where exists ("
            "  select 1 from t mid where mid.a = outer_t.a and exists ("
            "    select 1 from t inner_t "
            "    where inner_t.b = outer_t.b and inner_t.a <> outer_t.a"
            "  )"
            ") order by a",
            catalog,
        )
        # Rows sharing b='x' with a different row: a=1 and a=3.
        assert result.column("a") == [1, 3]

    def test_scalar_subquery_inside_case(self, catalog):
        result = execute(
            "select case when a = (select max(a) from t) then 'top' "
            "else 'rest' end k from t order by a",
            catalog,
        )
        assert result.column("k") == ["rest", "rest", "top"]


class TestProjectionEdges:
    def test_star_plus_expression(self, catalog):
        result = execute("select *, a * 10 as big from t where a = 1",
                         catalog)
        assert result.columns == ("a", "b", "timed", "big")
        assert result.rows == [(1, "x", 100, 10)]

    def test_double_star(self, catalog):
        result = execute("select t.*, t.* from t where a = 1", catalog)
        assert result.columns == ("a", "b", "timed", "a_2", "b_2",
                                  "timed_2")

    def test_alias_shadowing_column(self, catalog):
        result = execute(
            "select b as a from t order by a", catalog)
        # ORDER BY resolves the *output* column first (SQL rule).
        assert result.column("a") == ["x", "x", "y"]

    def test_expression_only_select(self, catalog):
        result = execute("select 1 + 1, 'k', null", catalog)
        assert result.rows == [(2, "k", None)]
        assert len(result.columns) == 3


class TestBooleanResults:
    def test_comparison_as_select_item(self, catalog):
        result = execute("select a > 1 as big from t order by timed",
                         catalog)
        assert result.column("big") == [False, True, True]

    def test_boolean_in_where(self, catalog):
        assert len(execute("select * from t where true", catalog)) == 3
        assert len(execute("select * from t where false", catalog)) == 0


class TestGroupingEdges:
    def test_group_by_multiple_keys(self, catalog):
        catalog.register("m", Relation(
            ["x", "y", "v"],
            [(1, "a", 10), (1, "a", 20), (1, "b", 5), (2, "a", 1)],
        ))
        result = execute(
            "select x, y, sum(v) s from m group by x, y order by x, y",
            catalog,
        )
        assert result.to_dicts() == [
            {"x": 1, "y": "a", "s": 30},
            {"x": 1, "y": "b", "s": 5},
            {"x": 2, "y": "a", "s": 1},
        ]

    def test_having_with_different_aggregate_than_select(self, catalog):
        result = execute(
            "select b from t group by b having max(a) >= 2 order by b",
            catalog,
        )
        assert result.column("b") == ["x", "y"]

    def test_nested_aggregate_rejected(self, catalog):
        with pytest.raises(SQLExecutionError):
            execute("select max(sum(a)) from t", catalog)

    def test_aggregate_in_where_rejected(self, catalog):
        with pytest.raises(SQLExecutionError):
            execute("select a from t where sum(a) > 1", catalog)


class TestErrorPositions:
    def test_syntax_error_carries_position(self):
        with pytest.raises(SQLSyntaxError) as excinfo:
            execute("select a frm t", Catalog())
        assert excinfo.value.position >= 0

    def test_lexer_error_carries_position(self):
        with pytest.raises(SQLSyntaxError) as excinfo:
            execute("select ~a from t", Catalog())
        assert excinfo.value.position == 7


@pytest.mark.parametrize("sql", [
    "select v, v, k as v_2 from t",
    "select v, v, v as v_2 from t",
])
def test_generated_duplicate_name_skips_explicit_ones(sql):
    """A repeated output name becomes ``name_N`` with an N no column of
    the list already has, and an explicit alias keeps its name: the
    interpreter, the compiled pipeline and schema inference agree."""
    from repro.analysis.rules import Report
    from repro.analysis.schema_infer import infer_output_schema
    from repro.datatypes import DataType
    from repro.sqlengine.executor import execute_plan
    from repro.sqlengine.parser import parse_select
    from repro.sqlengine.physical import catalog_schemas, try_compile
    from repro.sqlengine.planner import plan_select

    cat = Catalog()
    cat.register("t", Relation(["v", "k"], [(1, 2)]))
    plan = plan_select(parse_select(sql))
    pipeline = try_compile(plan, catalog_schemas(plan, cat))
    assert pipeline is not None
    interpreted = execute_plan(plan, cat)
    compiled = pipeline.execute(cat)
    report = Report()
    inferred = infer_output_schema(
        parse_select(sql),
        {"t": {"v": DataType.INTEGER, "k": DataType.INTEGER}}, report, "")
    assert list(interpreted.columns) == ["v", "v_3", "v_2"]
    assert compiled.columns == interpreted.columns
    assert tuple(inferred) == tuple(interpreted.columns)
    assert not report.findings
    assert interpreted.rows == compiled.rows
