"""Unit tests for gsn-plan, the deploy-time query-plan pass (GSN7xx).

Covers: the cost model's cardinality estimates, constant folding and
dead-predicate proofs, the per-query fast-path verdicts, the GSN701–705
rule findings over seeded-bad descriptors, the descriptor-level verdict
map, its agreement with the sensor's own attach decision, and the line
backfill over descriptor XML.
"""

from pathlib import Path

import pytest

from repro.analysis.planpass import (
    CROSS_PRODUCT_ROW_LIMIT, SORT_ROW_LIMIT,
    PlanVerdict, _UNDECIDED, annotate_plan, dead_predicate,
    fold_constant, plan_descriptor,
    source_query_verdict, structural_verdict,
)
from repro.analysis.passes import analyze, attach_descriptor_lines
from repro.datatypes import DataType
from repro.descriptors.xml_io import (
    descriptor_from_file, descriptor_line_index,
)
from repro.sqlengine.incremental import (
    REASON_JOIN, REASON_LIMIT_OFFSET, REASON_ORDER_BY, REASON_PROJECTION,
    REASON_TYPE_RISK, REASON_UNKNOWN_COLUMN, REASON_UNKNOWN_SCHEMA,
    REASON_WHERE,
)
from repro.sqlengine.parser import parse_select
from repro.sqlengine.planner import plan_select
from repro.wrappers.registry import default_registry

from tests.conftest import simple_mote_descriptor

MOTE = {"node_id": DataType.INTEGER, "light": DataType.INTEGER,
        "temperature": DataType.INTEGER}


def plan(sql):
    return plan_select(parse_select(sql))


def where_of(sql):
    return plan(sql).where


class TestCostModel:
    def test_scan_rows_from_table_name(self):
        annotated = annotate_plan(plan("select * from wrapper"),
                                  table_rows={"wrapper": 100.0})
        root = annotated.annotation(annotated.plan)
        assert root.rows == 100.0
        assert root.cost == 100.0

    def test_unknown_table_propagates_none(self):
        annotated = annotate_plan(plan("select * from mystery"))
        root = annotated.annotation(annotated.plan)
        assert root.rows is None
        assert root.cost is None

    def test_where_applies_selectivity(self):
        annotated = annotate_plan(
            plan("select * from wrapper where v = 3"),
            table_rows={"wrapper": 100.0})
        root = annotated.annotation(annotated.plan)
        assert root.rows == pytest.approx(10.0)   # equality: 0.1
        assert root.cost == pytest.approx(200.0)  # scan + filter pass

    def test_aggregate_collapses_to_one_row(self):
        annotated = annotate_plan(
            plan("select avg(v) as a from wrapper"),
            table_rows={"wrapper": 50.0})
        assert annotated.annotation(annotated.plan).rows == 1.0

    def test_group_by_sqrt_estimate(self):
        annotated = annotate_plan(
            plan("select v, count(*) as n from wrapper group by v"),
            table_rows={"wrapper": 100.0})
        assert annotated.annotation(annotated.plan).rows == pytest.approx(10.0)

    def test_cross_join_multiplies(self):
        annotated = annotate_plan(
            plan("select * from a, b"),
            table_rows={"a": 1000.0, "b": 1000.0})
        root = annotated.annotation(annotated.plan)
        assert root.rows == pytest.approx(1_000_000.0)

    def test_order_by_records_sort_input(self):
        annotated = annotate_plan(
            plan("select * from wrapper order by v"),
            table_rows={"wrapper": 8.0})
        root = annotated.annotation(annotated.plan)
        assert root.sort_rows == 8.0
        assert root.cost == pytest.approx(8.0 + 8.0 * 3.0)  # + n log2 n

    def test_limit_caps_rows(self):
        annotated = annotate_plan(
            plan("select * from wrapper limit 5"),
            table_rows={"wrapper": 100.0})
        assert annotated.annotation(annotated.plan).rows == 5.0

    def test_render_includes_estimates(self):
        annotated = annotate_plan(plan("select * from wrapper"),
                                  table_rows={"wrapper": 20.0})
        assert "rows~20" in annotated.render()


class TestConstantFolding:
    @pytest.mark.parametrize("sql,expected", [
        ("select * from t where 1 = 2", False),
        ("select * from t where 1 = 1", True),
        ("select * from t where 2 + 2 = 4", True),
        ("select * from t where not (3 > 1)", False),
        ("select * from t where 5 between 1 and 9", True),
        ("select * from t where 5 in (1, 2, 3)", False),
        ("select * from t where null is null", True),
    ])
    def test_folds_literal_predicates(self, sql, expected):
        assert fold_constant(where_of(sql)) is expected

    def test_row_dependent_is_undecided(self):
        assert fold_constant(where_of("select * from t where v > 3")) \
            is _UNDECIDED

    def test_null_comparison_folds_to_null(self):
        assert fold_constant(
            where_of("select * from t where null = 1")) is None

    def test_kleene_and_short_circuits_false(self):
        # v > 3 is undecided, but FALSE AND anything is FALSE.
        assert fold_constant(
            where_of("select * from t where 1 = 2 and v > 3")) is False


class TestDeadPredicate:
    def test_contradictory_ranges(self):
        message = dead_predicate(
            where_of("select * from t where v > 5 and v < 3"))
        assert message is not None and "contradictory" in message

    def test_equality_outside_range(self):
        assert dead_predicate(
            where_of("select * from t where v = 10 and v < 4")) is not None

    def test_empty_between(self):
        assert "empty" in dead_predicate(
            where_of("select * from t where v between 9 and 2"))

    def test_literal_on_left_is_flipped(self):
        assert dead_predicate(
            where_of("select * from t where 5 < v and v < 3")) is not None

    def test_satisfiable_range_is_alive(self):
        assert dead_predicate(
            where_of("select * from t where v > 3 and v < 5")) is None

    def test_none_where_is_alive(self):
        assert dead_predicate(None) is None


class TestVerdicts:
    def test_aggregate_over_count_window_is_eligible(self):
        verdict = source_query_verdict(
            plan("select avg(temperature) as t from wrapper"),
            "count", MOTE)
        assert verdict.eligible
        assert verdict.reason is None

    def test_identity_is_eligible_over_any_window(self):
        verdict = source_query_verdict(
            plan("select * from wrapper"), "time", MOTE)
        assert verdict.eligible

    def test_aggregate_over_time_window_is_eligible(self):
        # Accumulators ride the window observer protocol, which time
        # windows publish too — eligibility no longer depends on the
        # window kind.
        verdict = source_query_verdict(
            plan("select avg(temperature) as t from wrapper"),
            "time", MOTE)
        assert verdict.eligible
        assert verdict.reason is None

    def test_order_by_is_ineligible_and_proven(self):
        verdict = source_query_verdict(
            plan("select temperature from wrapper order by temperature"),
            "count", MOTE)
        assert not verdict.eligible
        assert verdict.reason == REASON_ORDER_BY

    def test_order_by_without_limit_reports_order_by(self):
        verdict = source_query_verdict(
            plan("select * from wrapper order by temperature"),
            "time", MOTE)
        assert verdict.reason == REASON_ORDER_BY

    @pytest.mark.parametrize("sql", [
        "select * from wrapper limit 5",
        "select * from wrapper order by temperature limit 5",
        "select * from wrapper order by temperature limit 1 offset 2",
    ])
    def test_limit_above_one_reports_limit_offset(self, sql):
        verdict = source_query_verdict(plan(sql), "count", MOTE)
        assert verdict.reason == REASON_LIMIT_OFFSET

    @pytest.mark.parametrize("sql", [
        "select * from wrapper order by 1 limit 1",
        "select * from wrapper order by temperature + 1 limit 1",
    ])
    def test_ordinal_and_expression_keys_report_order_by(self, sql):
        verdict = source_query_verdict(plan(sql), "count", MOTE)
        assert verdict.reason == REASON_ORDER_BY

    def test_top_one_over_columns_is_eligible(self):
        verdict = source_query_verdict(
            plan("select light as temperature, temperature as light "
                 "from wrapper where node_id > 0 "
                 "order by temperature desc limit 1"),
            "count", MOTE)
        assert verdict.eligible
        assert verdict.detail.startswith("top-1")

    def test_device_fleet_query_is_eligible_and_proven(self):
        """The fleet workload's ``select * ... order by timed desc limit
        1`` is eligible with a known schema, and the runtime attaches the
        top-1 state it promises."""
        from repro.simulation.workload import payload_descriptor

        descriptor = payload_descriptor("cam", 1, 100, 64)
        verdicts = plan_descriptor(descriptor,
                                   registry=default_registry()).verdicts
        verdict = verdicts[("input", "src")]
        assert verdict.eligible and verdict.reason is None
        assert verdict.detail.startswith("top-1")
        from repro.container import GSNContainer

        with GSNContainer(name="fleet", simulated=True) as container:
            sensor = container.deploy(descriptor)
            container.run_for(1_000)
            status = sensor.incremental_status()
            assert status["fast_paths"] == {"input/src": "top-1"}
            assert status["static"]["verdicts"]["input/src"]["eligible"]
            assert status["counters"]["aggregate_hits"] > 0

    def test_unknown_schema_is_not_a_proof(self):
        """Without a wrapper schema the linter says it could not see;
        the sensor, which knows its window, decides at attach time."""
        verdict = source_query_verdict(
            plan("select avg(temperature) as t from wrapper"),
            "count", None)
        assert not verdict.eligible
        assert verdict.reason == REASON_UNKNOWN_SCHEMA

    def test_unknown_column(self):
        verdict = source_query_verdict(
            plan("select avg(humidity) as h from wrapper"),
            "count", MOTE)
        assert verdict.reason == REASON_UNKNOWN_COLUMN

    def test_division_in_where_is_type_risk(self):
        verdict = source_query_verdict(
            plan("select avg(light) as v from wrapper "
                 "where light / temperature > 1"),
            "count", MOTE)
        assert verdict.reason == REASON_TYPE_RISK

    def test_structural_group_by_is_eligible(self):
        verdict = structural_verdict(
            plan("select v, count(*) as n from t group by v"))
        assert verdict.eligible
        assert "grouped" in verdict.detail

    def test_structural_equi_join_is_eligible(self):
        verdict = structural_verdict(
            plan("select a.v, b.w from a join b on a.k = b.k"))
        assert verdict.eligible
        assert "equi-join" in verdict.detail

    def test_structural_outer_join_stays_ineligible(self):
        verdict = structural_verdict(
            plan("select * from a left join b on a.k = b.k"))
        assert not verdict.eligible
        assert verdict.reason == REASON_JOIN

    def test_structural_where_shape(self):
        verdict = structural_verdict(plan("select v from t where v > 1"))
        assert not verdict.eligible

    def test_unknown_reason_rejected(self):
        with pytest.raises(ValueError):
            PlanVerdict(False, "no-such-reason")

    def test_as_dict(self):
        doc = PlanVerdict(False, REASON_WHERE, "detail").as_dict()
        assert doc == {"eligible": False, "reason": REASON_WHERE,
                       "detail": "detail"}


class TestPlanDescriptor:
    def test_eligible_descriptor_coverage(self):
        descriptor = simple_mote_descriptor(window="100")
        result = plan_descriptor(descriptor, registry=default_registry())
        eligible, total = result.coverage()
        assert (eligible, total) == (1, 1)
        assert result.verdicts[("in", "src")].eligible

    def test_time_window_descriptor_is_eligible(self):
        descriptor = simple_mote_descriptor(window="5s")
        result = plan_descriptor(descriptor, registry=default_registry())
        verdict = result.verdicts[("in", "src")]
        assert verdict.eligible

    def test_render_mentions_fast_path(self):
        descriptor = simple_mote_descriptor(window="100")
        rendered = plan_descriptor(
            descriptor, registry=default_registry()).render()
        assert "fast-path: eligible" in rendered


BAD = "examples/bad"


class TestPlanRules:
    def _findings(self, path):
        descriptor = descriptor_from_file(path)
        report = analyze([descriptor], registry=default_registry(),
                         sources=[path], plan=True)
        return report

    @pytest.mark.parametrize("path,rule", [
        (f"{BAD}/plan-ineligible.xml", "GSN701"),
        (f"{BAD}/cross-product.xml", "GSN702"),
        (f"{BAD}/unbounded-sort.xml", "GSN703"),
        (f"{BAD}/overloaded-source.xml", "GSN704"),
        (f"{BAD}/dead-predicate.xml", "GSN705"),
    ])
    def test_seeded_bad_files_trip_their_rule(self, path, rule):
        report = self._findings(path)
        assert any(f.rule_id == rule for f in report.findings), \
            report.render()

    def test_clean_descriptor_stays_clean_under_plan(self):
        descriptor = simple_mote_descriptor(window="100")
        report = analyze([descriptor], registry=default_registry(),
                         plan=True)
        assert not report.findings, report.render()

    def test_plan_pass_is_opt_in(self):
        descriptor = descriptor_from_file(f"{BAD}/plan-ineligible.xml")
        report = analyze([descriptor], registry=default_registry())
        assert not any(f.rule_id.startswith("GSN7")
                       for f in report.findings)


def build_sensor(descriptor, value=7):
    from repro.gsntime.clock import VirtualClock
    from repro.storage.base import RetentionPolicy
    from repro.storage.memory import MemoryStorage
    from repro.streams.schema import StreamSchema
    from repro.vsensor.virtual_sensor import VirtualSensor
    from repro.wrappers.scripted import ScriptedWrapper

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


class TestRuntimeConsultation:
    """The sensor records its own attach decision per source; the status
    ``static`` block reads it."""

    def test_status_static_block(self):
        descriptor = simple_mote_descriptor(window="10")
        sensor, __, __, __ = build_sensor(descriptor)
        static = sensor.incremental_status()["static"]
        assert static == {
            "verdicts": {"in/src": {"eligible": True, "reason": None}},
            "eligible": 1, "total": 1, "coverage_percent": 100.0,
        }
        assert plan_descriptor(
            descriptor, registry=default_registry()).coverage() == (1, 1)

    def test_no_verdicts_reports_zero_coverage(self):
        descriptor = simple_mote_descriptor(
            window="10",
            source_query="select temperature from wrapper")  # projection
        sensor, __, __, __ = build_sensor(descriptor)
        static = sensor.incremental_status()["static"]
        assert not sensor.incremental_status()["fast_paths"]
        assert static == {
            "verdicts": {"in/src": {"eligible": False,
                                    "reason": REASON_PROJECTION}},
            "eligible": 0, "total": 1, "coverage_percent": 0.0,
        }

    def test_where_the_emitter_rejects_records_where_clause(self, monkeypatch):
        from repro.sqlengine import incremental
        from repro.sqlengine.physical import Unsupported

        def reject(*args, **kwargs):
            raise Unsupported("fabricated")

        monkeypatch.setattr(incremental, "_compile_row", reject)
        descriptor = simple_mote_descriptor(
            window="10", source_query="select avg(temperature) as t "
                                      "from wrapper where temperature > 0")
        sensor, __, __, __ = build_sensor(descriptor)
        verdict = sensor.incremental_status()["static"]["verdicts"]["in/src"]
        assert verdict == {"eligible": False, "reason": REASON_WHERE}
        assert not sensor.incremental_status()["fast_paths"]


class TestDeployWiring:
    def test_deploy_hands_verdicts_to_the_sensor(self):
        """The deployed sensor's attach record reaches status and
        /metrics, and equals what the offline linter says."""
        from repro.container import GSNContainer

        path = "examples/descriptors/averaged-temperature.xml"
        with GSNContainer(name="n1", simulated=True) as container:
            sensor = container.deploy(descriptor_from_file(path))
            static = sensor.incremental_status()["static"]
            linted = plan_descriptor(descriptor_from_file(path),
                                     registry=default_registry())
            assert linted.coverage() == (1, 1)
            assert static["total"] == 1
            assert static["verdicts"]["dummy/src1"]["eligible"] is True
            assert static["verdicts"]["dummy/src1"]["reason"] is None
            text = container.metrics_text()
            assert 'gsn_fastpath_static{' in text
            assert "gsn_fastpath_static_coverage_percent 100" in text
            status = container.vsm.status()
            assert status["counters"]["static_analyzed_sources"] == 1
            assert status["static_coverage_percent"] == 100.0
            assert container.status()[
                "fastpath_static_coverage_percent"] == 100.0


EXAMPLES = sorted(
    str(path) for path in (Path(__file__).resolve().parents[2]
                           / "examples" / "descriptors").glob("*.xml"))

#: Analyzer reasons where the sensor, which knows its window, decides.
RUNTIME_DECIDES = {REASON_UNKNOWN_SCHEMA, REASON_TYPE_RISK}


def _agreement_descriptor(case):
    """An example file, the device-fleet payload sensor, or a mote
    sensor running ``case`` as its source query."""
    from repro.simulation.workload import payload_descriptor

    if case.endswith(".xml"):
        return descriptor_from_file(case)
    if case == "payload":
        return payload_descriptor("cam", 1, 100, 64)
    return simple_mote_descriptor(source_query=case)


class TestAttachAgreement:
    """The linter's per-source verdict equals the deployed sensor's own
    attach decision (eligible and reason), except where the linter
    cannot see the schema or flags a type risk."""

    @pytest.mark.parametrize("case", [
        *EXAMPLES, "payload",
        "select temperature from wrapper",
        "select * from wrapper order by temperature",
        "select avg(humidity) as h from wrapper",
        "select node_id, count(*) as n from wrapper group by node_id",
    ], ids=lambda case: Path(case).name if case.endswith(".xml") else case)
    def test_linter_verdicts_equal_attach_records(self, case):
        from repro.container import GSNContainer

        linted = plan_descriptor(_agreement_descriptor(case),
                                 registry=default_registry())
        with GSNContainer(name="agree", simulated=True) as container:
            sensor = container.deploy(_agreement_descriptor(case))
            static = sensor.incremental_status()["static"]["verdicts"]
        assert set(static) == {f"{stream}/{alias}"
                               for stream, alias in linted.verdicts}
        for (stream, alias), verdict in linted.verdicts.items():
            if verdict.reason in RUNTIME_DECIDES:
                continue
            assert static[f"{stream}/{alias}"] == {
                "eligible": verdict.eligible, "reason": verdict.reason,
            }, verdict


class TestLineBackfill:
    def test_line_index_maps_queries(self):
        with open(f"{BAD}/dead-predicate.xml", encoding="utf-8") as handle:
            index = descriptor_line_index(handle.read())
        assert index[("virtual-sensor",)] == 6
        assert ("stream-query", "in") in index
        assert ("source-query", "in", "src") in index

    def test_findings_gain_line_suffix(self):
        path = f"{BAD}/dead-predicate.xml"
        descriptor = descriptor_from_file(path)
        report = analyze([descriptor], registry=default_registry(),
                         sources=[path], plan=True)
        with open(path, encoding="utf-8") as handle:
            indexes = {path: descriptor_line_index(handle.read())}
        attach_descriptor_lines(report, indexes)
        finding = next(f for f in report.findings if f.rule_id == "GSN705")
        assert finding.line is not None and finding.line > 1

    def test_malformed_xml_yields_empty_index(self):
        assert descriptor_line_index("<not-closed") == {}
