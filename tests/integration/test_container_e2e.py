"""End-to-end container tests: XML deploy -> stream -> query -> notify."""

import pytest

from repro import GSNContainer
from repro.exceptions import (
    ConfigurationError, DeploymentError, GSNError, ValidationError,
)

from tests.conftest import simple_mote_descriptor

XML = """
<virtual-sensor name="avg-temp">
  <output-structure>
    <field name="temperature" type="integer"/>
  </output-structure>
  <storage permanent-storage="true" size="1h"/>
  <input-stream name="input">
    <stream-source alias="src1" storage-size="10s">
      <address wrapper="mica2">
        <predicate key="interval" val="500"/>
      </address>
      <query>select avg(temperature) as temperature from wrapper</query>
    </stream-source>
    <query>select * from src1</query>
  </input-stream>
</virtual-sensor>
"""


class TestDeployAndRun:
    def test_xml_deploy_and_query(self, container):
        container.deploy(XML)
        container.run_for(5_000)
        result = container.query(
            "select count(*) as n, avg(temperature) as m from vs_avg_temp"
        )
        row = result.first()
        assert row["n"] == 10
        assert 15 <= row["m"] <= 30

    def test_deploy_from_file(self, container, tmp_path):
        path = tmp_path / "sensor.xml"
        path.write_text(XML)
        sensor = container.deploy(str(path))
        assert sensor.name == "avg-temp"

    def test_deploy_descriptor_object(self, container):
        container.deploy(simple_mote_descriptor())
        container.run_for(2_000)
        assert container.sensor("probe").elements_produced == 4

    def test_output_timestamps_monotone(self, container):
        container.deploy(XML)
        container.run_for(5_000)
        rows = container.query(
            "select timed from vs_avg_temp order by timed").to_dicts()
        stamps = [r["timed"] for r in rows]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == len(stamps)

    def test_undeploy_removes_table(self, container):
        container.deploy(XML)
        container.undeploy("avg-temp")
        with pytest.raises(GSNError):
            container.query("select * from vs_avg_temp")

    def test_redeploy_after_undeploy(self, container):
        container.deploy(XML)
        container.undeploy("avg-temp")
        container.deploy(XML)
        container.run_for(1_000)
        assert container.sensor("avg-temp").elements_produced == 2

    def test_bad_xml_rejected(self, container):
        with pytest.raises(GSNError):
            container.deploy("<virtual-sensor")

    def test_bad_semantics_rejected(self, container):
        bad = XML.replace("from src1", "from nowhere")
        with pytest.raises(ValidationError):
            container.deploy(bad)
        assert container.sensor_names() == []

    def test_duplicate_deploy_rejected(self, container):
        container.deploy(XML)
        with pytest.raises(DeploymentError):
            container.deploy(XML)


class TestQueriesAndSubscriptions:
    def test_adhoc_join_across_sensors(self, container):
        container.deploy(simple_mote_descriptor(name="a", interval_ms=500))
        container.deploy(simple_mote_descriptor(name="b", interval_ms=500))
        container.run_for(3_000)
        result = container.query(
            "select count(*) as n from vs_a x join vs_b y "
            "on x.timed = y.timed"
        )
        assert result.first()["n"] == 6

    def test_standing_query_fires_per_arrival(self, container):
        container.deploy(XML)
        container.register_query(
            "select max(temperature) as m from vs_avg_temp"
        )
        container.run_for(3_000)
        queue = container.notifications.channel("queue")
        assert queue.pending == 6  # one per produced element

    def test_unregister_stops_notifications(self, container):
        container.deploy(XML)
        sub = container.register_query("select * from vs_avg_temp")
        container.run_for(1_000)
        container.unregister_query(sub.id)
        queue = container.notifications.channel("queue")
        queue.drain()
        container.run_for(2_000)
        assert queue.pending == 0

    def test_custom_channel(self, container):
        from repro.notifications.channels import CallbackChannel
        hits = []
        container.notifications.add_channel(
            CallbackChannel("cb", hits.append))
        container.deploy(XML)
        container.register_query("select count(*) n from vs_avg_temp",
                                 channel="cb")
        container.run_for(1_500)
        assert len(hits) == 3
        assert hits[-1]["rows"] == [{"n": 3}]

    def test_failing_query_does_not_silence_later_subscribers(
            self, container, caplog):
        from repro.notifications.channels import CallbackChannel
        hits = {"before": [], "after": []}
        for name, sink in hits.items():
            container.notifications.add_channel(
                CallbackChannel(name, sink.append))
        container.deploy(XML)
        later_listener = []
        container.sensor("avg-temp").add_listener(later_listener.append)
        container.register_query("select count(*) as n from vs_avg_temp",
                                 channel="before")
        poisoned = container.register_query(
            "select * from vs_avg_temp where temperature > 'abc'")
        container.register_query("select count(*) as n from vs_avg_temp",
                                 channel="after")
        with caplog.at_level("WARNING", logger="repro.query.repository"):
            container.run_for(1_500)
        assert [hit["rows"] for hit in hits["after"]] \
            == [hit["rows"] for hit in hits["before"]] \
            == [[{"n": 1}], [{"n": 2}], [{"n": 3}]]
        assert len(later_listener) == 3
        assert poisoned.summary()["failures"] == 3
        assert poisoned.notifications_sent == 0
        counters = container.repository.status()["counters"]
        assert counters["failures"] == 3 and counters["evaluations"] == 6
        warnings = [record for record in caplog.records
                    if poisoned.name in record.getMessage()]
        assert len(warnings) == 1  # once per subscription, not per arrival

    def test_retention_bounds_history(self, container):
        # 1h retention vs only 5 s of data: all rows retained; then a
        # tight window via a second sensor.
        container.deploy(simple_mote_descriptor(name="tight",
                                                interval_ms=200,
                                                history="2"))
        container.run_for(3_000)
        result = container.query("select count(*) n from vs_tight")
        assert result.first()["n"] == 2


class TestContainerLifecycle:
    def test_context_manager_shutdown(self):
        with GSNContainer("ctx") as node:
            node.deploy(XML)
        assert node._closed

    def test_shutdown_idempotent(self, container):
        container.deploy(XML)
        container.shutdown()
        container.shutdown()

    def test_run_for_requires_simulated(self):
        node = GSNContainer("wall", simulated=False)
        with pytest.raises(ConfigurationError):
            node.run_for(100)
        node.shutdown()

    def test_status_document(self, container):
        container.deploy(XML)
        container.run_for(1_000)
        status = container.status()
        assert status["name"] == "test"
        assert "avg-temp" in status["virtual_sensors"]["deployed"]
        assert status["storage"]["streams"] == ["vs_avg_temp"]

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            GSNContainer(" ")


class TestAccessControlIntegration:
    def test_enabled_container_requires_credentials(self):
        from repro.access.control import Permission
        with GSNContainer("secure", access_enabled=True) as node:
            principal, key = node.access.create_principal("ops")
            principal.grant(Permission.DEPLOY)
            principal.grant(Permission.READ)

            with pytest.raises(GSNError):
                node.deploy(XML)  # anonymous
            node.deploy(XML, client="ops", api_key=key)

            with pytest.raises(GSNError):
                node.query("select 1")
            assert node.query("select 1", client="ops",
                              api_key=key) is not None

    def test_scoped_deploy_permission(self):
        from repro.access.control import Permission
        with GSNContainer("secure", access_enabled=True) as node:
            principal, key = node.access.create_principal("limited")
            principal.grant(Permission.DEPLOY, scope="avg-temp")
            node.deploy(XML, client="limited", api_key=key)
            with pytest.raises(GSNError):
                node.deploy(
                    XML.replace('name="avg-temp"', 'name="other"'),
                    client="limited", api_key=key,
                )
