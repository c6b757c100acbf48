"""Integration: on-the-fly reconfiguration and failure injection — the
behaviours the paper's demo showcased."""

from dataclasses import replace

import pytest

from repro.exceptions import DeploymentError, ValidationError

from tests.conftest import simple_mote_descriptor


class TestDynamicReconfiguration:
    def test_add_sensor_while_running(self, container):
        container.deploy(simple_mote_descriptor(name="first",
                                                interval_ms=500))
        container.run_for(2_000)
        container.deploy(simple_mote_descriptor(name="second",
                                                interval_ms=500))
        container.run_for(2_000)
        first = container.sensor("first").elements_produced
        second = container.sensor("second").elements_produced
        assert first == 8
        assert second == 4

    def test_remove_sensor_while_others_run(self, container):
        container.deploy(simple_mote_descriptor(name="keep",
                                                interval_ms=500))
        container.deploy(simple_mote_descriptor(name="drop",
                                                interval_ms=500))
        container.run_for(1_000)
        container.undeploy("drop")
        container.run_for(1_000)
        assert container.sensor("keep").elements_produced == 4
        assert container.sensor_names() == ["keep"]

    def test_reconfigure_interval_on_the_fly(self, container):
        container.deploy(simple_mote_descriptor(interval_ms=250))
        container.run_for(1_000)
        assert container.sensor("probe").elements_produced == 4
        container.reconfigure(simple_mote_descriptor(interval_ms=1_000))
        container.run_for(4_000)
        assert container.sensor("probe").elements_produced == 4

    def test_subscription_survives_reconfigure(self, container):
        container.deploy(simple_mote_descriptor(interval_ms=500))
        container.register_query("select count(*) n from vs_probe")
        container.run_for(1_000)
        container.reconfigure(simple_mote_descriptor(interval_ms=500))
        container.run_for(1_000)
        queue = container.notifications.channel("queue")
        assert queue.pending == 4  # 2 before + 2 after the swap

    def test_failed_reconfigure_keeps_old_sensor_running(self, container):
        container.deploy(simple_mote_descriptor(interval_ms=500))
        bad = simple_mote_descriptor(stream_query="select * from ghost")
        with pytest.raises(ValidationError):
            container.reconfigure(bad)
        container.run_for(1_000)
        assert container.sensor("probe").elements_produced == 2

    def test_strict_rejected_reconfigure_keeps_old_sensor(self, container):
        container.deploy(simple_mote_descriptor(interval_ms=500))
        container.run_for(1_000)
        bad = simple_mote_descriptor(
            source_query="select nosuch from wrapper")
        with pytest.raises(DeploymentError, match="GSN101"):
            container.reconfigure(bad, strict=True)
        assert container.sensor_names() == ["probe"]
        container.run_for(1_000)
        assert container.sensor("probe").elements_produced == 4
        assert len(container.query("select * from vs_probe")) == 4

    def test_wrapper_build_failure_keeps_old_sensor(self, container):
        container.deploy(simple_mote_descriptor(interval_ms=500))
        container.run_for(1_000)
        good = simple_mote_descriptor()
        stream = good.input_streams[0]
        source = stream.sources[0]
        # A remote source needs a peer network this container lacks.
        bad = replace(good, input_streams=(replace(stream, sources=(
            replace(source, address=replace(source.address,
                                            wrapper="remote")),)),))
        with pytest.raises(DeploymentError, match="no peer network"):
            container.reconfigure(bad)
        assert container.sensor_names() == ["probe"]
        container.run_for(1_000)
        assert container.sensor("probe").elements_produced == 4
        assert len(container.query("select * from vs_probe")) == 4

    def test_pause_resume_sensor(self, container):
        sensor = container.deploy(simple_mote_descriptor(interval_ms=500))
        container.run_for(1_000)
        sensor.pause()
        container.run_for(2_000)
        assert sensor.elements_produced == 2
        sensor.resume()
        container.run_for(1_000)
        assert sensor.elements_produced == 4


class TestFailureInjection:
    def test_disconnect_buffer_replays(self, container):
        container.deploy(simple_mote_descriptor(
            interval_ms=500, disconnect_buffer=10))
        container.run_for(1_000)
        source = container.sensor("probe").ism.stream("in").source("src")

        source.disconnect()
        container.run_for(2_000)  # 4 elements buffered, none processed
        assert container.sensor("probe").elements_produced == 2
        assert source.buffer.pending == 4

        replayed = source.reconnect()
        assert len(replayed) == 4
        # Replayed elements entered the window; the next trigger sees them.
        container.run_for(500)
        result = container.query(
            "select count(*) n from vs_probe").first()["n"]
        assert result == 3

    def test_disconnect_without_buffer_loses_data(self, container):
        container.deploy(simple_mote_descriptor(interval_ms=500,
                                                disconnect_buffer=0))
        source = container.sensor("probe").ism.stream("in").source("src")
        source.disconnect()
        container.run_for(2_000)
        assert source.reconnect() == []
        assert source.buffer.total_dropped == 4

    def test_quality_report_tracks_outage(self, container):
        container.deploy(simple_mote_descriptor(interval_ms=500,
                                                disconnect_buffer=2))
        source = container.sensor("probe").ism.stream("in").source("src")
        source.disconnect()
        container.run_for(1_000)
        source.reconnect()
        report = source.quality.report
        assert report.disconnect_count == 1
        assert report.elements_seen == 2

    def test_missing_values_flow_through(self, container):
        # A mote that always drops its readings: avg(NULL...) is NULL and
        # the output element carries a NULL temperature.
        descriptor = simple_mote_descriptor(interval_ms=500)
        from dataclasses import replace
        source = descriptor.input_streams[0].sources[0]
        lossy_address = type(source.address)(
            "mica2", {"interval": "500", "missing-rate": "1.0"})
        stream = replace(descriptor.input_streams[0],
                         sources=(replace(source, address=lossy_address),))
        container.deploy(replace(descriptor, input_streams=(stream,)))
        container.run_for(1_000)
        rows = container.query(
            "select temperature from vs_probe").to_dicts()
        assert rows
        assert all(r["temperature"] is None for r in rows)
        quality = (container.sensor("probe").ism.stream("in")
                   .source("src").quality.report)
        assert quality.missing_value_count > 0

    def test_pipeline_failure_isolated_per_sensor(self, container):
        """One failing sensor must not stop a healthy one."""
        from repro.wrappers.scripted import ScriptedWrapper
        from repro.streams.schema import StreamSchema
        from repro.datatypes import DataType

        container.deploy(simple_mote_descriptor(name="healthy",
                                                interval_ms=500))
        broken = container.deploy(simple_mote_descriptor(
            name="broken", interval_ms=500))
        # Sabotage the broken sensor's wrapper to emit garbage types.
        wrapper = broken.wrappers["src"]
        evil = ScriptedWrapper()
        evil.script(lambda now: {"temperature": "garbage"},
                    StreamSchema.build(temperature=DataType.INTEGER))
        evil.attach(container.clock, container.scheduler)
        evil.configure({"interval": "500"})
        evil.add_listener(
            broken.ism._listener("in",
                                 broken.ism.stream("in").source("src"))
        )
        wrapper.stop()
        evil.start()

        container.run_for(2_000)
        assert container.sensor("healthy").elements_produced == 4
        assert broken.lifecycle.pool.tasks_failed > 0

    def test_rate_bound_protects_under_burst(self, container):
        container.deploy(simple_mote_descriptor(interval_ms=100, rate=2.0))
        container.run_for(5_000)
        stream = container.sensor("probe").ism.stream("in")
        # 50 arrivals at 10/s bounded to 2/s.
        assert stream.triggers_bounded > 0
        assert container.sensor("probe").elements_produced <= 11

    def test_sampling_reduces_volume(self, container):
        container.deploy(simple_mote_descriptor(interval_ms=100,
                                                sampling=0.2))
        container.run_for(10_000)
        produced = container.sensor("probe").elements_produced
        assert 0 < produced < 50  # ~20 expected from 100 arrivals
