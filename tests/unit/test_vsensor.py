"""Unit tests for pools, lifecycle, ISM, and the virtual sensor pipeline."""

import pytest

from repro import GSNContainer
from repro.datatypes import DataType
from repro.descriptors.model import (
    AddressSpec, InputStreamSpec, LifeCycleConfig, StreamSourceSpec,
)
from repro.exceptions import LifecycleError, StreamError
from repro.gsntime.clock import VirtualClock
from repro.storage.base import RetentionPolicy
from repro.storage.memory import MemoryStorage
from repro.streams.schema import StreamSchema
from repro.vsensor.input_manager import InputStreamManager
from repro.vsensor.lifecycle import LifecycleState, LifeCycleManager
from repro.vsensor.pool import WorkerPool
from repro.vsensor.virtual_sensor import VirtualSensor
from repro.wrappers.scripted import ScriptedWrapper

from tests.conftest import simple_mote_descriptor


class TestWorkerPool:
    def test_synchronous_runs_inline(self):
        pool = WorkerPool(1, synchronous=True)
        seen = []
        pool.submit(lambda: seen.append(1))
        assert seen == [1]
        assert pool.tasks_completed == 1

    def test_errors_captured_not_raised(self):
        pool = WorkerPool(1, synchronous=True)
        pool.submit(lambda: 1 / 0)
        assert pool.tasks_failed == 1
        assert isinstance(pool.errors()[0], ZeroDivisionError)
        pool.clear_errors()
        assert pool.errors() == []

    def test_threaded_pool_drains(self):
        pool = WorkerPool(3, synchronous=False)
        seen = []
        for i in range(30):
            pool.submit(lambda i=i: seen.append(i))
        pool.drain()
        assert sorted(seen) == list(range(30))
        pool.shutdown()

    def test_submit_after_shutdown_rejected(self):
        pool = WorkerPool(1, synchronous=True)
        pool.shutdown()
        with pytest.raises(LifecycleError):
            pool.submit(lambda: None)

    def test_bad_size(self):
        with pytest.raises(LifecycleError):
            WorkerPool(0)

    def test_context_manager(self):
        with WorkerPool(2, synchronous=False) as pool:
            pool.submit(lambda: None)
            pool.drain()


class TestLifeCycleManager:
    def make(self):
        return LifeCycleManager("s", LifeCycleConfig(pool_size=2))

    def test_happy_path(self):
        lcm = self.make()
        assert lcm.state is LifecycleState.LOADED
        lcm.start(now=100)
        assert lcm.state is LifecycleState.RUNNING
        assert lcm.started_at == 100
        lcm.pause()
        assert not lcm.is_processing
        lcm.resume()
        assert lcm.is_processing
        lcm.stop()
        assert lcm.state is LifecycleState.STOPPED

    def test_illegal_transitions(self):
        lcm = self.make()
        with pytest.raises(LifecycleError):
            lcm.pause()  # not running yet
        lcm.start(0)
        with pytest.raises(LifecycleError):
            lcm.start(0)  # already running

    def test_fail_path(self):
        lcm = self.make()
        lcm.start(0)
        lcm.fail("wrapper died")
        assert lcm.state is LifecycleState.FAILED
        assert lcm.failure_reason == "wrapper died"
        lcm.stop()

    def test_status(self):
        status = self.make().status()
        assert status["state"] == "loaded"
        assert status["pool_size"] == 2


def scripted(schema=None, value=7):
    wrapper = ScriptedWrapper()
    wrapper.script(lambda now: {"v": value},
                   schema or StreamSchema.build(v=DataType.INTEGER))
    return wrapper


def stream_spec(alias="s1", window="10", sampling=1.0, buffer_size=0,
                rate=0.0, source_query="select * from wrapper",
                stream_query=None):
    return InputStreamSpec(
        name="in",
        sources=(StreamSourceSpec(
            alias=alias, address=AddressSpec("scripted"),
            query=source_query, storage_size=window,
            sampling_rate=sampling, disconnect_buffer=buffer_size,
        ),),
        query=stream_query or f"select * from {alias}",
        rate=rate,
    )


class TestInputStreamManager:
    def setup_method(self):
        self.clock = VirtualClock(1_000)
        self.triggers = []
        self.ism = InputStreamManager(
            self.clock, lambda name, el: self.triggers.append((name, el))
        )

    def test_trigger_on_admission(self):
        wrapper = scripted()
        wrapper.attach(self.clock)
        wrapper.configure({})
        self.ism.add_stream(stream_spec(), {"s1": wrapper})
        wrapper.start()
        wrapper.tick()
        assert len(self.triggers) == 1
        name, element = self.triggers[0]
        assert name == "in"
        assert element.timed == 1_000

    def test_unstamped_elements_get_local_clock(self):
        wrapper = scripted()
        wrapper.attach(self.clock)
        self.ism.add_stream(stream_spec(), {"s1": wrapper})
        wrapper.emit({"v": 1})  # no timestamp
        assert self.triggers[0][1].timed == 1_000
        assert self.triggers[0][1].arrival_time == 1_000

    def test_producer_timestamp_kept(self):
        wrapper = scripted()
        wrapper.attach(self.clock)
        self.ism.add_stream(stream_spec(), {"s1": wrapper})
        wrapper.emit({"v": 1}, timed=123)
        assert self.triggers[0][1].timed == 123

    def test_rate_bounding(self):
        wrapper = scripted()
        wrapper.attach(self.clock)
        self.ism.add_stream(stream_spec(rate=1.0), {"s1": wrapper})
        wrapper.emit({"v": 1}, timed=1_000)
        wrapper.emit({"v": 2}, timed=1_100)   # < 1s later: bounded
        wrapper.emit({"v": 3}, timed=2_500)
        assert len(self.triggers) == 2
        stream = self.ism.stream("in")
        assert stream.triggers_bounded == 1

    def test_sampling_drops(self):
        wrapper = scripted()
        wrapper.attach(self.clock)
        self.ism = InputStreamManager(self.clock,
                                      lambda *a: self.triggers.append(a),
                                      seed=1)
        self.ism.add_stream(stream_spec(sampling=0.01), {"s1": wrapper})
        for i in range(100):
            wrapper.emit({"v": i}, timed=1_000 + i)
        assert len(self.triggers) < 20

    def test_disconnect_buffers_and_replays(self):
        wrapper = scripted()
        wrapper.attach(self.clock)
        self.ism.add_stream(stream_spec(buffer_size=5), {"s1": wrapper})
        source = self.ism.stream("in").source("s1")
        source.disconnect()
        wrapper.emit({"v": 1}, timed=1_001)
        wrapper.emit({"v": 2}, timed=1_002)
        assert self.triggers == []
        replayed = source.reconnect()
        assert len(replayed) == 2
        assert len(source.history) == 2

    def test_pause_resume(self):
        wrapper = scripted()
        wrapper.attach(self.clock)
        self.ism.add_stream(stream_spec(), {"s1": wrapper})
        self.ism.pause()
        wrapper.emit({"v": 1}, timed=1_001)
        assert self.triggers == []
        self.ism.resume()
        wrapper.emit({"v": 2}, timed=1_002)
        assert len(self.triggers) == 1

    def test_window_relation_shape(self):
        wrapper = scripted()
        wrapper.attach(self.clock)
        self.ism.add_stream(stream_spec(window="3"), {"s1": wrapper})
        for i in range(5):
            wrapper.emit({"v": i}, timed=1_000 + i)
        relation = self.ism.stream("in").source("s1").window_relation()
        assert relation.columns == ("v", "timed")
        assert [row[0] for row in relation.rows] == [2, 3, 4]

    def test_duplicate_stream_rejected(self):
        wrapper = scripted()
        wrapper.attach(self.clock)
        self.ism.add_stream(stream_spec(), {"s1": wrapper})
        with pytest.raises(StreamError):
            self.ism.add_stream(stream_spec(), {"s1": wrapper})

    def test_unknown_stream_and_source(self):
        with pytest.raises(StreamError):
            self.ism.stream("nope")
        wrapper = scripted()
        wrapper.attach(self.clock)
        stream = self.ism.add_stream(stream_spec(), {"s1": wrapper})
        with pytest.raises(StreamError):
            stream.source("zz")


class TestVirtualSensorPipeline:
    def build_sensor(self, descriptor=None, value=7):
        descriptor = descriptor or simple_mote_descriptor()
        clock = VirtualClock(10_000)
        wrapper = ScriptedWrapper()
        wrapper.script(
            lambda now: {"temperature": value},
            StreamSchema.build(temperature=DataType.INTEGER),
        )
        wrapper.attach(clock)
        wrapper.configure({})
        storage = MemoryStorage()
        table = storage.create("out", descriptor.output_structure,
                               RetentionPolicy("all"))
        sensor = VirtualSensor(descriptor, clock, {"src": wrapper},
                               output_table=table)
        return sensor, wrapper, clock, table

    def test_trigger_produces_output(self):
        sensor, wrapper, clock, table = self.build_sensor()
        sensor.start()
        wrapper.tick()
        assert sensor.elements_produced == 1
        assert table.latest()["temperature"] == 7

    def test_average_computed_over_window(self):
        descriptor = simple_mote_descriptor(window="10")
        sensor, wrapper, clock, table = self.build_sensor(descriptor)
        sensor.start()
        for value in (10, 20, 30):
            wrapper._producer = lambda now, v=value: {"temperature": v}
            clock.advance(100)
            wrapper.tick()
        assert table.latest()["temperature"] == 20  # avg(10,20,30)

    def test_not_processing_when_paused(self):
        sensor, wrapper, clock, table = self.build_sensor()
        sensor.start()
        sensor.pause()
        wrapper.tick()
        assert sensor.elements_produced == 0
        sensor.resume()
        wrapper.tick()
        assert sensor.elements_produced == 1

    def test_output_rounding_for_integer_fields(self):
        # avg() yields floats; the integer output field must round.
        descriptor = simple_mote_descriptor(window="10")
        sensor, wrapper, clock, table = self.build_sensor(descriptor)
        sensor.start()
        for value in (10, 11):
            wrapper._producer = lambda now, v=value: {"temperature": v}
            clock.advance(10)
            wrapper.tick()
        assert table.latest()["temperature"] == 10  # round(10.5) -> 10

    def test_latency_recorded(self):
        sensor, wrapper, clock, __ = self.build_sensor()
        sensor.start()
        wrapper.tick()
        assert sensor.latency.count == 1
        assert sensor.latency.mean_ms > 0

    def test_processing_hook_invoked(self):
        sensor, wrapper, clock, __ = self.build_sensor()
        calls = []
        sensor.processing_hooks.append(lambda t, ms: calls.append((t, ms)))
        sensor.start()
        wrapper.tick()
        assert len(calls) == 1
        assert calls[0][0] == 10_000

    def test_stop_stops_wrappers(self):
        sensor, wrapper, clock, __ = self.build_sensor()
        sensor.start()
        sensor.stop()
        assert wrapper.state.value == "stopped"

    def test_pipeline_errors_counted_not_raised(self):
        descriptor = simple_mote_descriptor(
            stream_query="select temperature from src",
        )
        sensor, wrapper, clock, __ = self.build_sensor(descriptor)
        sensor.start()
        # Break the output query's input: emit a payload whose field is a
        # string, making avg() fail inside the pipeline.
        wrapper._producer = lambda now: {"temperature": "boom"}
        wrapper.tick()
        assert sensor.lifecycle.pool.tasks_failed == 1
        assert sensor.elements_produced == 0

    def test_status_document(self):
        sensor, wrapper, clock, __ = self.build_sensor()
        sensor.start()
        wrapper.tick()
        status = sensor.status()
        assert status["name"] == "probe"
        assert status["elements_produced"] == 1
        assert "in" in status["input_streams"]


class TestStatusIsARead:
    """``status()`` counts the window; it must never change what the
    sensor answers next (the horizon moves only on a query's read)."""

    def last_answer(self, probe_status):
        container = GSNContainer("status-read")
        try:
            container.clock.advance(1_000)
            container.deploy(simple_mote_descriptor(
                interval_ms=10_000_000, window="1s", permanent=False,
                source_query="select count(*) as temperature "
                             "from wrapper"))
            sensor = container.sensor("probe")
            source = sensor.ism.stream("in").source("src")
            outputs = []
            sensor.add_listener(outputs.append)
            for timed in (900, 6_000):
                sensor.ingest_batch("in", "src",
                                    [{"temperature": 1, "timed": timed}])
            if probe_status:
                sizes = []
                for __ in range(2):
                    container.status()
                    sizes.append(source.status()["window_size"])
            sensor.ingest_batch("in", "src",
                                [{"temperature": 1, "timed": 950}])
            if probe_status:
                assert outputs[-1]["temperature"] == 2
                assert sizes == [2, 2]
                version = source.history.version
                container.status()
                container.status()
                assert source.history.version == version
                assert source.status()["window_size"] == 3
            return outputs[-1]["temperature"]
        finally:
            container.shutdown()

    def test_status_does_not_change_the_next_answer(self):
        assert self.last_answer(False) == self.last_answer(True) == 2
