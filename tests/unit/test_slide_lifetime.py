"""Unit tests for window slide and stream lifetime bounding
(paper, Section 3: sampling / rate / lifetime control of temporal
processing)."""

import pytest

from repro.datatypes import DataType
from repro.descriptors.model import (
    AddressSpec, InputStreamSpec, StreamSourceSpec,
)
from repro.descriptors.validation import validate_descriptor
from repro.descriptors.xml_io import descriptor_from_xml, descriptor_to_xml
from repro.exceptions import ValidationError
from repro.gsntime.clock import VirtualClock
from repro.streams.schema import StreamSchema
from repro.vsensor.input_manager import InputStreamManager
from repro.wrappers.scripted import ScriptedWrapper

from tests.conftest import simple_mote_descriptor


def spec(slide=None, lifetime=None):
    return InputStreamSpec(
        name="in",
        sources=(StreamSourceSpec(
            alias="s1", address=AddressSpec("scripted"),
            storage_size="100", slide=slide,
        ),),
        query="select * from s1",
        lifetime=lifetime,
    )


def wired_ism(clock, triggers):
    ism = InputStreamManager(clock, lambda name, el: triggers.append(el))
    wrapper = ScriptedWrapper()
    wrapper.script(lambda now: {"v": 1},
                   StreamSchema.build(v=DataType.INTEGER))
    wrapper.attach(clock)
    return ism, wrapper


class TestSlide:
    def test_count_slide_fires_every_nth(self):
        clock = VirtualClock(1_000)
        triggers = []
        ism, wrapper = wired_ism(clock, triggers)
        ism.add_stream(spec(slide="3"), {"s1": wrapper})
        for i in range(9):
            wrapper.emit({"v": i}, timed=1_000 + i)
        assert len(triggers) == 3
        assert [e.timed for e in triggers] == [1_002, 1_005, 1_008]

    def test_count_slide_window_still_updates(self):
        clock = VirtualClock(1_000)
        triggers = []
        ism, wrapper = wired_ism(clock, triggers)
        ism.add_stream(spec(slide="4"), {"s1": wrapper})
        for i in range(4):
            wrapper.emit({"v": i}, timed=1_000 + i)
        source = ism.stream("in").source("s1")
        assert len(source.history) == 4  # all admitted

    def test_time_slide_fires_on_elapsed_span(self):
        clock = VirtualClock(0)
        triggers = []
        ism, wrapper = wired_ism(clock, triggers)
        ism.add_stream(spec(slide="1s"), {"s1": wrapper})
        for timed in (0, 200, 900, 1_000, 1_500, 2_100):
            wrapper.emit({"v": 1}, timed=timed)
        assert [e.timed for e in triggers] == [0, 1_000, 2_100]

    def test_no_slide_triggers_every_admission(self):
        clock = VirtualClock(0)
        triggers = []
        ism, wrapper = wired_ism(clock, triggers)
        ism.add_stream(spec(), {"s1": wrapper})
        for i in range(5):
            wrapper.emit({"v": i}, timed=i)
        assert len(triggers) == 5


class TestLifetime:
    def test_stream_stops_after_lifetime(self):
        clock = VirtualClock(0)
        triggers = []
        ism, wrapper = wired_ism(clock, triggers)
        ism.add_stream(spec(lifetime="2s"), {"s1": wrapper})
        wrapper.emit({"v": 1}, timed=100)
        clock.advance(1_000)
        wrapper.emit({"v": 2}, timed=1_100)
        clock.advance(1_500)  # now = 2_500, past the 2 s lifetime
        wrapper.emit({"v": 3}, timed=2_500)
        assert len(triggers) == 2
        assert ism.stream("in").expired(clock.now())

    def test_unbounded_by_default(self):
        clock = VirtualClock(0)
        triggers = []
        ism, wrapper = wired_ism(clock, triggers)
        ism.add_stream(spec(), {"s1": wrapper})
        assert ism.stream("in").expires_at is None
        clock.advance(10**9)
        wrapper.emit({"v": 1}, timed=clock.now())
        assert len(triggers) == 1

    def test_status_reports_expiry(self):
        clock = VirtualClock(0)
        ism, wrapper = wired_ism(clock, [])
        ism.add_stream(spec(lifetime="1s"), {"s1": wrapper})
        assert ism.status()["in"]["expired"] is False
        clock.advance(2_000)
        assert ism.status()["in"]["expired"] is True


class TestDescriptorPlumbing:
    def test_xml_roundtrip_with_slide_and_lifetime(self):
        from dataclasses import replace
        descriptor = simple_mote_descriptor()
        stream = descriptor.input_streams[0]
        source = replace(stream.sources[0], slide="5")
        stream = replace(stream, sources=(source,), lifetime="1h")
        descriptor = replace(descriptor, input_streams=(stream,))
        again = descriptor_from_xml(descriptor_to_xml(descriptor))
        assert again == descriptor
        assert again.input_streams[0].lifetime == "1h"
        assert again.input_streams[0].sources[0].slide == "5"

    def test_bad_lifetime_rejected(self):
        from dataclasses import replace
        descriptor = simple_mote_descriptor()
        stream = replace(descriptor.input_streams[0], lifetime="soon")
        bad = replace(descriptor, input_streams=(stream,))
        with pytest.raises(ValidationError, match="lifetime"):
            validate_descriptor(bad)

    def test_bad_slide_rejected(self):
        from dataclasses import replace
        descriptor = simple_mote_descriptor()
        source = replace(descriptor.input_streams[0].sources[0],
                         slide="sometimes")
        stream = replace(descriptor.input_streams[0], sources=(source,))
        bad = replace(descriptor, input_streams=(stream,))
        with pytest.raises(ValidationError, match="slide"):
            validate_descriptor(bad)

    def test_container_integration(self):
        """A slide-2 sensor halves its output volume."""
        from repro import GSNContainer
        from dataclasses import replace
        descriptor = simple_mote_descriptor(interval_ms=500)
        source = replace(descriptor.input_streams[0].sources[0], slide="2")
        stream = replace(descriptor.input_streams[0], sources=(source,))
        descriptor = replace(descriptor, input_streams=(stream,))
        with GSNContainer("slide-test") as node:
            node.deploy(descriptor)
            node.run_for(4_000)
            assert node.sensor("probe").elements_produced == 4  # 8 ticks / 2
