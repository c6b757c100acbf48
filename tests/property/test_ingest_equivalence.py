"""Property: batched ingestion ≡ per-tuple ingestion.

The async gateway amortizes one window-update + query evaluation over a
whole batch (:meth:`InputStreamManager.ingest_batch`). Hypothesis
generates a random tuple sequence and a random partition of it into
batches, feeds one container the batches and a twin container the same
tuples one at a time, and checks the claim the batching rests on: the
source window holds exactly the same rows afterwards, and the final
evaluated output (the state any later trigger would see) is identical.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro import GSNContainer
from repro.datatypes import DataType
from repro.streams.schema import Field, StreamSchema

from ..conftest import simple_mote_descriptor


@st.composite
def tuple_batches(draw):
    """A random tuple sequence with a random batch partition of it."""
    values = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=40))
    batches = []
    index = 0
    while index < len(values):
        size = draw(st.integers(1, 8))
        batches.append(values[index:index + size])
        index += size
    return batches


def fresh_probe(name):
    container = GSNContainer(name)
    container.deploy(simple_mote_descriptor())
    sensor = container.sensor("probe")
    outputs = []
    sensor.add_listener(outputs.append)
    return container, sensor, outputs


def window_values(sensor):
    return list(sensor.ism.stream("in").source("src").history.rows)


@settings(max_examples=20, deadline=None)
@given(batches=tuple_batches())
def test_batched_ingest_matches_per_tuple(batches):
    batched_container, batched_sensor, batched_out = fresh_probe("batched")
    tuple_container, tuple_sensor, tuple_out = fresh_probe("pertuple")
    try:
        total = sum(len(batch) for batch in batches)
        admitted_batched = sum(
            batched_sensor.ingest_batch(
                "in", "src", [{"temperature": value} for value in batch])
            for batch in batches)
        admitted_tuples = sum(
            tuple_sensor.ingest_batch(
                "in", "src", [{"temperature": value}])
            for batch in batches for value in batch)

        assert admitted_batched == admitted_tuples == total
        assert window_values(batched_sensor) == window_values(tuple_sensor)

        # Both paths evaluated at least once, and the *final* evaluation
        # saw the same window, so the last outputs must agree.
        assert batched_out and tuple_out
        assert batched_out[-1].values == tuple_out[-1].values
        # Batching amortizes: one evaluation per batch, never more.
        assert len(batched_out) == len(batches)
        assert len(tuple_out) == total
    finally:
        batched_container.shutdown()
        tuple_container.shutdown()


# -- the batch-native admission path ---------------------------------------
#
# ``SourceRuntime.receive_many`` stamps, samples and windows a batch in
# one pass and tells the delta accumulators once. The twin below takes
# the same tuples through batches of one; everything that outlives a
# batch must come out the same, floats bit for bit.

_START_MS = 10_000


def admission_descriptor(window, slide, sampling):
    base = simple_mote_descriptor(
        window=window, sampling=sampling, disconnect_buffer=16,
        source_query=("select avg(temperature) as mean, "
                      "sum(temperature) as total, "
                      "max(temperature) as peak from wrapper"))
    stream = base.input_streams[0]
    source = dataclasses.replace(stream.sources[0], slide=slide)
    return dataclasses.replace(
        base,
        output_structure=StreamSchema([
            Field("mean", DataType.DOUBLE), Field("total", DataType.DOUBLE),
            Field("peak", DataType.DOUBLE)]),
        input_streams=(dataclasses.replace(stream, sources=(source,)),))


@st.composite
def admission_runs(draw):
    window = draw(st.sampled_from(["1", "4", "13", "1s", "3s"]))
    timed_window = window.endswith("s")
    if timed_window:
        # Expiry happens at trigger time, so a time window folds its
        # evictions in a different order batched than per tuple; sums of
        # quarters are exact in either order.
        value = st.integers(-400, 400).map(lambda n: n / 4)
    else:
        value = st.floats(-1e6, 1e6, allow_nan=False, width=32)
    # ``timed``: absent (the container stamps on arrival) or supplied by
    # the producer, out of order and on both sides of the window's edge.
    timed = st.one_of(st.none(), st.integers(_START_MS - 3500,
                                             _START_MS + 400))
    # Batches longer than the windows of 1, 4 and 13.
    batches = draw(st.lists(
        st.lists(st.tuples(value, timed), min_size=1, max_size=20),
        min_size=1, max_size=6))
    outage = None
    if len(batches) >= 3 and draw(st.booleans()):
        start = draw(st.integers(1, len(batches) - 2))
        outage = (start, draw(st.integers(start + 1, len(batches) - 1)))
    return {
        "window": window,
        "slide": draw(st.sampled_from([None, None, "3", "1s"])),
        "sampling": draw(st.sampled_from([1.0, 1.0, 0.6])),
        "batches": batches,
        "advance": draw(st.lists(st.integers(0, 700),
                                 min_size=len(batches),
                                 max_size=len(batches))),
        "outage": outage,
    }


def payload(value, timed):
    body = {"temperature": value}
    if timed is not None:
        body["timed"] = timed
    return body


def source_state(sensor):
    source = sensor.ism.stream("in").source("src")
    return {
        "window": list(source.history.rows),
        "admitted": source.elements_admitted,
        "quality": source.quality.report.as_dict(),
        "slide": (source._slide_count, source._last_slide_fire),
        "buffered": source.buffer.pending,
    }


@settings(max_examples=60, deadline=None)
@given(run=admission_runs())
def test_batch_admission_matches_batches_of_one(run):
    twins = []
    for name in ("batched", "single"):
        container = GSNContainer(name)        # same seed: same sampler
        container.deploy(admission_descriptor(
            run["window"], run["slide"], run["sampling"]))
        container.clock.advance(_START_MS)
        sensor = container.sensor("probe")
        outputs = []
        sensor.add_listener(outputs.append)
        twins.append((container, sensor, outputs))
    (__, batched, batched_out), (__, single, single_out) = twins
    try:
        for index, batch in enumerate(run["batches"]):
            for container, sensor, __ in twins:
                container.clock.advance(run["advance"][index])
                source = sensor.ism.stream("in").source("src")
                if run["outage"] and index == run["outage"][0]:
                    source.disconnect()
                if run["outage"] and index == run["outage"][1]:
                    if sensor is batched:
                        source.reconnect()
                    else:
                        # The reference replay: one element at a time.
                        for element in source.buffer.reconnect():
                            source._into_window([element])
            tuples = [payload(*item) for item in batch]
            batched.ingest_batch("in", "src", tuples)
            for item in tuples:
                single.ingest_batch("in", "src", [item])

        assert source_state(batched) == source_state(single)
        batched_window = batched.ism.stream("in").source("src").history
        single_window = single.ism.stream("in").source("src").history
        if not run["window"].endswith("s"):
            # (a time window's version also counts trigger-time expiry)
            assert batched_window.version == single_window.version
        if run["slide"] is None:
            # The last trigger of either twin saw the same window.
            assert bool(batched_out) == bool(single_out)
            if batched_out:
                assert batched_out[-1].values == single_out[-1].values
                assert batched_out[-1].timed == single_out[-1].timed
        assert len(batched_out) <= len(run["batches"])
    finally:
        for container, __, __ in twins:
            container.shutdown()
