"""The four workloads: fixed constants, seeded inputs, descriptors.

Everything that shapes a run lives here and is identical on every
commit; only ``--seed`` varies the *values* the container receives.
Both processes import this module: the parent to generate HTTP bodies
and reference answers, the child (``sut.py``) to deploy the sensors and,
on the wrapper workloads, to pace them.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from repro.datatypes import DataType
from repro.descriptors.model import (
    AddressSpec, InputStreamSpec, StorageConfig, StreamSourceSpec,
    VirtualSensorDescriptor,
)
from repro.descriptors.xml_io import descriptor_to_xml
from repro.simulation.workload import payload_descriptor
from repro.streams.schema import Field, StreamSchema
from repro.wrappers.base import Wrapper

# -- run shape (shares of --seconds; see README "Run shape") ----------------

#: Warm-up before the first slice, as a share of ``--seconds``.
WARMUP_SHARE = 0.1
#: Open-loop share of ``--seconds``; the rest is saturation. Both are cut
#: into ``CYCLES`` slices that alternate, so every metric is sampled over
#: the whole run and a slow spell of the machine lands in a minority of
#: each metric's slices (the metrics are medians over slices).
OPEN_SHARE = 0.55
CYCLES = 6
#: Longest wait for the last result of a slice.
DRAIN_TIMEOUT_S = 5.0
#: Child start-ups per run, one before and the rest between the cycles;
#: ``setup_s`` is their median.
SETUPS_PER_RUN = 5
#: A run whose generator ran later than this (p99) is ``disturbed``.
DISTURBED_LAG_MS = 10.0

#: Period of the seeded value tables (longer than every window).
_PERIOD = 4096

WORKLOADS: Dict[str, Dict[str, Any]] = {
    "gateway_delta": {
        "ingress": "gateway",
        "sensor": "gd",
        "window": 1000,
        "history": 64,
        "permanent": True,
        "source_query": "select max(seq) as seq, avg(v) as v from wrapper",
        "fields": ("seq", "v"),
        # Re-sized once from the issue's 16-tuple bodies: at 2 000
        # tuples/s the seed kept the SUT at 21 % of one core, under the
        # 25 % floor. 48-tuple bodies (6 000 tuples/s) put it at ~31 %.
        # The request rate stays at 125/s: a period under the gateway's
        # 5 ms batch timer would merge requests into batches and make
        # the latency distribution bimodal.
        "request_tuples": 48,
        "requests_per_s": 125.0,
        "reads_per_s": 10.0,
        "saturation_tuples_per_s": 36000.0,
    },
    "gateway_scan": {
        "ingress": "gateway",
        "sensor": "gs",
        "window": 2000,
        "history": 64,
        "permanent": False,
        "source_query": ("select seq, v, k from wrapper where v > 10 "
                         "order by seq desc limit 1"),
        "fields": ("seq", "v", "k"),
        "request_tuples": 16,
        "requests_per_s": 62.5,
        "reads_per_s": 0.0,
        "saturation_tuples_per_s": 17000.0,
    },
    "device_fleet": {
        "ingress": "wrapper",
        "sensors": 16,
        "hz": 30.0,
        "payload_bytes": 32768,
        "window": "10s",
        "saturation_tuples_per_s": 1150.0,
    },
    "client_fanout": {
        "ingress": "wrapper",
        "sensor": "cf",
        "clients": 100,
        "history": 500,
        "tuples_per_s": 4.0,
        "saturation_tuples_per_s": 11.0,
    },
}

#: The layers expected on top of each workload's budget (from code
#: reading and scratch runs before the harness existed); the suite
#: prints them beside the measured ones. A mismatch is a finding.
EXPECTED_TOP = {
    "gateway_delta": ("storage",),
    "gateway_scan": ("sqlengine",),
    "device_fleet": ("storage", "virtual_sensor"),
    "client_fanout": ("storage", "processor"),
}

#: Tuples per POST body in the saturation phase (= the gateway's default
#: ``max_batch``, so every request flushes as exactly one batch).
SATURATION_REQUEST_TUPLES = 128
#: The saturation generator holds back while the gateway's own
#: ``/status`` reports this many batches queued (capacity is 256), so
#: the phase keeps the drain thread busy without a single shed tuple.
SATURATION_MAX_DEPTH = 192
SATURATION_POLL_EVERY = 8

_TYPES = {"seq": DataType.INTEGER, "v": DataType.DOUBLE,
          "k": DataType.INTEGER, "camera_id": DataType.INTEGER,
          "width": DataType.INTEGER, "height": DataType.INTEGER}

_FANOUT_FIELDS = ("camera_id", "width", "height", "seq")


def sends_per_s(name: str) -> float:
    """Open-loop sends per second: requests on a gateway workload,
    wrapper calls (one tuple each) otherwise."""
    spec = WORKLOADS[name]
    if spec["ingress"] == "gateway":
        return spec["requests_per_s"]
    if name == "device_fleet":
        return spec["sensors"] * spec["hz"]
    return spec["tuples_per_s"]


def slice_sends(name: str, seconds: float) -> Dict[str, int]:
    """Sends in the warm-up, in one open-loop slice and in one
    saturation slice of a run of ``seconds``. A saturation slice is a
    fixed amount of work, about its share of ``seconds`` at the seed's
    capacity (``saturation_tuples_per_s``), so the same ``--seconds``
    always offers the same inputs and what a slice leaves behind in the
    windows does not depend on how fast it was served."""
    spec = WORKLOADS[name]
    rate = sends_per_s(name)
    per_send = SATURATION_REQUEST_TUPLES \
        if spec["ingress"] == "gateway" else 1
    saturation_s = seconds * (1 - OPEN_SHARE - WARMUP_SHARE) / CYCLES
    return {
        "warmup": max(1, round(seconds * WARMUP_SHARE * rate)),
        "open": max(1, round(seconds * OPEN_SHARE / CYCLES * rate)),
        "saturation": max(1, round(
            saturation_s * spec["saturation_tuples_per_s"] / per_send)),
    }


class Values:
    """The seeded value stream: the payload of tuple ``seq``."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        # Two decimals keep the delta-maintained running sums exact
        # enough to compare against a fresh mean with a tight tolerance.
        self.v = [rng.randint(0, 4000) / 100.0 for __ in range(_PERIOD)]
        self.k = [rng.randint(0, 1000) for __ in range(_PERIOD)]
        self.dims = [(rng.randint(0, 1000), rng.randint(0, 1000),
                      rng.randint(0, 1000)) for __ in range(_PERIOD)]

    def gateway_tuple(self, seq: int) -> Dict[str, Any]:
        slot = seq % _PERIOD
        return {"seq": seq, "v": self.v[slot], "k": self.k[slot]}

    def gateway_batch(self, start: int, count: int) -> List[Dict[str, Any]]:
        return [self.gateway_tuple(seq) for seq in range(start, start + count)]

    def fanout_tuple(self, seq: int) -> Dict[str, Any]:
        camera_id, width, height = self.dims[seq % _PERIOD]
        return {"camera_id": camera_id, "width": width, "height": height,
                "seq": seq}


class BenchWrapper(Wrapper):
    """The benchmark's push source: declares a schema, produces nothing.

    Gateway workloads deliver straight into ``VirtualSensor.ingest_batch``
    (the gateway bypasses wrappers by design); ``client_fanout`` pushes
    through the public :meth:`Wrapper.emit` from the pacer.
    """

    wrapper_name = "bench-push"

    def on_configure(self) -> None:
        names = self.config_str("fields", "seq,v,k").split(",")
        self._schema = StreamSchema(
            [Field(name, _TYPES[name]) for name in names])

    def output_schema(self) -> StreamSchema:
        return self._schema


def _push_descriptor(name: str, fields, window: str, source_query: str,
                     history: int, permanent: bool) -> str:
    wrapper_fields = ("seq", "v", "k") if "v" in fields else _FANOUT_FIELDS
    return descriptor_to_xml(VirtualSensorDescriptor(
        name=name,
        output_structure=StreamSchema(
            [Field(field, _TYPES[field]) for field in fields]),
        input_streams=(InputStreamSpec(
            name="in",
            sources=(StreamSourceSpec(
                alias="src",
                address=AddressSpec("bench-push",
                                    {"fields": ",".join(wrapper_fields)}),
                query=source_query,
                storage_size=window,
            ),),
            query=f"select {', '.join(fields)} from src",
        ),),
        storage=StorageConfig(permanent=permanent,
                              history_size=str(history)),
    ))


def descriptors(name: str) -> List[str]:
    """The workload's sensors as descriptor XML text, in deploy order."""
    spec = WORKLOADS[name]
    if spec["ingress"] == "gateway":
        return [_push_descriptor(spec["sensor"], spec["fields"],
                                 str(spec["window"]), spec["source_query"],
                                 spec["history"], spec["permanent"])]
    if name == "device_fleet":
        interval_ms = round(1000 / spec["hz"])
        return [
            descriptor_to_xml(payload_descriptor(
                f"cam{index:02d}", index + 1, interval_ms,
                spec["payload_bytes"], window=spec["window"],
                phase_ms=index * interval_ms // spec["sensors"]))
            for index in range(spec["sensors"])
        ]
    return [_push_descriptor(spec["sensor"], _FANOUT_FIELDS, "1",
                             "select * from wrapper", spec["history"],
                             False)]


def standing_query(name: str) -> str:
    """The one standing query of a gateway workload."""
    spec = WORKLOADS[name]
    return (f"select {', '.join(spec['fields'])} from vs_{spec['sensor']} "
            f"order by seq desc limit 1")


def read_query(name: str) -> str:
    """The concurrent ad-hoc read of ``gateway_delta``."""
    return ("select count(*) as n, max(seq) as seq "
            f"from vs_{WORKLOADS[name]['sensor']}")
