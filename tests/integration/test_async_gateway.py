"""Integration tests for the asyncio batched-ingestion gateway."""

import gc
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.interfaces.async_gateway import AsyncIngestGateway

from ..conftest import simple_mote_descriptor


def post(url, payload):
    body = json.dumps(payload).encode("utf-8") \
        if not isinstance(payload, bytes) else payload
    request = urllib.request.Request(
        url, data=body, headers={"Connection": "close"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def get(url):
    request = urllib.request.Request(
        url, headers={"Connection": "close"})
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def wait_until(predicate, timeout=5.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    pytest.fail(f"timed out waiting for {message}")


@pytest.fixture
def deployed(container):
    container.deploy(simple_mote_descriptor())
    return container


@pytest.fixture
def gateway(deployed):
    with AsyncIngestGateway(deployed, max_batch=8,
                            max_latency_ms=2.0) as gw:
        yield gw


class TestIngestEndToEnd:
    def test_batch_post_reaches_the_sensor(self, deployed, gateway):
        outputs = []
        deployed.sensor("probe").add_listener(outputs.append)
        tuples = [{"temperature": i} for i in range(20)]
        status, body = post(gateway.url + "/ingest/probe/in/src", tuples)
        assert (status, body) == (202, {"accepted": 20})
        wait_until(lambda: gateway.status()["tuples_delivered"] == 20,
                   message="drain delivery")
        report = gateway.status()
        # 20 tuples at max_batch=8 → chunks of 8/8/4.
        assert report["batches_flushed"] == 3
        assert report["batches_delivered"] == 3
        assert report["tuples_accepted"] == 20
        assert report["shed_tuples"] == 0
        wait_until(lambda: outputs, message="sensor output")
        assert outputs[0].values["temperature"] is not None

    def test_single_object_body(self, deployed, gateway):
        status, body = post(gateway.url + "/ingest/probe/in/src",
                            {"temperature": 7})
        assert (status, body) == (202, {"accepted": 1})
        wait_until(lambda: gateway.status()["tuples_delivered"] == 1,
                   message="drain delivery")

    def test_rows_land_in_permanent_storage(self, deployed, gateway):
        post(gateway.url + "/ingest/probe/in/src",
             [{"temperature": i} for i in range(8)])
        wait_until(lambda: gateway.status()["tuples_delivered"] == 8,
                   message="drain delivery")
        row = deployed.query("select count(*) as n from vs_probe").first()
        assert row["n"] >= 1

    def test_status_route(self, deployed, gateway):
        post(gateway.url + "/ingest/probe/in/src", {"temperature": 1})
        status, body = get(gateway.url + "/status")
        assert status == 200
        assert body["tuples_accepted"] == 1
        assert body["max_batch"] == 8
        assert "handoff_depth" in body


class TestRequestValidation:
    def test_invalid_json_is_400(self, deployed, gateway):
        status, body = post(gateway.url + "/ingest/probe/in/src",
                            b"{not json")
        assert (status, body["error"]) == (400, "BadRequest")
        assert gateway.status()["request_errors"] == 1

    def test_non_object_items_are_400(self, deployed, gateway):
        status, body = post(gateway.url + "/ingest/probe/in/src",
                            [1, 2, 3])
        assert (status, body["error"]) == (400, "BadRequest")

    def test_malformed_ingest_path_is_404(self, deployed, gateway):
        status, body = post(gateway.url + "/ingest/probe", {"t": 1})
        assert (status, body["error"]) == (404, "NotFound")

    def test_unknown_route_is_404(self, deployed, gateway):
        status, __ = get(gateway.url + "/nope")
        assert status == 404


class TestShedPolicy:
    def test_unknown_sensor_sheds_and_records_flight_event(
            self, deployed, gateway):
        status, body = post(gateway.url + "/ingest/ghost/in/src",
                            [{"temperature": 1}, {"temperature": 2}])
        assert (status, body) == (202, {"accepted": 2})
        wait_until(
            lambda: gateway.status()["tuples_shed_unknown"] == 2,
            message="unknown-sensor shed")
        kinds = [event.kind for event in deployed.flight.events()]
        assert "ingest_unknown_sensor" in kinds

    def test_handoff_overflow_sheds_at_the_loop(
            self, deployed, monkeypatch):
        release = threading.Event()
        sensor = deployed.sensor("probe")
        monkeypatch.setattr(
            sensor, "ingest_batch",
            lambda *args: release.wait(5) and 0)
        with AsyncIngestGateway(deployed, max_batch=1,
                                max_latency_ms=1.0,
                                handoff_capacity=1) as gateway:
            # First batch parks in delivery, second fills the hand-off
            # queue, later ones must shed at the loop.
            for index in range(8):
                post(gateway.url + "/ingest/probe/in/src",
                     {"temperature": index})
            wait_until(lambda: gateway.status()["shed_tuples"] > 0,
                       message="hand-off shed")
            release.set()
        assert gateway.status()["shed_batches"] > 0


class TestLifecycleAndObservability:
    def test_health_check_registration(self, deployed):
        gateway = AsyncIngestGateway(deployed)
        assert "ingest-gateway" not in deployed.health.check_names()
        with gateway:
            assert "ingest-gateway" in deployed.health.check_names()
            report = deployed.health.report()
            checks = report["checks"]
            assert checks["ingest-gateway"]["status"] == "ok"
        assert "ingest-gateway" not in deployed.health.check_names()

    def test_metric_families_exposed(self, deployed, gateway):
        post(gateway.url + "/ingest/probe/in/src", {"temperature": 1})
        wait_until(lambda: gateway.status()["tuples_delivered"] == 1,
                   message="drain delivery")
        names = {snap.name for snap in deployed.metrics.collect()}
        assert {"gsn_ingest_tuples_total", "gsn_ingest_batches_total",
                "gsn_ingest_errors_total",
                "gsn_ingest_handoff_depth"} <= names
        tuples = next(snap for snap in deployed.metrics.collect()
                      if snap.name == "gsn_ingest_tuples_total")
        by_stage = {labels["stage"]: value
                    for labels, value in tuples.samples}
        assert by_stage["accepted"] == 1
        assert by_stage["delivered"] == 1

    def test_start_records_flight_event(self, deployed, gateway):
        kinds = [event.kind for event in deployed.flight.events()]
        assert "ingest_start" in kinds

    def test_stop_is_idempotent_and_restartable(self, deployed):
        gateway = AsyncIngestGateway(deployed)
        gateway.start()
        gateway.stop()
        gateway.stop()
        gateway.start()
        try:
            status, __ = get(gateway.url + "/status")
            assert status == 200
        finally:
            gateway.stop()

    def test_stop_with_an_idle_keep_alive_client(self, deployed, caplog):
        gateway = AsyncIngestGateway(deployed).start()
        loop_thread = next(thread for thread in threading.enumerate()
                           if thread.name == "gsn-ingest-loop")
        with socket.create_connection(gateway.address, timeout=5) as client:
            client.sendall(b"GET /status HTTP/1.1\r\nHost: gsn\r\n\r\n")
            assert client.recv(65536).startswith(b"HTTP/1.1 200")
            # The handler now waits for the next request of this client.
            with caplog.at_level("DEBUG", logger="asyncio"):
                gateway.stop()
                gc.collect()
            assert not loop_thread.is_alive()
            assert client.recv(65536) == b""  # closed by the gateway
        assert [record.getMessage() for record in caplog.records
                if "Task was destroyed" in record.getMessage()] == []

    def test_status_reports_serving_flag(self, deployed):
        gateway = AsyncIngestGateway(deployed)
        with gateway:
            assert gateway.status()["serving"] is True
            assert gateway.status()["healthy"] is True
        assert gateway.status()["serving"] is False
