"""Integration tests for the asyncio batched-ingestion gateway."""

import gc
import http.client
import json
import logging
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


class TestHandOff:
    """When a batch leaves the loop: full, drain idle, or timer."""

    #: Far longer than any wait below: a flush that happens was not the
    #: timer's doing.
    LATENCY_MS = 30_000.0

    @pytest.fixture
    def blocked(self, deployed, monkeypatch):
        """A gateway whose sensor parks every delivery on an event."""
        release = threading.Event()
        delivered = []

        def ingest_batch(stream, alias, items):
            delivered.append([item["temperature"] for item in items])
            release.wait(10)
            return len(items)

        monkeypatch.setattr(deployed.sensor("probe"), "ingest_batch",
                            ingest_batch)
        with AsyncIngestGateway(deployed, max_batch=4,
                                max_latency_ms=self.LATENCY_MS) as gateway:
            try:
                yield gateway, release, delivered
            finally:
                release.set()

    @staticmethod
    def pending_flush_timers(gateway):
        """Live ``_flush`` timers on the gateway's loop (read on the
        loop itself, where the schedule is safe to walk)."""
        done = threading.Event()
        found = []

        def collect():
            found.extend(
                handle for handle in gateway._loop._scheduled
                if not handle.cancelled()
                and getattr(handle._callback, "__name__", "") == "_flush")
            done.set()

        gateway._loop.call_soon_threadsafe(collect)
        assert done.wait(5)
        return found

    def send(self, gateway, *values):
        status, __ = post(gateway.url + "/ingest/probe/in/src",
                          [{"temperature": value} for value in values])
        assert status == 202

    def test_idle_drain_takes_a_partial_batch_at_once(self, blocked):
        gateway, release, delivered = blocked
        self.send(gateway, 1)
        wait_until(lambda: delivered == [[1]], timeout=2.0,
                   message="the idle hand-off")
        assert self.pending_flush_timers(gateway) == []

    def test_busy_drain_accumulates_until_it_pokes(self, blocked):
        gateway, release, delivered = blocked
        self.send(gateway, 1)
        wait_until(lambda: delivered == [[1]], message="first delivery")
        # The drain is parked inside the sensor: these two wait, in one
        # batch, behind one timer.
        self.send(gateway, 2)
        self.send(gateway, 3)
        report = gateway.status()
        assert report["pending_batches"] == 1
        assert report["handoff_depth"] == 0
        assert delivered == [[1]]
        assert len(self.pending_flush_timers(gateway)) == 1
        release.set()
        # ... and leave together the moment the drain frees up.
        wait_until(lambda: delivered == [[1], [2, 3]], timeout=2.0,
                   message="the poke flush")
        wait_until(lambda: gateway.status()["batches_delivered"] == 2,
                   message="second delivery")
        assert self.pending_flush_timers(gateway) == []
        assert gateway.status()["pending_batches"] == 0

    def test_full_flush_cancels_the_timer(self, blocked):
        gateway, release, delivered = blocked
        self.send(gateway, 1)
        wait_until(lambda: delivered == [[1]], message="first delivery")
        self.send(gateway, 2, 3)            # partial: arms the timer
        assert len(self.pending_flush_timers(gateway)) == 1
        self.send(gateway, 4, 5)            # full: queued behind the drain
        assert gateway.status()["handoff_depth"] == 1
        # A stale timer would fire into the next partial batch early.
        assert self.pending_flush_timers(gateway) == []
        self.send(gateway, 6)
        assert len(self.pending_flush_timers(gateway)) == 1
        release.set()
        wait_until(lambda: delivered == [[1], [2, 3, 4, 5], [6]],
                   timeout=2.0, message="queued then poked batches")

    def test_timer_still_bounds_the_wait_under_a_busy_drain(
            self, deployed, monkeypatch):
        release = threading.Event()
        monkeypatch.setattr(deployed.sensor("probe"), "ingest_batch",
                            lambda *args: release.wait(10) and 0)
        with AsyncIngestGateway(deployed, max_batch=4,
                                max_latency_ms=20.0) as gateway:
            self.send(gateway, 1)
            wait_until(lambda: gateway.status()["batches_flushed"] == 1,
                       message="idle hand-off")
            try:
                self.send(gateway, 2)
                # Drain still parked; only the timer can move this batch.
                wait_until(lambda: gateway.status()["handoff_depth"] == 1,
                           timeout=2.0, message="the timer flush")
                assert gateway.status()["pending_batches"] == 0
            finally:
                release.set()


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

    def test_stop_with_a_connected_client_logs_nothing(self, deployed,
                                                       caplog):
        # The handler must leave through EOF: a *cancelled* handler
        # task makes Python 3.11's stream protocol log "Exception in
        # callback ... CancelledError" from its done-callback.
        gateway = AsyncIngestGateway(deployed).start()
        loop_thread = next(thread for thread in threading.enumerate()
                           if thread.name == "gsn-ingest-loop")
        host, port = gateway.address
        client = http.client.HTTPConnection(host, port, timeout=5)
        try:
            client.request("GET", "/status")
            assert client.getresponse().read()
            with caplog.at_level("DEBUG", logger="asyncio"):
                started = time.monotonic()
                gateway.stop()
                gc.collect()
            assert not loop_thread.is_alive()
            assert time.monotonic() - started < 5.0  # inside stop()'s join
        finally:
            client.close()
        assert [(record.levelname, record.getMessage())
                for record in caplog.records
                if record.name == "asyncio"
                and record.levelno >= logging.WARNING] == []

    def test_status_reports_serving_flag(self, deployed):
        gateway = AsyncIngestGateway(deployed)
        with gateway:
            assert gateway.status()["serving"] is True
            assert gateway.status()["healthy"] is True
        assert gateway.status()["serving"] is False
