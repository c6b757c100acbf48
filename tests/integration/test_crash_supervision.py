"""End-to-end supervision: a worker thread that keeps crashing is
witnessed, restarted up to the budget, and then surfaces as a *degraded*
sensor in the container status — never as a silently-dead one."""

import contextlib
import time

from repro import GSNContainer
from repro.analysis import crashwitness
from repro.interfaces.http_server import GSNHttpServer

from tests.conftest import simple_mote_descriptor


@contextlib.contextmanager
def session_expected():
    witness = crashwitness.active()
    if witness is None:
        yield
        return
    with witness.expected():
        yield


def wait_until(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def _corrupt(task):
    raise RuntimeError("worker heap corrupted")


class TestDegradedSensor:
    def test_crashing_worker_degrades_sensor_in_status(self, monkeypatch):
        with GSNContainer("supervised", synchronous=False) as node:
            sensor = node.deploy(simple_mote_descriptor(interval_ms=100))
            pool = sensor.lifecycle.pool
            monkeypatch.setattr(pool, "_run", _corrupt)
            with session_expected():
                # Each arrival kills one worker; the pool restarts
                # MAX_RESTARTS times, then degrades the sensor.
                node.run_for(2_000)
                assert wait_until(lambda: pool.degraded)
            assert sensor.status()["state"] == "degraded"
            assert sensor.lifecycle.is_processing  # degraded, not dead

            doc = node.status()
            sensors = doc["virtual_sensors"]["sensors"]
            assert sensors["probe"]["state"] == "degraded"
            witness_doc = doc["crash_witness"]
            if witness_doc is not None:
                assert witness_doc["by_owner"]["probe"] == \
                    pool.MAX_RESTARTS + 1

    def test_crashes_land_in_metrics_exposition(self, monkeypatch):
        with GSNContainer("metered", synchronous=False) as node:
            sensor = node.deploy(simple_mote_descriptor(interval_ms=100))
            pool = sensor.lifecycle.pool
            monkeypatch.setattr(pool, "_run", _corrupt)
            with session_expected():
                node.run_for(1_000)
                assert wait_until(lambda: pool.workers_crashed >= 1)
                # The queued arrivals go on killing respawned workers
                # until the pool degrades: let those crashes land inside
                # the expected window too.
                assert wait_until(lambda: pool.degraded)
            text = node.metrics_text()
            assert 'gsn_thread_crashes_total{owner="probe"}' in text
            assert 'gsn_fastpath_poisoned_total{sensor="probe"} 0' in text

    def test_healthy_container_reports_no_crashes(self):
        witness = crashwitness.active()
        before = witness.counts_by_owner().get("probe", 0) if witness else 0
        with GSNContainer("calm") as node:
            node.deploy(simple_mote_descriptor())
            node.run_for(1_000)
            doc = node.status()
            sensors = doc["virtual_sensors"]["sensors"]
            assert sensors["probe"]["state"] == "running"
            if doc["crash_witness"] is not None:
                # The witness is process-global: assert this container
                # added nothing, not that the count is zero.
                assert doc["crash_witness"]["by_owner"].get(
                    "probe", 0) == before


class TestHttpServerSupervision:
    def test_serve_loop_restarts_then_goes_unhealthy(self, monkeypatch):
        with GSNContainer("web") as node:
            server = GSNHttpServer(node)
            calls = []

            def exploding_serve():
                calls.append(1)
                raise RuntimeError("listener exploded")

            monkeypatch.setattr(server._server, "serve_forever",
                                exploding_serve)
            with session_expected():
                server.start()
                assert wait_until(
                    lambda: not server.status()["healthy"])
            status = server.status()
            assert status["crashes"] == server.MAX_RESTARTS + 1
            assert status["restarts"] == server.MAX_RESTARTS
            assert len(calls) == server.MAX_RESTARTS + 1
            witness = crashwitness.active()
            if witness is not None:
                assert witness.counts_by_owner().get(
                    "http-server", 0) >= 1
            server._server.server_close()

    def test_normal_lifecycle_stays_healthy(self):
        with GSNContainer("web2") as node:
            with GSNHttpServer(node) as server:
                status = server.status()
                assert status["healthy"] and status["serving"]
                assert status["crashes"] == 0
            assert not server.status()["serving"]
