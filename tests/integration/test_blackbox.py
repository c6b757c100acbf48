"""The container's black box, end to end.

Acceptance criteria from the issue:

- forcing a worker past its restart budget produces a black-box dump
  whose journal contains the triggering crash-witness event, the
  transition into DEGRADED, and at least one sampled trace;
- ``GET /healthz`` flips from ok (200) to degraded (503);
- ``gsn-top`` renders the live vitals from a real server.
"""

import contextlib
import json
import time
import urllib.error
import urllib.request

import pytest

from repro import GSNContainer
from repro.analysis import crashwitness
from repro.interfaces.http_server import GSNHttpServer
from repro.interfaces.web import WebInterface
from repro.tools import top as gsn_top

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


def _degrade(node, sensor, monkeypatch):
    """Drive the sensor's pool past its restart budget."""
    pool = sensor.lifecycle.pool
    monkeypatch.setattr(pool, "_run", _corrupt)
    with session_expected():
        node.run_for(2_000)
        # Wait for the *sensor* state, not pool.degraded: the LCM
        # callback (and its black-box dump) runs after the pool flag
        # flips, on the crashed worker's thread.
        assert wait_until(lambda: sensor.status()["state"] == "degraded")
    return pool


class TestBlackBoxDump:
    def test_degradation_dumps_the_full_story(self, monkeypatch):
        with GSNContainer("boxed", synchronous=False) as node:
            sensor = node.deploy(
                simple_mote_descriptor(name="boxed-probe", interval_ms=100))
            # Let the sensor run healthy first so the trace ring has
            # sampled triggers for the dump to carry.
            node.run_for(1_000)
            assert wait_until(lambda: len(node.traces) > 0)
            _degrade(node, sensor, monkeypatch)
            assert wait_until(
                lambda: (node.flight.last_dump() or {}).get("reason")
                == "degraded:boxed-probe")

            dump = node.flight.last_dump()
            assert dump["reason"] == "degraded:boxed-probe"
            kinds = [event["kind"] for event in dump["events"]]
            # The crash that spent the budget is in the journal...
            assert "worker_crash" in kinds
            assert "worker_restart" in kinds
            # ...so is the state flip into DEGRADED...
            assert any(event["kind"] == "transition"
                       and event["detail"]["to_state"] == "degraded"
                       for event in dump["events"])
            assert dump["trigger"]["kind"] == "degraded"
            # ...and at least one sampled trace rode along.
            assert len(dump["traces"]) >= 1
            assert dump["health"]["status"] == "degraded"
            # Earlier dumps (one per supervised crash) were retained too.
            assert node.flight.status()["dumps_taken"] >= 2

    def test_operator_dump_needs_no_crash(self):
        with GSNContainer("calm-box") as node:
            node.deploy(simple_mote_descriptor(interval_ms=500))
            node.run_for(1_000)
            dump = node.blackbox_dump()
            assert dump["reason"] == "operator-request"
            assert dump["trigger"] is None
            assert "deploy" in [event["kind"] for event in dump["events"]]
            assert dump["container"]["name"] == "calm-box"
            assert dump["threads"]  # live thread stacks snapshot


class TestHealthzFlips:
    def test_healthz_flips_ok_to_degraded(self, monkeypatch):
        with GSNContainer("vital", synchronous=False) as node:
            sensor = node.deploy(
                simple_mote_descriptor(name="vital-probe", interval_ms=100))
            web = WebInterface(node)
            before = web.healthz()
            assert before["status"] == 200
            assert before["health"]["status"] == "ok"

            _degrade(node, sensor, monkeypatch)

            after = web.healthz()
            assert after["status"] == 503
            assert after["health"]["status"] == "degraded"
            checks = after["health"]["checks"]
            assert checks["sensors"]["status"] == "degraded"
            assert checks["worker-pools"]["status"] == "degraded"

    def test_healthz_serves_503_over_http(self, monkeypatch):
        with GSNContainer("wired", synchronous=False) as node:
            sensor = node.deploy(
                simple_mote_descriptor(name="wired-probe", interval_ms=100))
            _degrade(node, sensor, monkeypatch)
            with GSNHttpServer(node) as server:
                with pytest.raises(urllib.error.HTTPError) as caught:
                    urllib.request.urlopen(f"{server.url}/healthz")
                assert caught.value.code == 503
                body = json.load(caught.value)
                assert body["health"]["status"] == "degraded"


class TestObservabilityEndpoints:
    def test_healthz_dump_profile_over_http(self):
        with GSNContainer("probe-box", synchronous=False) as node:
            node.deploy(simple_mote_descriptor(interval_ms=100))
            node.run_for(500)
            with GSNHttpServer(node) as server:
                with urllib.request.urlopen(
                        f"{server.url}/healthz") as response:
                    assert response.status == 200
                    doc = json.loads(response.read().decode("utf-8"))
                assert doc["health"]["status"] == "ok"
                # The server registers its own health check while serving.
                assert "http-server" in doc["health"]["checks"]
                assert doc["health"]["slos"]

                with urllib.request.urlopen(
                        f"{server.url}/dump") as response:
                    dump = json.loads(response.read().decode("utf-8"))["dump"]
                assert dump["reason"] == "http-request"
                assert any(event["kind"] == "deploy"
                           for event in dump["events"])

                with urllib.request.urlopen(
                        f"{server.url}/profile?seconds=0.2") as response:
                    content_type = response.headers["Content-Type"]
                    assert content_type.startswith("text/plain")
                    profile = response.read().decode("utf-8")
            # Collapsed-stack shape: "owner;frame;... count" per line,
            # and the burst (taken off the handler thread) saw at least
            # the main thread.
            lines = profile.splitlines()
            assert lines
            for line in lines:
                stack, __, count = line.rpartition(" ")
                assert count.isdigit()
                assert ";" in stack


class TestGsnTop:
    def test_fetch_and_render_against_a_live_container(self):
        with GSNContainer("topped", synchronous=False) as node:
            node.deploy(simple_mote_descriptor(interval_ms=100))
            node.run_for(1_000)
            with GSNHttpServer(node) as server:
                snapshot = gsn_top.fetch_snapshot(server.url)
        screen = gsn_top.render(snapshot)
        assert "gsn-top — topped" in screen
        assert "health: ok" in screen
        assert "trigger-latency-p99" in screen
        assert "probe" in screen

    def test_main_once_prints_one_screen(self, capsys):
        with GSNContainer("oncely", synchronous=False) as node:
            node.deploy(simple_mote_descriptor(interval_ms=200))
            node.run_for(600)
            with GSNHttpServer(node) as server:
                code = gsn_top.main(["--url", server.url, "--once"])
        assert code == 0
        out = capsys.readouterr().out
        assert "gsn-top — oncely" in out
        assert gsn_top.CLEAR not in out  # --once never clears the screen

    def test_unreachable_server_fails_cleanly(self, capsys):
        code = gsn_top.main(["--url", "http://127.0.0.1:9", "--once"])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_render_marks_degraded_components(self):
        snapshot = {
            "healthz": {"health": {
                "status": "degraded",
                "checks": {"worker-pools": {"status": "degraded",
                                            "shed": 3}},
                "slos": [{"slo": "trigger-latency-p99", "met": False,
                          "burn_rate": 5.0, "error_budget_remaining": 0.0,
                          "objective_ms": 250.0}],
            }},
            "monitor": {"name": "sick", "state": "running", "time": 9},
            "profile": "",
        }
        screen = gsn_top.render(snapshot)
        assert "health: degraded" in screen
        assert "[!] worker-pools" in screen
        assert "MISSED" in screen
        assert "hot stacks: no samples yet" in screen
