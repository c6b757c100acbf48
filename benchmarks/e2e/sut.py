"""The system under test: one wall-clock ``GSNContainer`` in a child process.

Started by ``run.py`` as ``python -m benchmarks.e2e.sut``. The container
runs at product defaults (``simulated=False``, nothing else overridden);
this process adds only what a deployment adds around a container: its
descriptors, a subscriber, the two HTTP front ends — and, on the
wrapper workloads, the one pacer that stands in for the devices.

Protocol: one JSON object per line. The child prints ``ready`` once
set-up is complete, then answers each command read from stdin with one
line on stdout. Bulk results go to files under ``--out``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from benchmarks.e2e import layers, oracle, workloads
from repro.container import GSNContainer
from repro.descriptors.xml_io import descriptor_from_xml
from repro.interfaces.async_gateway import AsyncIngestGateway
from repro.interfaces.http_server import GSNHttpServer
from repro.notifications.channels import CallbackChannel
from repro.simulation.workload import QueryWorkloadGenerator
from repro.wrappers.registry import default_registry

_CHANNEL = "bench"
_COMMANDS = ("mark", "trace", "pace", "wait_seq", "finish")
_PREFILL_CHUNK = 128

class Sut:
    def __init__(self, workload: str, seed: int, trace: bool,
                 out_dir: str) -> None:
        self.workload = workload
        self.spec = workloads.WORKLOADS[workload]
        self.values = workloads.Values(seed)
        self.seed = seed
        self.out_dir = out_dir
        self.tracer: Optional[layers.Tracer] = \
            layers.Tracer() if trace else None
        self.gateway: Optional[AsyncIngestGateway] = None
        self.http: Optional[GSNHttpServer] = None
        # What the subscriber saw, in arrival order.
        self.results: List[tuple] = []
        self.last_seq = -1
        # wait_seq sleeps on this instead of polling: a polling main
        # thread would take the GIL from the pipeline it waits for.
        self.wanted_seq = -1
        self.reached = threading.Event()
        self.prefill = 0
        self.next_call = 0
        self.paced: Dict[str, List[tuple]] = {}
        self.deploy_ms: List[float] = []
        self.strict_deploy_ms = 0.0
        self.subscriptions: List[Any] = []

    # -- set-up ------------------------------------------------------------

    def setup(self) -> Dict[str, Any]:
        tracer = self.tracer
        if tracer is not None:
            layers.install(tracer)
            tracer.enabled = True  # deployment spans
        registry = default_registry()
        if workloads.BenchWrapper.wrapper_name not in registry:
            registry.register(workloads.BenchWrapper)
        self.container = container = GSNContainer("bench", simulated=False)
        documents = workloads.descriptors(self.workload)
        for xml in documents:
            started = time.perf_counter()
            container.deploy(xml)
            self.deploy_ms.append((time.perf_counter() - started) * 1e3)
        self.sensors = [container.sensor(name)
                        for name in container.sensor_names()]
        if tracer is not None:
            self._strict_probe(documents[0])
            tracer.enabled = False
        getattr(self, "_setup_" + self.spec["ingress"])()
        return {
            "event": "ready",
            "ingest_url": self.gateway.url if self.gateway else None,
            "http_url": self.http.url if self.http else None,
            "prefill": self.prefill,
            "deploy_ms": self.deploy_ms,
            "strict_deploy_ms": self.strict_deploy_ms,
        }

    def _strict_probe(self, xml: str) -> None:
        """One extra deploy through the gsn-lint gate, then undeploy."""
        probe = dataclasses.replace(descriptor_from_xml(xml),
                                    name="strict-probe")
        started = time.perf_counter()
        self.container.deploy(probe, strict=True)
        self.strict_deploy_ms = (time.perf_counter() - started) * 1e3
        self.container.undeploy("strict-probe")

    def _setup_gateway(self) -> None:
        sensor = self.sensors[0]
        # Fill the window before anyone listens, so the first measured
        # trigger already runs over a full window.
        self.prefill = self.spec["window"]
        for start in range(0, self.prefill, _PREFILL_CHUNK):
            count = min(_PREFILL_CHUNK, self.prefill - start)
            sensor.ingest_batch("in", "src",
                                self.values.gateway_batch(start, count))
        self.container.notifications.add_channel(
            CallbackChannel(_CHANNEL, self._on_gateway_result))
        self.subscriptions.append(self.container.register_query(
            workloads.standing_query(self.workload), channel=_CHANNEL,
            client="bench"))
        self.gateway = AsyncIngestGateway(self.container).start()
        if self.spec["reads_per_s"]:
            self.http = GSNHttpServer(self.container).start()

    def _on_gateway_result(self, payload: Dict[str, Any]) -> None:
        now = time.monotonic_ns()
        rows = payload["rows"]
        row = rows[0] if rows else {}
        seq = row.get("seq")
        self.results.append((now, seq, row.get("v"), row.get("k")))
        if isinstance(seq, int):
            self.last_seq = seq
            if seq >= self.wanted_seq:
                self.reached.set()

    def _setup_wrapper(self) -> None:
        if self.workload == "device_fleet":
            cameras = [sensor.wrappers["src"] for sensor in self.sensors]
            for index, sensor in enumerate(self.sensors):
                sensor.add_listener(self._fleet_listener(index))
            self._call: Callable[[int], Any] = \
                lambda i: cameras[i % len(cameras)].tick()
        else:
            source = self.sensors[0].wrappers["src"]
            # Fill the output history before the clients register, so
            # every measured evaluation scans the full 500 rows.
            self.prefill = self.spec["history"]
            for seq in range(self.prefill):
                source.emit(self.values.fanout_tuple(seq))
            self.container.notifications.add_channel(
                CallbackChannel(_CHANNEL, self._on_fanout_result))
            generator = QueryWorkloadGenerator(
                self.container.output_table(self.spec["sensor"]),
                self.container.now, seed=self.seed)
            for client in range(self.spec["clients"]):
                self.subscriptions.append(self.container.register_query(
                    generator.next_query(), channel=_CHANNEL,
                    client=f"client-{client}", name=str(client)))
            self._call = lambda i: source.emit(
                self.values.fanout_tuple(self.prefill + i))
        if self.tracer is not None:
            self._call = self.tracer.wrap("harness.call", self._call,
                                          seq_of=lambda i: i)

    def _fleet_listener(self, index: int):
        def on_output(element: Any) -> None:
            values = element.values
            self.results.append((index, time.monotonic_ns(),
                                 values["camera_id"], element.timed,
                                 len(values["image"])))
        return on_output

    def _on_fanout_result(self, payload: Dict[str, Any]) -> None:
        self.results.append((int(payload["subscription"]),
                             time.monotonic_ns(), payload["row_count"]))

    # -- commands ----------------------------------------------------------

    def mark(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """CPU used so far, peak RSS and the host-wide clock."""
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return {"t_ns": time.monotonic_ns(),
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "maxrss_kb": usage.ru_maxrss}

    def trace(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Switch span recording; answers with a mark plus the counters,
        so the parent can difference them over the traced interval."""
        if self.tracer is not None:
            self.tracer.enabled = bool(message["on"])
        reply = self.mark(message)
        reply["counters"] = self._counters()
        return reply

    def pace(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Drive the wrappers: ``calls`` calls, ``rate`` per second on a
        fixed schedule, or back-to-back when ``rate`` is null."""
        call = self._call
        clock = time.monotonic_ns
        rate = message.get("rate")
        interval = 1e9 / rate if rate else 0.0
        origin = clock() + 1_000_000
        records: List[tuple] = []
        first = self.next_call
        for index in range(first, first + message["calls"]):
            if rate:
                due = origin + int((index - first) * interval)
                delay = due - clock()
                if delay > 0:
                    time.sleep(delay / 1e9)
                started = clock()
            else:
                due = started = clock()
            call(index)
            records.append((index, due, started, clock()))
        self.next_call = first + len(records)
        self.paced[message["phase"]] = records
        return {"calls": len(records)}

    def wait_seq(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Block until the subscriber saw ``seq`` (or the timeout)."""
        # Publish the target before clearing: a result that lands in
        # between is then seen by the check below.
        self.wanted_seq = message["seq"]
        self.reached.clear()
        if self.last_seq < self.wanted_seq:
            self.reached.wait(message["timeout"])
        return {"reached": self.last_seq >= message["seq"],
                "t_ns": time.monotonic_ns()}

    def finish(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Stop the front ends, run the teardown checks, write the
        report (and the trace) and shut the container down. The parent
        closes its connections first: ``AsyncIngestGateway.stop()`` with
        a live keep-alive client logs "Task was destroyed but it is
        pending"."""
        final = self.mark(message)
        gateway_status = None
        if self.gateway is not None:
            self.gateway.stop()
            gateway_status = self.gateway.status()
        if self.http is not None:
            self.http.stop()
        errors: List[str] = []
        for sensor in self.sensors:
            for error in sensor.lifecycle.pool.errors():
                errors.append(f"{sensor.name}: pipeline error {error!r}")
        if self.workload == "client_fanout":
            errors.extend(oracle.check_fanout_final(
                self.subscriptions, self.container.storage.catalog()))
        report = {
            "workload": self.workload,
            "results": self.results,
            "paced": self.paced,
            "final": final,
            "gateway": gateway_status,
            "errors": errors[:20],
            "error_count": len(errors),
        }
        if self.tracer is not None:
            spans, counts = self.tracer.collect()
            report["trace_counts"] = counts
            with open(os.path.join(
                    self.out_dir, f"trace-{self.workload}.json"), "w") as out:
                json.dump({"span": ["name", "start_ns", "end_ns", "parent",
                                    "seq"], "spans": spans}, out)
        path = os.path.join(self.out_dir, f"report-{os.getpid()}.json")
        with open(path, "w") as out:
            json.dump(report, out)
        self.container.shutdown()
        return {"report": path}

    def _counters(self) -> Dict[str, Any]:
        """Counts read from public ``status()`` documents and
        ``fast_paths.snapshot()``, summed over the sensors."""
        container = self.container
        fast: Dict[str, int] = {}
        admitted = triggers = outputs = 0
        for sensor in self.sensors:
            for name, value in sensor.fast_paths.snapshot().items():
                fast[name] = fast.get(name, 0) + value
            for stream in sensor.ism.status().values():
                triggers += stream["triggers"]
                admitted += sum(source["admitted"]
                                for source in stream["sources"])
            outputs += sensor.elements_produced
        processor = container.processor.status()
        notifications = container.notifications.status()
        return {
            "fast_paths": fast,
            "admitted": admitted,
            "triggers": triggers,
            "outputs": outputs,
            "evaluations": container.repository.evaluations,
            "processor": processor["counters"],
            "dispatched": notifications["counters"]["dispatched"],
            "failures": notifications["counters"]["failures"],
            "gateway": (self.gateway.status()
                        if self.gateway is not None else None),
        }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    # stdout carries the protocol; nothing else may write to it.
    channel = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr

    def send(message: Dict[str, Any]) -> None:
        channel.write(json.dumps(message) + "\n")
        channel.flush()

    sut = Sut(args.workload, args.seed, bool(args.trace), args.out)
    send(sut.setup())
    for line in sys.stdin:
        message = json.loads(line)
        command = message["cmd"]
        if command == "quit":
            # A set-up-only child: nothing was measured, nothing to flush.
            return 0
        if command not in _COMMANDS:
            raise ValueError(f"unknown command {command!r}")
        send(getattr(sut, command)(message))
        if command == "finish":
            return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
