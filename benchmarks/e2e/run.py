#!/usr/bin/env python3
"""End-to-end container benchmark: one command, every metric.

Driver form (one workload, one trace mode; the contract of
``BENCHMARK.json``)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints the metrics by name and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.

Suite form (no ``--workload``)::

    PYTHONPATH=src python -m benchmarks.e2e.run [--seed N] [--seconds S]
        [--repeat K] [--check]

runs all four workloads untraced and traced, prints every metric and the
per-workload layer budget, and writes the numbers to
``benchmarks/e2e/out/``. ``--repeat K --check`` runs K sets and exits
non-zero when two sets disagree by more than a metric's own bound.

See README.md in this directory for the glossary and the caveats.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple
from urllib.parse import quote, urlparse

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

try:
    from benchmarks.e2e import layers, oracle, stats, workloads
except ImportError as exc:  # a bare copy of the benchmark, no program
    raise SystemExit(f"benchmarks/e2e needs the repository's src/ tree "
                     f"beside it: {exc}")

OUT_DIR = os.path.join(_HERE, "out")
SPEC_PATH = os.path.join(_ROOT, "BENCHMARK.json")

#: How long the parent waits for any one answer from the child.
_CHILD_TIMEOUT_S = 90.0

_BUDGET_LAYERS = ("wrappers", "input_manager", "streams", "sqlengine",
                  "virtual_sensor", "storage", "repository", "processor",
                  "notifications")


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


# -- the child process --------------------------------------------------------

class Child:
    """One ``sut.py`` process and the line protocol to it."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [_ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        # Same dict and set layouts in every child: one less thing that
        # differs between two runs of one commit.
        env["PYTHONHASHSEED"] = "0"
        self.started_ns = time.monotonic_ns()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.sut",
             "--workload", workload, "--seed", str(seed),
             "--trace", str(int(trace)), "--out", OUT_DIR],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=_ROOT,
            env=env, text=True, bufsize=1)
        self.ready = self._read()
        self.setup_s = (time.monotonic_ns() - self.started_ns) / 1e9

    def _read(self) -> Dict[str, Any]:
        stream = self.process.stdout
        assert stream is not None
        readable, __, ___ = select.select([stream], [], [], _CHILD_TIMEOUT_S)
        line = stream.readline() if readable else ""
        if not line:
            self.kill()
            raise RuntimeError(
                "the system under test stopped answering "
                f"(exit code {self.process.returncode})")
        return json.loads(line)

    def ask(self, cmd: str, **fields: Any) -> Dict[str, Any]:
        assert self.process.stdin is not None
        self.process.stdin.write(json.dumps({"cmd": cmd, **fields}) + "\n")
        self.process.stdin.flush()
        return self._read()

    def close(self) -> None:
        """Let the child exit (it does after ``finish``; ``quit`` ends a
        set-up-only child) and wait until it has."""
        if self.process.poll() is None:
            try:
                assert self.process.stdin is not None
                self.process.stdin.write('{"cmd": "quit"}\n')
                self.process.stdin.close()
            except (BrokenPipeError, ValueError):
                pass
        try:
            self.process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.kill()
        if self.process.stdout is not None:
            self.process.stdout.close()

    def kill(self) -> None:
        self.process.kill()
        self.process.wait()


# -- generators (gateway workloads) -------------------------------------------

def _sleep_until(due_ns: int) -> None:
    delay = due_ns - time.monotonic_ns()
    if delay > 0:
        time.sleep(delay / 1e9)


class GatewayDriver:
    """The ingest generator: one keep-alive connection to the gateway."""

    def __init__(self, url: str, name: str, values: workloads.Values,
                 first_seq: int) -> None:
        parsed = urlparse(url)
        self.connection = http.client.HTTPConnection(
            parsed.hostname, parsed.port, timeout=10)
        sensor = workloads.WORKLOADS[name]["sensor"]
        self.path = f"/ingest/{sensor}/in/src"
        self.values = values
        self.next_seq = first_seq
        #: (phase, last_seq, tuples, due_ns, sent_ns, done_ns, status)
        self.requests: List[tuple] = []
        self.depth_max = 0

    def post(self, phase: str, count: int, due_ns: int) -> None:
        body = json.dumps(
            self.values.gateway_batch(self.next_seq, count)).encode()
        self.next_seq += count
        sent = time.monotonic_ns()
        self.connection.request("POST", self.path, body=body,
                                headers={"Content-Type": "application/json"})
        response = self.connection.getresponse()
        response.read()
        self.requests.append((phase, self.next_seq - 1, count, due_ns, sent,
                              time.monotonic_ns(), response.status))

    def status(self) -> Dict[str, Any]:
        """The gateway's public loop-side status document."""
        self.connection.request("GET", "/status")
        response = self.connection.getresponse()
        document = json.loads(response.read())
        self.depth_max = max(self.depth_max, document["handoff_depth"])
        return document

    def open_loop(self, phase: str, sends: int, rate: float,
                  count: int) -> None:
        """``sends`` requests of ``count`` tuples, ``rate`` per second on
        a fixed schedule; a late request is still charged from the time
        it was due."""
        interval = 1e9 / rate
        poll_every = max(1, round(rate / 10))
        origin = time.monotonic_ns() + 1_000_000
        for step in range(sends):
            due = origin + int(step * interval)
            _sleep_until(due)
            self.post(phase, count, due)
            if step % poll_every == 0:
                self.status()

    def saturate(self, phase: str, sends: int) -> None:
        """``sends`` full-batch requests back-to-back, holding back only
        while the gateway itself reports a deep hand-off queue (no tuple
        is shed, so every result stays checkable)."""
        for sent in range(sends):
            if sent % workloads.SATURATION_POLL_EVERY == 0:
                while self.status()["handoff_depth"] \
                        >= workloads.SATURATION_MAX_DEPTH:
                    time.sleep(0.002)
            self.post(phase, workloads.SATURATION_REQUEST_TUPLES,
                      time.monotonic_ns())

    def close(self) -> None:
        self.connection.close()


class Reader(threading.Thread):
    """The second connection: ad-hoc reads beside the open-loop writes."""

    def __init__(self, url: str, sql: str, rate: float, history: int) -> None:
        super().__init__(name="bench-reader", daemon=True)
        parsed = urlparse(url)
        self.connection = http.client.HTTPConnection(
            parsed.hostname, parsed.port, timeout=10)
        self.path = "/query?sql=" + quote(sql)
        self.interval = int(1e9 / rate)
        self.history = history
        self.active = threading.Event()   # set during open-loop slices
        self.stopping = False
        #: (round_trip_ms, ok)
        self.reads: List[tuple] = []

    def run(self) -> None:
        last_seq = -1
        due = 0
        while True:
            self.active.wait()
            if self.stopping:
                return
            now = time.monotonic_ns()
            if due < now - self.interval:   # first read, or after a pause
                due = now
            _sleep_until(due)
            due += self.interval
            started = time.monotonic_ns()
            ok = False
            try:
                self.connection.request("GET", self.path)
                response = self.connection.getresponse()
                document = json.loads(response.read())
                rows = document.get("rows") or [{}]
                n, seq = rows[0].get("n"), rows[0].get("seq")
                ok = (response.status == 200 and isinstance(n, int)
                      and 1 <= n <= self.history
                      and isinstance(seq, int) and seq >= last_seq)
                if ok:
                    last_seq = seq
            except (OSError, ValueError, http.client.HTTPException):
                self.connection.close()
            self.reads.append(((time.monotonic_ns() - started) / 1e6, ok))

    def stop(self) -> None:
        self.stopping = True
        self.active.set()
        self.join(timeout=15)
        self.connection.close()


# -- one run -------------------------------------------------------------------

def _ms(ns: float) -> float:
    return ns / 1e6


def _lag_ms(due_ns: int, sent_ns: int, free_ns: int) -> float:
    """How late the generator itself ran: from when a send was due and
    the generator free (its previous, synchronous send had returned) to
    when it went out. Waiting for the system is the system's time."""
    return _ms(sent_ns - max(due_ns, free_ns))


class Slice:
    """One open-loop or saturation slice of a run and what it produced."""

    def __init__(self, kind: str, index: int, sends: int,
                 traced: bool) -> None:
        self.kind = kind                  # "open" | "saturation"
        self.name = f"{kind}:{index}"
        self.sends = sends
        self.traced = traced
        self.start: Dict[str, Any] = {}   # the child's mark before ...
        self.end: Dict[str, Any] = {}     # ... and after (drained)
        self.attempted = 0                # tuples
        self.failed = 0
        self.latencies_ms: List[float] = []   # open: answered samples
        self.lags_ms: List[float] = []        # open: see _lag_ms
        self.last_ns = 0                  # saturation: last answer

    @property
    def cpu_s(self) -> float:
        return self.end["cpu_s"] - self.start["cpu_s"]

    @property
    def failed_samples(self) -> int:
        """A failed tuple counts once per sample it would have produced
        (in ``client_fanout`` a tuple owes one sample per client)."""
        answered = self.attempted - self.failed
        if not answered:
            return self.failed
        return round(self.failed * len(self.latencies_ms) / answered)

    def percentile(self, q: float) -> float:
        """Per sample, each failed one being +inf."""
        return stats.percentile(self.latencies_ms, q, self.failed_samples)

    def tuples_per_s(self) -> float:
        """Answered tuples over the time to the last answer, so the
        drain of the queue the slice built up is part of the slice."""
        if self.failed == self.attempted:
            return 0.0
        return (self.attempted - self.failed) * 1e9 / (
            self.last_ns - self.start["t_ns"])


class Measurement:
    """What one run of one workload produced, before it is turned into
    the metric dictionaries."""

    def __init__(self, name: str, seconds: float, trace: bool) -> None:
        sends = workloads.slice_sends(name, seconds)
        self.warmup_sends = sends["warmup"]
        # With tracing, every other open-loop slice records spans: one
        # process yields both sides of the tracing-overhead comparison.
        self.slices = [
            Slice(kind, index, sends[kind],
                  trace and kind == "open" and index % 2 == 1)
            for index in range(workloads.CYCLES)
            for kind in ("open", "saturation")]
        self.errors: List[str] = []
        self.extras: Dict[str, float] = {}   # per-layer, generator side
        self.traced_requests: List[tuple] = []

    def of(self, kind: str) -> List[Slice]:
        return [piece for piece in self.slices if piece.kind == kind]

    def run(self, child: Child, trace: bool, drive: Callable[[Slice], None],
            between: Callable[[], None]) -> None:
        """Each slice between two marks of the child; ``drive`` offers
        the slice's load and waits for its last result. ``between`` runs
        after each cycle, while the child is idle."""
        for piece in self.slices:
            piece.start = child.ask("trace", on=piece.traced) \
                if trace else child.ask("mark")
            drive(piece)
            piece.end = child.ask("trace", on=False) \
                if trace else child.ask("mark")
            if piece.kind == "saturation":
                between()


def run_once(name: str, seed: int, seconds: float, trace: bool,
             setups: int = workloads.SETUPS_PER_RUN) -> Dict[str, Any]:
    """Set up ``setups`` times, measure once, check everything."""
    os.makedirs(OUT_DIR, exist_ok=True)
    spec = workloads.WORKLOADS[name]
    child = Child(name, seed, trace)
    setup_times = [child.setup_s]

    def set_up_again() -> None:
        # The other set-ups, one after each cycle while the measured
        # child is idle: like the slices, they span the run.
        if len(setup_times) < setups:
            probe = Child(name, seed, trace)
            setup_times.append(probe.setup_s)
            probe.close()

    measurement = Measurement(name, seconds, trace)
    try:
        values = workloads.Values(seed)
        measure = _measure_gateway if spec["ingress"] == "gateway" \
            else _measure_wrapper
        report = measure(child, name, values, measurement, trace,
                         set_up_again)
    except BaseException:
        child.kill()
        raise
    finally:
        child.close()
    measurement.errors.extend(report["errors"])
    if report["error_count"] > len(report["errors"]):
        measurement.errors.append(
            f"... {report['error_count']} teardown errors in all")
    return _result(name, seed, seconds, trace, measurement, report,
                   statistics.median(setup_times), child.ready)


def _load_report(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        report = json.load(handle)
    os.remove(path)
    return report


def _scan_target(values: workloads.Values) -> Callable[[int], int]:
    def target(last: int) -> int:
        while values.gateway_tuple(last)["v"] <= oracle.SCAN_THRESHOLD:
            last -= 1
        return last
    return target


def _measure_gateway(child: Child, name: str, values: workloads.Values,
                     measurement: Measurement, trace: bool,
                     between: Callable[[], None]) -> Dict[str, Any]:
    spec = workloads.WORKLOADS[name]
    ready = child.ready
    target = _scan_target(values) if name == "gateway_scan" \
        else (lambda last: last)
    driver = GatewayDriver(ready["ingest_url"], name, values,
                           ready["prefill"])
    reader = None
    if spec["reads_per_s"]:
        reader = Reader(ready["http_url"], workloads.read_query(name),
                        spec["reads_per_s"], spec["history"])
    rate, count = spec["requests_per_s"], spec["request_tuples"]

    def drain(phase: str) -> None:
        answer = child.ask("wait_seq", seq=target(driver.next_seq - 1),
                           timeout=workloads.DRAIN_TIMEOUT_S)
        if not answer["reached"]:
            measurement.errors.append(
                f"{phase}: last result missing after "
                f"{workloads.DRAIN_TIMEOUT_S:.0f} s")

    def drive(piece: Slice) -> None:
        if piece.kind == "saturation":
            driver.saturate(piece.name, piece.sends)
        else:
            if reader is not None:
                reader.active.set()
            driver.open_loop(piece.name, piece.sends, rate, count)
            if reader is not None:
                reader.active.clear()
        drain(piece.name)

    try:
        if reader is not None:
            reader.start()
        driver.open_loop("warmup", measurement.warmup_sends, rate, count)
        drain("warmup")
        measurement.run(child, trace, drive, between)
    finally:
        # Close before the gateway stops (see Sut.finish).
        driver.close()
        if reader is not None:
            reader.stop()
    report = _load_report(child.ask("finish")["report"])

    notes = report["results"]
    if name == "gateway_scan":
        verdict = oracle.check_gateway_scan(
            values, notes, [request[1] for request in driver.requests])
    else:
        verdict = oracle.check_gateway_delta(values, notes, spec["window"])
    messages, bad = verdict
    measurement.errors.extend(messages)

    # Cover every request by the first result that reaches its last tuple.
    requests = driver.requests
    covering = oracle.covered_by(
        [note[1] if isinstance(note[1], int) else -1 for note in notes],
        [target(request[1]) for request in requests])
    slices = {piece.name: piece for piece in measurement.slices}
    free = 0
    for request, index in zip(requests, covering):
        phase, __, tuples, due, sent, done, status = request
        lag, free = _lag_ms(due, sent, free), done
        piece = slices.get(phase)
        if piece is None:   # warm-up
            continue
        piece.attempted += tuples
        if status != 202 or index < 0 or index in bad:
            piece.failed += tuples
        elif piece.kind == "open":
            piece.latencies_ms.extend([_ms(notes[index][0] - due)] * tuples)
        else:
            piece.last_ns = max(piece.last_ns, notes[index][0])
        if piece.kind == "open":
            piece.lags_ms.append(lag)

    gateway = report["gateway"]
    extras = measurement.extras
    extras["async_gateway.post_rtt_p50_ms"] = stats.percentile(
        [_ms(r[5] - r[4]) for r in requests if r[0].startswith("open")], 50)
    extras["async_gateway.handoff_depth_max"] = driver.depth_max
    extras["async_gateway.shed_tuples"] = gateway["shed_tuples"]
    extras["async_gateway.saturation_shed_share"] = _ratio(
        gateway["shed_tuples"],
        sum(piece.attempted for piece in measurement.of("saturation")))
    if gateway["shed_tuples"] or gateway["drain_errors"]:
        measurement.errors.append(
            f"gateway shed {gateway['shed_tuples']} tuples, "
            f"{gateway['drain_errors']} drain errors")
    if reader is not None:
        good = [read[0] for read in reader.reads if read[1]]
        bad_reads = len(reader.reads) - len(good)
        extras["http_server.reads_ok"] = len(good)
        extras["http_server.reads_failed"] = bad_reads
        extras["http_server.read_p50_ms"] = \
            stats.percentile(good, 50) if good else 0.0
        if bad_reads:
            measurement.errors.append(f"{bad_reads} ad-hoc reads failed")
    traced = {piece.name for piece in measurement.slices if piece.traced}
    measurement.traced_requests = [r for r in requests if r[0] in traced]
    return report


def _measure_wrapper(child: Child, name: str, values: workloads.Values,
                     measurement: Measurement, trace: bool,
                     between: Callable[[], None]) -> Dict[str, Any]:
    spec = workloads.WORKLOADS[name]
    rate = workloads.sends_per_s(name)
    child.ask("pace", phase="warmup", rate=rate,
              calls=measurement.warmup_sends)
    measurement.run(child, trace, lambda piece: child.ask(
        "pace", phase=piece.name, calls=piece.sends,
        rate=rate if piece.kind == "open" else None), between)
    report = _load_report(child.ask("finish")["report"])

    results = report["results"]
    calls = sum(len(records) for records in report["paced"].values())
    # answers[call] -> (t_ns, result index) of each sample the call owes:
    # the k-th result of a sensor (or client) answers its k-th arrival.
    answers: Dict[int, List[Tuple[int, int]]] = {}
    if name == "device_fleet":
        sensors, per_call = spec["sensors"], 1
        ticks = [len(range(sensor, calls, sensors))
                 for sensor in range(sensors)]
        messages, bad = oracle.check_device_fleet(
            results, ticks, spec["payload_bytes"])
        seen = [0] * sensors
        for index, result in enumerate(results):
            sensor = result[0]
            answers[seen[sensor] * sensors + sensor] = [(result[1], index)]
            seen[sensor] += 1
    else:
        per_call = spec["clients"]
        messages, bad = oracle.check_fanout_counts(results, per_call, calls)
        seen = [0] * per_call
        for index, result in enumerate(results):
            answers.setdefault(seen[result[0]], []).append(
                (result[1], index))
            seen[result[0]] += 1
    measurement.errors.extend(messages)

    for piece in measurement.slices:
        free = 0
        for call, due, started, ended in report["paced"][piece.name]:
            # Result times of the call's samples; failed when any is
            # missing or failed its check.
            found = answers.get(call, [])
            piece.attempted += 1
            if piece.kind == "open":
                piece.lags_ms.append(_lag_ms(due, started, free))
            free = ended
            if len(found) != per_call or any(i in bad for __, i in found):
                piece.failed += 1
            elif piece.kind == "open":
                piece.latencies_ms.extend(
                    _ms(t_ns - due) for t_ns, __ in found)
            else:
                piece.last_ns = max(piece.last_ns,
                                    max(t_ns for t_ns, __ in found))
    return report


# -- metrics -------------------------------------------------------------------

def _cpu_ms_per_ktuple(pieces: Sequence[Slice]) -> float:
    """Median over slices of SUT CPU per 1 000 tuples offered."""
    return statistics.median(
        piece.cpu_s * 1e6 / piece.attempted for piece in pieces)


def _result(name: str, seed: int, seconds: float, trace: bool,
            measurement: Measurement, report: Dict[str, Any],
            setup_s: float, ready: Dict[str, Any]) -> Dict[str, Any]:
    opened, saturated = measurement.of("open"), measurement.of("saturation")
    attempted = sum(piece.attempted for piece in measurement.slices)
    failed = sum(piece.failed for piece in measurement.slices)
    # The open-loop slices together, for the diagnostics.
    pooled = Slice("open", -1, 0, False)
    for piece in opened:
        pooled.attempted += piece.attempted
        pooled.failed += piece.failed
        pooled.latencies_ms.extend(piece.latencies_ms)
        pooled.lags_ms.extend(piece.lags_ms)
    samples, lags = pooled.latencies_ms, pooled.lags_ms
    top = stats.highest_supported(len(samples) + pooled.failed_samples)
    late = sum(lag > workloads.DISTURBED_LAG_MS for lag in lags)
    result: Dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "correct": not measurement.errors and failed == 0,
        "attempted": attempted, "failed": failed,
        "errors": measurement.errors,
        # p99 over the limit; on a run of under 200 sends (where p99
        # is the maximum) one late send alone does not disturb a run.
        "disturbed": late > max(1, len(lags) // 100),
        "top_percentile": top, "top_percentile_ms": pooled.percentile(top),
        "samples": len(samples),
    }
    # Every timing is a median over the slices: a slow spell of the
    # machine moves the slices it covers, not the metric.
    end_to_end = {
        "setup_s": setup_s,
        "notify_p50_ms": statistics.median(
            piece.percentile(50) for piece in opened),
        "notify_p90_ms": statistics.median(
            piece.percentile(90) for piece in opened),
        "capacity_tuples_per_s": statistics.median(
            piece.tuples_per_s() for piece in saturated),
        "cpu_ms_per_ktuple": _cpu_ms_per_ktuple(opened),
        "peak_rss_mb": report["final"]["maxrss_kb"] / 1024.0,
    }
    harness = {
        # Over a slice's scheduled length (the last send's interval is
        # not waited out, so mark to mark is a little shorter).
        "harness.cpu_share_pct": 100.0 * workloads.sends_per_s(name)
        * statistics.median(piece.cpu_s / piece.sends for piece in opened),
        "harness.generator_lag_p99_ms": stats.percentile(lags, 99),
        "harness.notify_p99_ms": pooled.percentile(99),
        "harness.notify_max_ms": pooled.percentile(100),
        "harness.samples": len(samples),
        "harness.failed_share": pooled.failed / pooled.attempted,
        "harness.disturbed": int(result["disturbed"]),
    }
    result["end_to_end"] = end_to_end
    result["diagnostics"] = harness
    if not trace:
        result["metrics"] = end_to_end
        return result
    per_layer, budget = _layer_metrics(name, measurement, report, ready)
    per_layer.update(harness)
    per_layer.update(measurement.extras)
    result["metrics"] = per_layer
    result["budget"] = budget
    return result


def _delta(after: Dict[str, Any], before: Dict[str, Any],
           into: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Counter documents differenced, recursively, and added to ``into``."""
    out: Dict[str, Any] = {} if into is None else into
    for key, value in after.items():
        if isinstance(value, dict):
            out[key] = _delta(value, before.get(key) or {}, out.get(key))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = out.get(key, 0) + value - (before.get(key) or 0)
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _layer_metrics(name: str, measurement: Measurement,
                   report: Dict[str, Any], ready: Dict[str, Any]
                   ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    with open(os.path.join(OUT_DIR, f"trace-{name}.json")) as handle:
        spans = json.load(handle)["spans"]
    traced = [piece for piece in measurement.slices if piece.traced]
    plain = [piece for piece in measurement.of("open") if not piece.traced]
    # Spans are recorded in the traced slices only (and at deployment,
    # before the first of them).
    first_ns = traced[0].start["t_ns"]
    budget = layers.budget(spans, first_ns)
    names, total_ns, triggers = \
        budget["names"], budget["total_ns"], budget["trees"]
    counters: Dict[str, Any] = {}
    for piece in traced:
        _delta(piece.end["counters"], piece.start["counters"], counters)
    tuples = counters["admitted"]

    def span(key: str, field: str) -> float:
        return names.get(key, {}).get(field, 0)

    def each_ms(key: str, field: str, per: float) -> float:
        return _ratio(_ms(span(key, field)), per)

    # Every call in the traced slices, inside a trigger tree or not
    # (the ad-hoc reader calls catalog() from its own thread).
    catalog = [s for s in spans if s[layers.NAME] == "storage.catalog"
               and s[layers.START] >= first_ns]
    trigger_ms = sorted(
        _ms(s[layers.END] - s[layers.START]) for s in spans
        if s[layers.NAME] == "virtual_sensor.trigger"
        and s[layers.START] >= first_ns)
    fast = counters["fast_paths"]
    evaluations = fast["cache_hits"] + fast["cache_misses"]
    planned = fast["compiled_queries"] + fast["interpreted_queries"]
    processor = counters["processor"]
    executed = processor["queries_executed"]
    outputs = counters["outputs"]
    deploys = [s for s in spans if s[layers.NAME] == "vsensor_manager.deploy"]
    parses = [s for s in spans if s[layers.NAME] == "descriptors.parse"]
    fleet = len(ready["deploy_ms"])

    metrics = {
        "async_gateway.post_rtt_p50_ms": 0.0,
        "async_gateway.handoff_wait_p50_ms": 0.0,
        "async_gateway.mean_batch_tuples": 0.0,
        "async_gateway.handoff_depth_max": 0.0,
        "async_gateway.shed_tuples": 0.0,
        "async_gateway.saturation_shed_share": 0.0,
        "wrappers.emit_self_ms_per_ktuple": _ratio(
            _ms(span("wrappers.emit", "self_ns")
                + span("wrappers.tick", "self_ns")), tuples / 1e3),
        "input_manager.receive_ms_per_ktuple":
            each_ms("input_manager.receive", "total_ns", tuples / 1e3),
        "input_manager.admitted": tuples,
        "input_manager.triggers": counters["triggers"],
        "input_manager.tuples_per_trigger":
            _ratio(tuples, counters["triggers"]),
        "streams.snapshot_ms_per_trigger":
            each_ms("streams.snapshot", "total_ns", triggers),
        "sqlengine.source_query_ms_per_trigger":
            each_ms("sqlengine.source_query", "total_ns", triggers),
        "sqlengine.output_query_ms_per_trigger":
            each_ms("sqlengine.output_query", "total_ns", triggers),
        "sqlengine.path.delta_share": _ratio(
            fast["identity_hits"] + fast["aggregate_hits"], evaluations),
        "sqlengine.path.cache_share":
            _ratio(fast["cache_hits"], evaluations),
        "sqlengine.path.compiled_share":
            _ratio(fast["compiled_queries"], planned),
        "sqlengine.path.interpreted_share":
            _ratio(fast["interpreted_queries"], planned),
        "virtual_sensor.trigger_ms_p50":
            stats.percentile(trigger_ms, 50) if trigger_ms else 0.0,
        "virtual_sensor.self_ms_per_trigger":
            each_ms("virtual_sensor.trigger", "self_ns", triggers),
        "virtual_sensor.outputs": outputs,
        "storage.append_ms_per_output":
            each_ms("storage.append", "total_ns",
                    span("storage.append", "calls")),
        "storage.appends": span("storage.append", "calls"),
        "storage.catalog_ms_per_call": _ratio(
            _ms(sum(s[layers.END] - s[layers.START] for s in catalog)),
            len(catalog)),
        "storage.catalog_calls": len(catalog),
        "storage.catalog_rows_per_call": _ratio(
            report["trace_counts"].get("storage.catalog_rows", 0),
            len(catalog)),
        "repository.data_arrived_ms_per_output":
            each_ms("repository.data_arrived", "total_ns", outputs),
        "repository.evaluations": counters["evaluations"],
        "processor.execute_ms_per_eval":
            each_ms("processor.execute", "total_ns",
                    span("processor.execute", "calls")),
        "processor.plan_cache_hit_ratio": _ratio(
            processor["plan_cache_hits"],
            processor["plan_cache_hits"] + processor["plan_cache_misses"]),
        "processor.compiled_share":
            _ratio(processor["compiled_executions"], executed),
        "notifications.deliver_ms_per_eval":
            each_ms("notifications.deliver", "total_ns",
                    span("notifications.deliver", "calls")),
        "notifications.dispatched": counters["dispatched"],
        "notifications.failures": counters["failures"],
        "http_server.read_p50_ms": 0.0,
        "http_server.reads_ok": 0.0,
        "http_server.reads_failed": 0.0,
        "descriptors.parse_ms_per_sensor": _ratio(
            _ms(sum(s[layers.END] - s[layers.START] for s in parses)),
            len(parses)),
        "vsensor_manager.deploy_ms_per_sensor": _ratio(
            _ms(sum(s[layers.END] - s[layers.START]
                    for s in deploys[:fleet])), fleet),
        "container.deploy_ms_per_sensor":
            statistics.fmean(ready["deploy_ms"]),
        "analysis.strict_deploy_ms": ready["strict_deploy_ms"],
    }
    for layer in _BUDGET_LAYERS:
        metrics[f"budget.{layer}_pct"] = 100.0 * _ratio(
            budget["layers"].get(layer, 0), total_ns)
    metrics["harness.budget_residual_pct"] = 100.0 * _ratio(
        budget["layers"].get("harness", 0), total_ns)

    # Tracing overhead: SUT CPU per tuple of the same offered load,
    # traced slices vs the untraced slices between them.
    base = _cpu_ms_per_ktuple(plain)
    metrics["harness.trace_overhead_pct"] = 100.0 * _ratio(
        _cpu_ms_per_ktuple(traced) - base, base)

    gateway = counters.get("gateway")
    if gateway:
        metrics["async_gateway.mean_batch_tuples"] = _ratio(
            gateway["tuples_delivered"], gateway["batches_delivered"])
        roots = [s for s in spans
                 if s[layers.NAME] == "virtual_sensor.trigger"
                 and s[layers.PARENT] < 0
                 and isinstance(s[layers.SEQ], int)]
        requests = measurement.traced_requests
        entered = oracle.covered_by([s[layers.SEQ] for s in roots],
                                    [request[1] for request in requests])
        waits = [_ms(roots[index][layers.START] - request[5])
                 for request, index in zip(requests, entered) if index >= 0]
        if waits:
            metrics["async_gateway.handoff_wait_p50_ms"] = \
                stats.percentile(waits, 50)
    shares = sorted(((metrics[f"budget.{layer}_pct"], layer)
                     for layer in _BUDGET_LAYERS), reverse=True)
    return metrics, {
        "trigger_wall_ms": _ms(total_ns), "triggers": triggers,
        "shares_pct": {layer: share for share, layer in shares},
        "top_layers": [layer for __, layer in shares[:2]],
        "names": names,
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            setups: int = workloads.SETUPS_PER_RUN,
            log: Callable[[str], None] = print) -> Dict[str, Any]:
    """``run_once`` behind the disturbed-run guard: a run whose
    generator ran late (p99 above the limit) is labelled and repeated
    at most once; both are kept in ``result["runs"]``."""
    result = run_once(name, seed, seconds, trace, setups)
    runs = [result]
    if result["disturbed"]:
        log(f"# {name}: generator lag p99 "
            f"{result['diagnostics']['harness.generator_lag_p99_ms']:.1f} ms "
            f"> {workloads.DISTURBED_LAG_MS:.0f} ms - run is disturbed, "
            f"repeating once")
        result = run_once(name, seed, seconds, trace, setups)
        runs.append(result)
    result["runs"] = [
        {"disturbed": run["disturbed"], "metrics": run["metrics"]}
        for run in runs]
    return result


# -- output --------------------------------------------------------------------

def provenance() -> Dict[str, Any]:
    commit = "unknown"
    if os.path.isdir(os.path.join(_ROOT, ".git")) and shutil.which("git"):
        found = subprocess.run(["git", "-C", _ROOT, "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        if found.returncode == 0:
            commit = found.stdout.strip()
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        # Permanent streams go to the container's default storage_path:
        # the benchmark may write only inside its checkout, whose disk is
        # a shared virtual one (see README "Caveats").
        "storage_medium": "sqlite :memory: (GSNContainer default)",
    }


def _units(spec: Dict[str, Any]) -> Dict[str, str]:
    return {metric["name"]: metric["unit"]
            for metric in spec["end_to_end"] + spec["per_layer"]}


def print_result(result: Dict[str, Any], units: Dict[str, str],
                 log: Callable[[str], None] = print) -> None:
    mode = "traced" if result["trace"] else "untraced"
    log(f"## {result['workload']} ({mode}, seed {result['seed']}, "
        f"{result['seconds']:g} s): attempted {result['attempted']}, "
        f"failed {result['failed']}, "
        f"{'correct' if result['correct'] else 'INCORRECT'}"
        f"{', disturbed' if result['disturbed'] else ''}")
    for name, value in result["metrics"].items():
        log(f"{name:48s} {value:14.4f} {units.get(name, '')}")
    if not result["trace"]:
        for name, value in result["diagnostics"].items():
            log(f"{name:48s} {value:14.4f} {units.get(name, '')}")
    log(f"{'highest supported percentile':48s} "
        f"p{result['top_percentile']:g} = {result['top_percentile_ms']:.4f} "
        f"ms over {result['samples']} samples")
    for error in result["errors"]:
        log(f"MISMATCH {error}")
    budget = result.get("budget")
    if budget:
        log(f"layer budget: {budget['triggers']} triggers, "
            f"{budget['trigger_wall_ms']:.1f} ms of trigger wall time")
        for layer, share in budget["shares_pct"].items():
            log(f"  {layer:16s} {share:6.2f} %")
        log(f"  {'(residual)':16s} "
            f"{result['metrics']['harness.budget_residual_pct']:6.2f} %")
        expected = workloads.EXPECTED_TOP[result["workload"]]
        log(f"  top layers measured: {', '.join(budget['top_layers'])}; "
            f"expected: {', '.join(expected)}")


def contract_line(result: Dict[str, Any], units: Dict[str, str]) -> str:
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    })


def declared_names(spec: Dict[str, Any], trace: bool) -> List[str]:
    return [metric["name"]
            for metric in spec["per_layer" if trace else "end_to_end"]]


def run_suite(seed: int, seconds: float, repeat: int,
              check: bool) -> int:
    spec = load_spec()
    units = _units(spec)
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    document: Dict[str, Any] = {"provenance": provenance(), "seed": seed,
                                "seconds": seconds, "sets": []}
    print("# " + json.dumps(document["provenance"]))
    ok = True
    for index in range(repeat):
        one: Dict[str, Any] = {}
        for name in names:
            for trace in (False, True):
                result = measure(name, seed + index, seconds, trace)
                print_result(result, units)
                ok = ok and result["correct"]
                one.setdefault(name, {})[
                    "per_layer" if trace else "end_to_end"] = result["metrics"]
                one[name].setdefault("runs", []).extend(result["runs"])
                if trace:
                    one[name]["budget"] = result["budget"]
        document["sets"].append(one)
    if repeat > 1:
        print(f"# {repeat} sets: median [q1, q3] per end-to-end metric")
        for name in names:
            summary = stats.summarize(
                [one[name]["end_to_end"] for one in document["sets"]])
            for metric, row in summary.items():
                values = [one[name]["end_to_end"][metric]
                          for one in document["sets"]]
                better = bounds[metric]["better"]
                apart = max(stats.worse_by(a, b, better)
                            for a in values for b in values)
                within = apart <= bounds[metric]["bound"]
                print(f"{name:14s} {metric:24s} {row['median']:12.4f} "
                      f"[{row['q1']:.4f}, {row['q3']:.4f}] {units[metric]:6s}"
                      f" sets apart {100 * apart:5.1f} % "
                      f"(bound {100 * bounds[metric]['bound']:.0f} %)"
                      f"{'' if within else '  DISAGREE'}")
                if check and not within:
                    ok = False
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "results.json")
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
    print(f"# wrote {os.path.relpath(path, _ROOT)}")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="run one workload in driver form")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver form: 1 prints the per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite form: number of sets")
    parser.add_argument("--check", action="store_true",
                        help="suite form: fail when sets disagree by more "
                             "than a metric's bound")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_suite(args.seed, args.seconds, args.repeat, args.check)

    units = _units(spec)
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print_result(result, units)
    declared = declared_names(spec, bool(args.trace))
    if sorted(declared) != sorted(result["metrics"]):
        raise SystemExit("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(declared) ^ set(result['metrics']))}")
    print(contract_line(result, units))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
