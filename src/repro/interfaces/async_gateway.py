"""Asyncio batched-ingestion gateway.

The thread-per-request :class:`~repro.interfaces.http_server.GSNHttpServer`
serves the *query* side; this module is the *ingest* side built for
fan-in: a single event loop accepts tuples over HTTP from many
producers, batches them per source, and hands each batch across a
bounded queue to a drain thread that delivers it to the threaded
:class:`~repro.vsensor.virtual_sensor.VirtualSensor` runtime via
:meth:`ingest_batch` — one window-update + query evaluation amortized
over the whole batch.

A batch leaves the loop on the first of: it reached ``max_batch``; the
drain thread is idle (nothing queued, nothing being delivered) — so a
lightly loaded gateway adds no waiting, and a busy one batches exactly
as much as the drain's pace allows; its ``max_latency_ms`` timer fired
(the bound on a partial batch's wait while the drain is busy).

Routes
------
==============================================  =======================
``POST /ingest/<sensor>/<stream>/<source>``     body = JSON object or
                                                list of objects; each
                                                becomes one tuple (a
                                                ``timed`` key, when
                                                present, is the element
                                                timestamp). Replies 202
                                                with ``{"accepted": n}``
                                                once enqueued.
``GET  /status``                                loop-side counters
==============================================  =======================

Threading & ownership discipline (this file is the proving ground for
``gsn-lint --async``, GSN901–GSN905):

- the **loop thread** (``gsn-ingest-loop``) runs the asyncio server.
  Batch state and hot-path counters are ``# owned-by: loop`` — written
  only from loop context, read (benignly, under the GIL) by status and
  metrics. Nothing on the loop blocks: hand-off uses ``put_nowait`` and
  sheds on overflow, lock-free;
- the **drain thread** (``gsn-ingest-drain``) pulls batches with a
  bounded ``get(timeout=...)``, resolves the sensor at delivery time,
  and owns everything slow: sensor delivery, flight-recorder shed/error
  events, crash reporting. It marks each batch ``task_done()`` and,
  when none is left, pokes the loop (``call_soon_threadsafe``) — the
  hand-off queue's own ``unfinished_tasks`` is the idle signal, so no
  new shared state crosses the two threads;
- cross-thread control state (threads, stopping, health) is guarded by
  ``_state_lock`` in the ordinary ``# guarded-by:`` discipline.

Shed policy: when the hand-off queue is full the freshly flushed batch
is dropped *at the loop* (back-pressure never reaches producers as
latency) and counted; the drain thread surfaces accumulated sheds as
``ingest_shed`` flight events off the hot path. All counters are
exported as ``gsn_ingest_*`` metric families.

When the loop-lag witness (:mod:`repro.analysis.loopwitness`) is
enabled, the gateway arms a heartbeat task on its loop so any
accidental blocking shows up as a recorded stall.
"""

from __future__ import annotations

import asyncio
import json
import logging
import queue
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.analysis import loopwitness
from repro.concurrency import new_lock
from repro.container import GSNContainer
from repro.exceptions import GSNError
from repro.metrics.registry import (
    FamilySnapshot, counter_family, gauge_family,
)

logger = logging.getLogger("repro.interfaces.async_gateway")

#: (sensor name, stream name, source alias) — one batcher per key.
BatchKey = Tuple[str, str, str]

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 503: "Service Unavailable"}


class AsyncIngestGateway:
    """Batched HTTP ingestion front end for one container.

    ``max_batch`` caps tuples per batch (a full batch flushes
    immediately); ``max_latency_ms`` bounds how long a partial batch may
    wait for a busy drain thread (an idle one takes it at once);
    ``handoff_capacity`` bounds the loop→drain queue in *batches*
    (beyond it, new batches are shed).
    """

    def __init__(self, container: GSNContainer, host: str = "127.0.0.1",
                 port: int = 0, max_batch: int = 128,
                 max_latency_ms: float = 5.0,
                 handoff_capacity: int = 256) -> None:
        self.container = container
        self.max_batch = max(1, int(max_batch))
        self.max_latency_ms = float(max_latency_ms)
        self._host = host
        self._port = port
        self._handoff: "queue.Queue[Tuple[BatchKey, List[Dict[str, Any]]]]" \
            = queue.Queue(maxsize=max(1, int(handoff_capacity)))
        self._ready = threading.Event()

        # Hot-path state, written only from the event loop.
        self._loop: Optional[asyncio.AbstractEventLoop] = None  # owned-by: loop
        self._shutdown: Optional[asyncio.Event] = None  # owned-by: loop
        self._bound: Optional[Tuple[str, int]] = None  # owned-by: loop
        self._batchers: Dict[BatchKey, List[Dict[str, Any]]] = {}  # owned-by: loop
        self._timers: Dict[BatchKey, asyncio.TimerHandle] = {}  # owned-by: loop
        self._clients: Dict[asyncio.Task[None], asyncio.StreamWriter] = {}  # owned-by: loop
        self.tuples_accepted = 0  # owned-by: loop
        self.batches_flushed = 0  # owned-by: loop
        self.shed_tuples = 0  # owned-by: loop
        self.shed_batches = 0  # owned-by: loop
        self.request_errors = 0  # owned-by: loop

        # Cross-thread control + drain-side state.
        self._state_lock = new_lock("AsyncIngestGateway._state_lock")
        self._loop_thread: Optional[threading.Thread] = None  # guarded-by: AsyncIngestGateway._state_lock
        self._drain_thread: Optional[threading.Thread] = None  # guarded-by: AsyncIngestGateway._state_lock
        self._stopping = False  # guarded-by: AsyncIngestGateway._state_lock
        self.healthy = True  # guarded-by: AsyncIngestGateway._state_lock
        self.crashes = 0  # guarded-by: AsyncIngestGateway._state_lock
        self.batches_delivered = 0  # guarded-by: AsyncIngestGateway._state_lock
        self.tuples_delivered = 0  # guarded-by: AsyncIngestGateway._state_lock
        self.tuples_shed_unknown = 0  # guarded-by: AsyncIngestGateway._state_lock
        self.drain_errors = 0  # guarded-by: AsyncIngestGateway._state_lock

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        bound = self._bound
        if bound is None:
            return (self._host, self._port)
        return bound

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self, timeout: float = 5.0) -> "AsyncIngestGateway":
        with self._state_lock:
            if self._loop_thread is not None:
                return self
            self._stopping = False
            self._loop_thread = threading.Thread(
                target=self._loop_main, name="gsn-ingest-loop", daemon=True,
            )
            self._drain_thread = threading.Thread(
                target=self._drain_main, name="gsn-ingest-drain",
                daemon=True,
            )
            self._loop_thread.start()
            self._drain_thread.start()
        if not self._ready.wait(timeout=timeout):
            raise GSNError("async ingest gateway failed to start "
                           f"within {timeout:.1f}s")
        self.container.health.register("ingest-gateway", self._health_check)
        self.container.metrics.register_collector(self._collect_metrics)
        self.container.flight.record("ingest_start", "ingest-gateway",
                                     url=self.url)
        return self

    def stop(self) -> None:
        with self._state_lock:
            loop_thread = self._loop_thread
            drain_thread = self._drain_thread
            self._loop_thread = None
            self._drain_thread = None
        if loop_thread is None:
            return
        self.container.health.unregister("ingest-gateway")
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._request_shutdown)
        loop_thread.join(timeout=5.0)
        with self._state_lock:
            self._stopping = True
        if drain_thread is not None:
            drain_thread.join(timeout=5.0)
        self._ready.clear()

    def __enter__(self) -> "AsyncIngestGateway":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- event-loop thread -------------------------------------------------

    def _loop_main(self) -> None:
        """Thread body: run the ingest loop, witnessing any crash."""
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        except BaseException as exc:  # noqa: BLE001 - supervision boundary
            self._report_crash(exc)
        finally:
            loop.close()

    async def _main(self) -> None:
        loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_client, self._host, self._port,
        )
        sockets = server.sockets or ()
        for sock in sockets:
            self._bound = tuple(sock.getsockname()[:2])
            break
        witness = loopwitness.active()
        heartbeat = None
        if witness is not None:
            heartbeat = loop.create_task(
                witness.heartbeat("gsn-ingest-loop"))
        self._ready.set()
        try:
            await self._shutdown.wait()
            for key in sorted(self._batchers):
                self._flush(key)
        finally:
            if heartbeat is not None:
                heartbeat.cancel()
            server.close()
            # An idle keep-alive client parks its handler in a read;
            # left pending, the task would be destroyed with the loop.
            # Closing the transport feeds the read an EOF, so the
            # handler returns by itself — a cancelled handler task
            # trips the stream protocol's done-callback on Python 3.11.
            clients = dict(self._clients)
            for writer in clients.values():
                writer.close()
            await asyncio.gather(*clients, return_exceptions=True)
            await server.wait_closed()

    def _request_shutdown(self) -> None:
        """Runs on the loop (via ``call_soon_threadsafe`` from stop())."""
        shutdown = self._shutdown
        if shutdown is not None:
            shutdown.set()

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._clients[task] = writer
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                status, payload = self._route(method, path, body)
                keep_alive = headers.get("connection", "").lower() != "close"
                await self._respond(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError) as exc:
            logger.debug("ingest client dropped: %s", exc)
        finally:
            self._clients.pop(task, None)
            writer.close()

    async def _read_request(
        self, reader: asyncio.StreamReader,
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"", b"\r\n", b"\n"):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or 0)
        except ValueError:
            logger.debug("ingest request with bad content-length header")
            return None
        body = await reader.readexactly(length) if length > 0 else b""
        return method, path, headers, body

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Dict[str, Any], keep_alive: bool) -> None:
        body = json.dumps(payload).encode("utf-8")
        connection = "keep-alive" if keep_alive else "close"
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {connection}\r\n\r\n")
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # -- loop-side routing and batching (never blocks, never locks) --------

    def _route(self, method: str, path: str,
               body: bytes) -> Tuple[int, Dict[str, Any]]:
        route = path.split("?", 1)[0]
        if method == "GET" and route.rstrip("/") == "/status":
            return 200, self._loop_status()
        if method == "POST" and route.startswith("/ingest/"):
            parts = [part for part in route.split("/") if part]
            if len(parts) != 4:
                return 404, {
                    "error": "NotFound",
                    "message": "expected /ingest/<sensor>/<stream>/<source>",
                }
            _, sensor, stream, alias = parts
            return self._ingest_request((sensor, stream, alias), body)
        return 404, {"error": "NotFound", "message": route}

    def _ingest_request(self, key: BatchKey,
                        body: bytes) -> Tuple[int, Dict[str, Any]]:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            self.request_errors += 1
            return 400, {"error": "BadRequest", "message": "invalid JSON"}
        items = payload if isinstance(payload, list) else [payload]
        if not items or not all(isinstance(item, dict) for item in items):
            self.request_errors += 1
            return 400, {"error": "BadRequest",
                         "message": "body must be a JSON object or a "
                                    "non-empty list of objects"}
        accepted = self._enqueue(key, items)
        return 202, {"accepted": accepted}

    def _enqueue(self, key: BatchKey, items: List[Dict[str, Any]]) -> int:
        """Add ``items`` to their batcher and decide when it flushes:
        now if it is full; as soon as this request is answered if the
        drain has nothing to do; otherwise when the drain goes idle
        (:meth:`_drain_idle`) or after ``max_latency_ms``, whichever
        comes first."""
        batch = self._batchers.setdefault(key, [])
        fresh = not batch
        batch.extend(items)
        self.tuples_accepted += len(items)
        loop = self._loop
        if len(batch) >= self.max_batch:
            self._flush(key)
        elif loop is not None:
            if fresh:
                self._timers[key] = loop.call_later(
                    self.max_latency_ms / 1000.0, self._flush, key)
            if not self._handoff.unfinished_tasks:
                # Deferred one loop turn, so the 202 is written before
                # the drain thread wakes up and competes for the GIL.
                loop.call_soon(self._drain_idle)
        return len(items)

    def _drain_idle(self) -> None:
        """Runs on the loop — after a request found the drain free, or
        poked by the drain thread when it ran out of work: hand over the
        oldest partial batch. One at a time: the others keep filling
        while that one is delivered, and the next poke takes the next.

        ``unfinished_tasks`` counts batches queued *or being delivered*
        (the drain calls ``task_done`` after each delivery), so it is
        the idle signal as it stands: the queue guards it, a stale read
        costs nothing (the poke that follows the change re-runs this).
        """
        if self._batchers and not self._handoff.unfinished_tasks:
            self._flush(next(iter(self._batchers)))

    def _flush(self, key: BatchKey) -> None:
        """Hand one batcher's content to the drain thread in
        ``max_batch``-sized batches, shedding on overflow."""
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        items = self._batchers.pop(key, [])
        for start in range(0, len(items), self.max_batch):
            chunk = items[start:start + self.max_batch]
            try:
                self._handoff.put_nowait((key, chunk))
            except queue.Full:
                self.shed_tuples += len(chunk)
                self.shed_batches += 1
                continue
            self.batches_flushed += 1

    def _loop_status(self) -> Dict[str, Any]:
        """Loop-owned counters only — safe to build on the loop itself."""
        return {
            "status": 200,
            "tuples_accepted": self.tuples_accepted,
            "batches_flushed": self.batches_flushed,
            "shed_tuples": self.shed_tuples,
            "shed_batches": self.shed_batches,
            "request_errors": self.request_errors,
            "pending_batches": len(self._batchers),
            "handoff_depth": self._handoff.qsize(),
            "max_batch": self.max_batch,
            "max_latency_ms": self.max_latency_ms,
        }

    # -- drain thread ------------------------------------------------------

    def _drain_main(self) -> None:
        """Thread body: deliver batches, witnessing any crash."""
        try:
            self._drain_loop()
        except BaseException as exc:  # noqa: BLE001 - supervision boundary
            self._report_crash(exc)

    def _drain_loop(self) -> None:
        surfaced_sheds = 0
        while True:
            try:
                key, items = self._handoff.get(timeout=0.2)
            except queue.Empty:
                surfaced_sheds = self._surface_sheds(surfaced_sheds)
                with self._state_lock:
                    if self._stopping:
                        return
                continue
            self._deliver(key, items)
            self._handoff.task_done()
            if not self._handoff.unfinished_tasks:
                self._poke_loop()
            surfaced_sheds = self._surface_sheds(surfaced_sheds)

    def _poke_loop(self) -> None:
        """Tell the loop the drain is idle, so a partial batch that
        accumulated behind the last delivery goes out now instead of
        waiting for its timer."""
        loop = self._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(self._drain_idle)
        except RuntimeError:
            # stop() joins the loop first: it already flushed everything.
            logger.debug("ingest loop closed before the idle poke")

    def _deliver(self, key: BatchKey, items: List[Dict[str, Any]]) -> None:
        sensor_name, stream_name, alias = key
        try:
            sensor = self.container.sensor(sensor_name)
        except GSNError:
            with self._state_lock:
                self.tuples_shed_unknown += len(items)
            self.container.flight.record(
                "ingest_unknown_sensor", "ingest-gateway",
                sensor=sensor_name, tuples=len(items))
            return
        try:
            admitted = sensor.ingest_batch(stream_name, alias, items)
        except Exception as exc:  # noqa: BLE001 - delivery fault barrier
            logger.error("ingest delivery to %s failed: %s: %s",
                         sensor_name, type(exc).__name__, exc)
            with self._state_lock:
                self.drain_errors += 1
            self.container.flight.record(
                "ingest_drain_error", "ingest-gateway",
                sensor=sensor_name,
                error=f"{type(exc).__name__}: {exc}")
            return
        with self._state_lock:
            self.batches_delivered += 1
            self.tuples_delivered += admitted

    def _surface_sheds(self, surfaced: int) -> int:
        """Turn loop-side shed counts into flight events, off the loop."""
        current = self.shed_tuples
        if current > surfaced:
            self.container.flight.record(
                "ingest_shed", "ingest-gateway",
                tuples=current - surfaced, total=current)
        return current

    def _report_crash(self, exc: BaseException) -> None:
        logger.error("ingest gateway thread crashed: %s: %s",
                     type(exc).__name__, exc)
        from repro.analysis import crashwitness
        witness = crashwitness.active()
        if witness is not None:
            witness.report(threading.current_thread().name, exc,
                           owner="ingest-gateway")
        self.container.flight.record(
            "server_crash", "ingest-gateway",
            error=f"{type(exc).__name__}: {exc}")
        with self._state_lock:
            self.crashes += 1
            self.healthy = False
        self._ready.set()  # unblock a start() waiting on a dead loop

    # -- observability -----------------------------------------------------

    def _health_check(self) -> Dict[str, Any]:
        with self._state_lock:
            healthy = self.healthy
            serving = self._loop_thread is not None
            crashes = self.crashes
        status = "ok" if healthy and serving else "failed"
        return {"status": status, "serving": serving, "crashes": crashes,
                "handoff_depth": self._handoff.qsize()}

    def _collect_metrics(self) -> Iterable[FamilySnapshot]:
        with self._state_lock:
            delivered_batches = self.batches_delivered
            delivered_tuples = self.tuples_delivered
            shed_unknown = self.tuples_shed_unknown
            drain_errors = self.drain_errors
        return [
            counter_family(
                "gsn_ingest_tuples_total",
                "Tuples seen by the async ingest gateway, by stage.",
                [({"stage": "accepted"}, self.tuples_accepted),
                 ({"stage": "delivered"}, delivered_tuples),
                 ({"stage": "shed_handoff"}, self.shed_tuples),
                 ({"stage": "shed_unknown_sensor"}, shed_unknown)],
            ),
            counter_family(
                "gsn_ingest_batches_total",
                "Batches flushed by the loop and delivered by the drain.",
                [({"stage": "flushed"}, self.batches_flushed),
                 ({"stage": "shed"}, self.shed_batches),
                 ({"stage": "delivered"}, delivered_batches)],
            ),
            counter_family(
                "gsn_ingest_errors_total",
                "Bad requests at the loop and delivery faults at the drain.",
                [({"kind": "request"}, self.request_errors),
                 ({"kind": "drain"}, drain_errors)],
            ),
            gauge_family(
                "gsn_ingest_handoff_depth",
                "Batches queued between the loop and the drain thread.",
                [({}, self._handoff.qsize())],
            ),
        ]

    def status(self) -> Dict[str, Any]:
        with self._state_lock:
            drain = {
                "batches_delivered": self.batches_delivered,
                "tuples_delivered": self.tuples_delivered,
                "tuples_shed_unknown": self.tuples_shed_unknown,
                "drain_errors": self.drain_errors,
                "crashes": self.crashes,
                "healthy": self.healthy,
                "serving": self._loop_thread is not None,
            }
        report = self._loop_status()
        report.pop("status", None)
        report.update(drain)
        report["url"] = self.url
        return report
