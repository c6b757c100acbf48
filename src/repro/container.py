"""The GSN container.

"GSN follows a container-based architecture and each container can host
and manage one or more virtual sensors concurrently. The container manages
every aspect of the virtual sensors at runtime including remote access,
interaction with the sensor network, security, persistence, data
filtering, concurrency, and access to and pooling of resources."
(paper, Section 4)

:class:`GSNContainer` wires together the subsystems of Figure 2: the
virtual sensor manager (with its life-cycle and input-stream managers),
the storage layer, the query manager (processor + repository +
notification manager), the access-control and integrity layers, and —
when the container joins a :class:`~repro.network.peer.PeerNetwork` — the
peer node used for discovery and GSN-to-GSN streaming.
"""

from __future__ import annotations

import logging
from typing import List, Optional, Union

from repro.access.control import AccessController, Permission
from repro.access.integrity import IntegrityService
from repro.descriptors.model import VirtualSensorDescriptor
from repro.descriptors.xml_io import descriptor_from_file, descriptor_from_xml
from repro.exceptions import ConfigurationError
from repro.gsntime.clock import Clock, SystemClock, VirtualClock
from repro.gsntime.scheduler import EventScheduler
from repro.logging_setup import configure_logging
from repro.metrics.flight import FlightRecorder, thread_stacks
from repro.metrics.health import (
    HealthModel, LatencySLO, SLOTracker, ThroughputSLO,
)
from repro.metrics.profile import DEFAULT_PROFILE_HZ, SamplingProfiler
from repro.metrics.registry import (
    DEFAULT_LATENCY_BUCKETS_MS, FamilySnapshot, HistogramSnapshot,
    MetricsRegistry, counter_family, gauge_family,
)
from repro.metrics.tracing import TraceBuffer
from repro.network.peer import PeerNetwork, PeerNode
from repro.notifications.manager import NotificationManager
from repro.query.processor import QueryProcessor
from repro.query.repository import QueryRepository
from repro.query.subscription import Subscription
from repro.sqlengine.relation import Relation
from repro.status import UptimeTracker
from repro.storage.manager import StorageManager, safe_table_name
from repro.streams.element import StreamElement
from repro.vsensor.manager import OUTPUT_TABLE_PREFIX, VirtualSensorManager
from repro.vsensor.virtual_sensor import VirtualSensor
from repro.wrappers.registry import WrapperRegistry, default_registry

DescriptorLike = Union[VirtualSensorDescriptor, str]

logger = logging.getLogger("repro.container")


class GSNContainer:
    """One GSN node.

    Parameters
    ----------
    name:
        The container's identity on the peer network.
    simulated:
        ``True`` (default) runs on a :class:`VirtualClock` driven by an
        :class:`EventScheduler` — deterministic and fast, the mode used
        by tests and benchmarks. ``False`` uses the wall clock, in which
        case periodic wrappers must be driven manually or by threads.
    storage_path:
        SQLite database location for ``permanent-storage`` sensors.
    network:
        An optional :class:`PeerNetwork` to join (shared directory + bus).
    access_enabled:
        Turns the access-control layer on (off matches the open demo).
    synchronous:
        Run pipelines inline (deterministic) instead of on pool threads.
    trace_capacity:
        Size of the ring buffer of recent pipeline span trees served at
        ``/trace`` (per-sensor sampling comes from the descriptor's
        ``trace-sampling`` attribute).
    flight_capacity:
        Size of the flight recorder's event ring (the journal snapshot
        embedded in every black-box dump; see ``GET /dump``).
    profile_hz:
        Sampling rate of the continuous profiler. ``0`` (the default)
        leaves the background sampler off — ``/profile?seconds=...``
        still works through on-demand bursts.
    slo_trigger_p99_ms:
        Declared p99 objective for end-to-end trigger latency; feeds the
        ``gsn_slo_*`` burn-rate gauges and the healthz body.
    slo_ingest_per_sec:
        Declared elements-per-second throughput objective; ``0`` skips
        the throughput SLO entirely.
    log_level:
        When given (e.g. ``"INFO"`` or ``logging.DEBUG``), sets the
        level of the ``repro`` logger hierarchy and attaches a stderr
        handler if none is configured — the quick-start logging knob.
    """

    def __init__(self, name: str = "gsn", simulated: bool = True,
                 storage_path: str = ":memory:",
                 registry: Optional[WrapperRegistry] = None,
                 network: Optional[PeerNetwork] = None,
                 access_enabled: bool = False,
                 synchronous: bool = True,
                 seal: str = "none",
                 seed: Optional[int] = 0,
                 clock: Optional[Clock] = None,
                 scheduler: Optional[EventScheduler] = None,
                 trace_capacity: int = 256,
                 flight_capacity: int = 512,
                 profile_hz: float = 0.0,
                 slo_trigger_p99_ms: float = 250.0,
                 slo_ingest_per_sec: float = 0.0,
                 log_level: Union[int, str, None] = None) -> None:
        if not name.strip():
            raise ConfigurationError("container needs a name")
        if log_level is not None:
            configure_logging(log_level)
        self.name = name.strip().lower()
        self.simulated = simulated
        self.metrics = MetricsRegistry()
        self.traces = TraceBuffer(trace_capacity)
        self._uptime = UptimeTracker()

        if clock is not None:
            # Externally supplied time source: multi-container simulations
            # share one VirtualClock + EventScheduler across nodes.
            self.clock = clock
            self.scheduler = scheduler
        elif simulated:
            self.clock = VirtualClock()
            self.scheduler = EventScheduler(self.clock)  # type: ignore[arg-type]
        else:
            self.clock = SystemClock()
            self.scheduler = None

        # The flight recorder exists before every other subsystem so each
        # of them can journal into it; its dump builder is installed last,
        # once the components a dump describes are wired up.
        self.flight = FlightRecorder(flight_capacity, clock=self.clock.now)

        self.storage = StorageManager(storage_path)
        self.registry = registry if registry is not None else default_registry()
        self.notifications = NotificationManager()
        self.processor = QueryProcessor(self.storage.catalog)
        self.repository = QueryRepository(self.processor, self.notifications,
                                          self.clock)
        self.access = AccessController(access_enabled)
        self.integrity = IntegrityService(self.name)

        self.peer: Optional[PeerNode] = None
        if network is not None:
            self.peer = PeerNode(network, self.name,
                                 sensor_getter=self._sensor_for_peer,
                                 integrity=self.integrity, seal=seal,
                                 clock=self.clock,
                                 trace_sink=self.traces,
                                 metrics=self.metrics,
                                 events=self.flight)

        self.vsm = VirtualSensorManager(
            self.clock, self.storage, self.registry,
            scheduler=self.scheduler,
            remote_subscribe=self.peer.subscribe if self.peer else None,
            synchronous=synchronous,
            seed=seed,
            node=self.name,
            metrics=self.metrics,
            trace_sink=self.traces,
            events=self.flight,
        )
        self.vsm.on_deploy(self._after_deploy)
        self.vsm.on_undeploy(self._after_undeploy)
        self.metrics.register_collector(self._collect_metrics)

        # Plan-cache evictions are a capacity signal worth journaling.
        self.processor.plan_cache.on_evict = self._plan_evicted

        # Health model + SLOs. The latency SLO reads the same trigger
        # histogram family the tracer feeds (get-or-create matches on
        # kind+labelnames, so both resolve to one family object).
        self.health = HealthModel()
        self.health.register("worker-pools", self._check_worker_pools)
        self.health.register("sensors", self._check_sensors)
        self.health.register("storage", self._check_storage)
        self.health.register("fast-path", self._check_fast_paths)
        self.health.register("notifications", self._check_notifications)
        if self.peer is not None:
            self.health.register("peer-link", self._check_peer_link)
        trigger_family = self.metrics.histogram(
            "gsn_pipeline_trigger_latency_ms",
            "End-to-end latency of one trigger (steps 2-5).",
            labelnames=("sensor",),
            buckets=DEFAULT_LATENCY_BUCKETS_MS,
        )
        slos: List[object] = [
            LatencySLO("trigger-latency-p99", trigger_family,
                       objective_ms=slo_trigger_p99_ms),
        ]
        if slo_ingest_per_sec > 0:
            slos.append(ThroughputSLO(
                "ingest-throughput",
                counter=lambda: sum(s.elements_produced
                                    for s in self.vsm.sensors()),
                clock=self.clock.now,
                objective_per_s=slo_ingest_per_sec,
            ))
        self.slos = SLOTracker(self.metrics, slos)

        # Continuous profiler: off unless asked for; bursts still work.
        self.profiler = SamplingProfiler(hz=profile_hz or DEFAULT_PROFILE_HZ)
        if profile_hz > 0:
            self.profiler.start()

        self.flight.dumper = self._dump_sections
        self._crash_observer = self._on_witnessed_crash
        witness = self._witness()
        if witness is not None:
            witness.add_observer(self._crash_observer)
        self._closed = False
        logger.info("container %s up (simulated=%s)", self.name, simulated)

    # -- deployment hooks ------------------------------------------------------

    def _sensor_for_peer(self, sensor_name: str) -> VirtualSensor:
        return self.vsm.get(sensor_name)

    def _after_deploy(self, sensor: VirtualSensor) -> None:
        table = safe_table_name(OUTPUT_TABLE_PREFIX + sensor.name)
        sensor.add_listener(lambda element: self._on_output(table, element))
        if self.peer is not None:
            self.peer.publish(sensor.name,
                              sensor.descriptor.discovery_predicates,
                              sensor.output_schema)
        self.flight.record("deploy", sensor.name,
                           pool_size=sensor.descriptor.lifecycle.pool_size)

    def _after_undeploy(self, sensor_name: str) -> None:
        if self.peer is not None:
            self.peer.unpublish(sensor_name)
        self.flight.record("undeploy", sensor_name)

    def _on_output(self, table: str, element: StreamElement) -> None:
        self.repository.data_arrived(table)

    def _plan_evicted(self, sql: str) -> None:
        self.flight.record("plan_evicted", "plan-cache",
                           sql=sql[:120],
                           evictions=self.processor.plan_cache.evictions)

    @staticmethod
    def _witness():
        from repro.analysis import crashwitness
        return crashwitness.active()

    def _on_witnessed_crash(self, crash) -> None:
        """Crash-witness observer: journal *escaped* crashes.

        Supervised crashes are journaled by their supervisors (the pool
        records ``worker_crash``, the HTTP server ``server_crash``), so
        only the hook path — a thread nobody supervises — lands here.
        """
        if crash.supervised:
            return
        self.flight.record("thread_crash", crash.owner,
                           thread=crash.thread_name,
                           error=f"{crash.exc_type}: {crash.message}")

    # -- deployment API ----------------------------------------------------------

    def deploy(self, descriptor: DescriptorLike, start: bool = True,
               client: str = "", api_key: str = "",
               strict: bool = False) -> VirtualSensor:
        """Deploy a virtual sensor from a descriptor object, an XML string,
        or a path to an XML file — "without any programming effort just by
        providing a simple XML configuration file".

        ``strict=True`` runs the gsn-lint static analysis (schema, graph,
        resource passes) as a pre-deploy gate and rejects descriptors
        with error findings the basic validator would let through."""
        parsed = self._coerce_descriptor(descriptor)
        self.access.check(Permission.DEPLOY, parsed.name, client, api_key)
        return self.vsm.deploy(parsed, start=start, strict=strict)

    def undeploy(self, name: str, client: str = "", api_key: str = "") -> None:
        self.access.check(Permission.DEPLOY, name, client, api_key)
        self.vsm.undeploy(name)

    def reconfigure(self, descriptor: DescriptorLike,
                    client: str = "", api_key: str = "",
                    strict: bool = False) -> VirtualSensor:
        """Replace a deployed sensor on the fly (the demo's headline act)."""
        parsed = self._coerce_descriptor(descriptor)
        self.access.check(Permission.DEPLOY, parsed.name, client, api_key)
        return self.vsm.reconfigure(parsed, strict=strict)

    @staticmethod
    def _coerce_descriptor(descriptor: DescriptorLike) -> VirtualSensorDescriptor:
        if isinstance(descriptor, VirtualSensorDescriptor):
            return descriptor
        text = descriptor.strip()
        if text.startswith("<"):
            return descriptor_from_xml(text)
        return descriptor_from_file(descriptor)

    def sensor(self, name: str) -> VirtualSensor:
        return self.vsm.get(name)

    def sensor_names(self) -> List[str]:
        return self.vsm.sensor_names()

    # -- querying ----------------------------------------------------------------

    def query(self, sql: str, client: str = "", api_key: str = "") -> Relation:
        """Run an ad-hoc SQL query over the container's streams. Output
        streams are visible as tables named ``vs_<sensor-name>``."""
        self.access.check(Permission.READ, "*", client, api_key)
        return self.processor.execute(sql)

    def register_query(self, sql: str, channel: str = "queue",
                       client: str = "anonymous", name: str = "",
                       history: Optional[str] = None,
                       api_key: str = "") -> Subscription:
        """Register a standing query re-evaluated on new data.

        ``history`` optionally restricts the query to a trailing time
        window of the streams it reads (e.g. ``"10m"``).
        """
        self.access.check(Permission.READ, "*", client, api_key)
        return self.repository.register(sql, channel, client, name,
                                        history=history)

    def unregister_query(self, subscription_id: int) -> None:
        self.repository.unregister(subscription_id)

    def output_table(self, sensor_name: str) -> str:
        """The SQL table name of a sensor's output stream."""
        return safe_table_name(OUTPUT_TABLE_PREFIX + sensor_name.strip().lower())

    # -- simulation control ---------------------------------------------------------

    def run_for(self, duration_ms: int) -> int:
        """Advance the simulation by ``duration_ms``; returns events fired."""
        if self.scheduler is None:
            raise ConfigurationError(
                "run_for() needs a simulated container"
            )
        return self.scheduler.run_for(duration_ms)

    def now(self) -> int:
        return self.clock.now()

    # -- lifecycle ---------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop all sensors, leave the network, release storage."""
        if self._closed:
            return
        self._closed = True
        self.profiler.stop()
        witness = self._witness()
        if witness is not None:
            witness.remove_observer(self._crash_observer)
        # Shutdown keeps permanent streams on disk (that is the promise
        # of permanent-storage); explicit undeploy() still drops them.
        self.vsm.stop_all(keep_storage=True)
        if self.peer is not None:
            self.peer.leave()
        self.storage.close()
        logger.info("container %s shut down", self.name)

    def __enter__(self) -> "GSNContainer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- health checks -----------------------------------------------------------

    def _check_worker_pools(self) -> dict:
        """Degraded when any pool exhausted its restart budget, shed
        load, or is running at >=90% queue occupancy."""
        pools = {}
        worst = "ok"
        for sensor in self.vsm.sensors():
            doc = sensor.lifecycle.pool.status()
            occupancy = (doc["queue_depth"] / doc["queue_capacity"]
                         if doc["queue_capacity"] else 0.0)
            verdict = "ok"
            if doc["degraded"]:
                verdict = "degraded"
            elif doc["tasks_shed"] > 0 or occupancy >= 0.9:
                verdict = "degraded"
            if verdict != "ok":
                worst = "degraded"
            pools[sensor.name] = {"status": verdict,
                                  "queue_depth": doc["queue_depth"],
                                  "queue_capacity": doc["queue_capacity"],
                                  "tasks_shed": doc["tasks_shed"],
                                  "restarts": doc["restarts"],
                                  "degraded": doc["degraded"]}
        return {"status": worst, "pools": pools}

    def _check_sensors(self) -> dict:
        """Worst life-cycle state across the deployed set."""
        states = {}
        worst = "ok"
        for sensor in self.vsm.sensors():
            state = sensor.lifecycle.state.value
            states[sensor.name] = state
            if state == "failed":
                worst = "failed"
            elif state == "degraded" and worst == "ok":
                worst = "degraded"
        return {"status": worst, "states": states}

    def _check_storage(self) -> dict:
        if self._closed:
            return {"status": "failed", "error": "storage closed"}
        return {"status": "ok",
                "streams": len(self.storage.stream_names())}

    def _check_fast_paths(self) -> dict:
        """A poisoned incremental accumulator means a sensor silently
        fell back to the slow path — degraded, not failed."""
        poisoned = {}
        for sensor in self.vsm.sensors():
            count = sensor.fast_paths.snapshot()["poisoned"]
            if count:
                poisoned[sensor.name] = count
        return {"status": "degraded" if poisoned else "ok",
                "poisoned": poisoned}

    def _check_notifications(self) -> dict:
        """Degraded when a bounded channel queue sits at >=90% full
        (polling client has stopped draining)."""
        full = {}
        for channel, (pending, capacity) in sorted(
                self.notifications.queue_depths().items()):
            if capacity != float("inf") and pending >= 0.9 * capacity:
                full[channel] = {"pending": pending, "capacity": capacity}
        return {"status": "degraded" if full else "ok",
                "saturated_channels": full}

    def _check_peer_link(self) -> dict:
        assert self.peer is not None
        bus = self.peer.network.bus
        ratio = bus.dropped / bus.sent if bus.sent else 0.0
        status = "degraded" if ratio > 0.25 else "ok"
        return {"status": status,
                "sent": bus.sent, "dropped": bus.dropped,
                "drop_ratio": round(ratio, 4)}

    def health_report(self) -> dict:
        """The ``GET /healthz`` body: per-component checks, the worst-of
        container verdict, and the (informational) SLO measurements."""
        report = self.health.report()
        report["slos"] = self.slos.report()
        return report

    # -- black-box dumps ---------------------------------------------------------

    def _dump_sections(self) -> dict:
        """Container state sections of a black-box dump. Called by the
        flight recorder with no locks held."""
        metrics = {}
        for family in self.metrics.collect():
            samples = []
            for labels, value in family.samples:
                if isinstance(value, HistogramSnapshot):
                    rendered: object = {"count": value.count,
                                        "sum": round(value.sum, 3),
                                        "mean": round(value.mean, 3)}
                else:
                    rendered = value
                samples.append({"labels": labels, "value": rendered})
            metrics[family.name] = samples
        return {
            "container": {"name": self.name, "state": (
                "stopped" if self._closed else "running")},
            "health": self.health.report(),
            "slos": self.slos.report(),
            "metrics": metrics,
            "traces": self.trace_documents(limit=16),
            "threads": thread_stacks(),
            "profile": self.profiler.hot_stacks(10),
        }

    def blackbox_dump(self, reason: str = "operator-request") -> dict:
        """Force a black-box dump (the ``GET /dump`` path)."""
        return self.flight.dump(reason)

    # -- monitoring ----------------------------------------------------------------

    def _collect_metrics(self) -> List[FamilySnapshot]:
        """Pull-at-scrape-time metrics over the live component counters.

        Registered as a registry collector so the hot paths keep their
        existing cheap counters; the Prometheus families materialize
        only when ``/metrics`` is scraped. Iterates the deployed set at
        call time, so deploy/undeploy need no (un)registration.
        """
        from repro.analysis import crashwitness

        produced = []
        fast_paths = []
        poisoned = []
        attach_decisions = []
        for sensor in self.vsm.sensors():
            produced.append(({"sensor": sensor.name},
                             sensor.elements_produced))
            snapshot = sensor.fast_paths.snapshot()
            poisoned.append(({"sensor": sensor.name}, snapshot["poisoned"]))
            for counter, value in snapshot.items():
                fast_paths.append(
                    ({"sensor": sensor.name, "counter": counter}, value)
                )
            static = sensor.incremental_status()["static"]
            for source, verdict in static["verdicts"].items():
                attach_decisions.append((
                    {"sensor": sensor.name, "source": source,
                     "verdict": ("eligible" if verdict["eligible"]
                                 else "ineligible"),
                     "reason": verdict["reason"] or ""},
                    1,
                ))
        coverage = self.vsm.static_coverage()[2]
        crashes = []
        witness = crashwitness.active()
        if witness is not None:
            crashes = [({"owner": owner}, count)
                       for owner, count
                       in sorted(witness.counts_by_owner().items())]
        families = [
            counter_family("gsn_sensor_elements_produced_total",
                           "Output elements emitted per virtual sensor.",
                           produced),
            counter_family("gsn_fast_path_events_total",
                           "Incremental-pipeline fast-path counters.",
                           fast_paths),
            counter_family("gsn_fastpath_poisoned_total",
                           "Incremental accumulators pinned to the legacy "
                           "path after a delta error.",
                           poisoned),
            gauge_family("gsn_fastpath_static",
                         "Fast-path attach decision per per-source "
                         "query, made at deploy (value is always 1; the "
                         "verdict/reason labels carry the result).",
                         attach_decisions),
            gauge_family("gsn_fastpath_static_coverage_percent",
                         "Share of per-source queries whose fast path "
                         "attached, across deployed sensors.",
                         [({}, coverage)]),
            counter_family("gsn_thread_crashes_total",
                           "Unexpected thread crashes seen by the runtime "
                           "crash witness, by owning component.",
                           crashes),
            counter_family("gsn_queries_executed_total",
                           "Ad-hoc and standing queries executed.",
                           [({}, self.processor.queries_executed)]),
            counter_family("gsn_query_executions_total",
                           "Ad-hoc query executions by engine mode "
                           "(compiled physical pipeline vs tree-walking "
                           "interpreter).",
                           [({"mode": "compiled"},
                             self.processor.compiled_executions),
                            ({"mode": "interpreted"},
                             self.processor.interpreted_executions)]),
            counter_family("gsn_plan_cache_events_total",
                           "Plan-cache lookups and LRU evictions.",
                           [({"event": "hit"}, self.processor.plan_cache.hits),
                            ({"event": "miss"},
                             self.processor.plan_cache.misses),
                            ({"event": "eviction"},
                             self.processor.plan_cache.evictions)]),
            gauge_family("gsn_plan_cache_entries",
                         "Compiled (statement, plan) pairs currently "
                         "cached.",
                         [({}, float(len(self.processor.plan_cache)))]),
            gauge_family("gsn_storage_streams",
                         "Stream tables currently held by the container.",
                         [({}, len(self.storage.stream_names()))]),
            gauge_family("gsn_container_time_ms",
                         "The container's (possibly virtual) clock.",
                         [({}, self.clock.now())]),
        ]
        pool_depths = []
        pool_capacities = []
        pool_shed = []
        for sensor in self.vsm.sensors():
            pool = sensor.lifecycle.pool
            labels = {"pool": sensor.name}
            pool_depths.append((labels, float(pool.queue_depth())))
            pool_capacities.append((labels, float(pool.queue_capacity)))
            pool_shed.append((labels, pool.tasks_shed))
        notif_depths = []
        notif_capacities = []
        for channel, (pending, capacity) in sorted(
                self.notifications.queue_depths().items()):
            labels = {"channel": channel}
            notif_depths.append((labels, float(pending)))
            notif_capacities.append((labels, capacity))
        flight = self.flight.status()
        profiler = self.profiler.status()
        families.extend([
            gauge_family("gsn_worker_queue_depth",
                         "Tasks waiting in each sensor pool's bounded "
                         "queue.",
                         pool_depths),
            gauge_family("gsn_worker_queue_capacity",
                         "Bound of each sensor pool's task queue.",
                         pool_capacities),
            counter_family("gsn_worker_tasks_shed_total",
                           "Tasks dropped because the pool queue was "
                           "full (explicit load shedding).",
                           pool_shed),
            gauge_family("gsn_notification_queue_depth",
                         "Pending notifications per queue channel.",
                         notif_depths),
            gauge_family("gsn_notification_queue_capacity",
                         "Bound of each queue channel (+Inf when "
                         "unbounded).",
                         notif_capacities),
            counter_family("gsn_flight_events_recorded_total",
                           "Events journaled by the flight recorder.",
                           [({}, flight["recorded"])]),
            counter_family("gsn_flight_dumps_total",
                           "Black-box dumps taken.",
                           [({}, flight["dumps_taken"])]),
            gauge_family("gsn_profiler_overhead_percent",
                         "Measured sampling-profiler cost as a share of "
                         "profiled wall time.",
                         [({}, profiler["overhead_percent"])]),
            counter_family("gsn_profiler_samples_total",
                           "Thread-stack samples taken by the profiler.",
                           [({}, profiler["samples"])]),
        ])
        if self.peer is not None:
            bus = self.peer.network.bus
            families.append(counter_family(
                "gsn_bus_messages_total",
                "Messages sent/delivered/dropped on the peer bus.",
                [({"event": "sent"}, bus.sent),
                 ({"event": "delivered"}, bus.delivered),
                 ({"event": "dropped"}, bus.dropped)],
            ))
            families.append(counter_family(
                "gsn_peer_elements_total",
                "Stream elements crossing this node's peer link.",
                [({"direction": "forwarded"}, self.peer.elements_forwarded),
                 ({"direction": "received"}, self.peer.elements_received)],
            ))
        return families

    def metrics_text(self) -> str:
        """The Prometheus text exposition served at ``/metrics``."""
        return self.metrics.expose_text()

    def trace_documents(self, trace_id: Optional[str] = None,
                        limit: Optional[int] = None) -> List[dict]:
        """Recent span trees as JSON-ready dicts (the ``/trace`` feed)."""
        if trace_id is not None:
            spans = self.traces.find(trace_id)
        else:
            spans = self.traces.recent(limit)
        return [span.to_dict() for span in spans]

    def status(self) -> dict:
        """The container-wide status document the web interface serves."""
        from repro.analysis import crashwitness

        witness = crashwitness.active()
        return {
            "name": self.name,
            "state": "stopped" if self._closed else "running",
            "counters": {
                "sensors_deployed": len(self.vsm.sensor_names()),
                "deploy_count": self.vsm.deploy_count,
                "queries_executed": self.processor.queries_executed,
                "traces_buffered": len(self.traces),
            },
            "uptime_ms": self._uptime.uptime_ms(),
            "time": self.clock.now(),
            "simulated": self.simulated,
            "fastpath_static_coverage_percent":
                self.vsm.static_coverage()[2],
            "virtual_sensors": self.vsm.status(),
            "queries": self.processor.status(),
            "subscriptions": self.repository.status(),
            "notifications": self.notifications.status(),
            "access": self.access.status(),
            "integrity": self.integrity.status(),
            "storage": {"streams": self.storage.stream_names()},
            "peer": self.peer.status() if self.peer else None,
            "metrics": self.metrics.status(),
            "traces": self.traces.status(),
            "crash_witness": witness.status() if witness else None,
            "health": self.health_report(),
            "flight": self.flight.status(),
            "profiler": self.profiler.status(),
        }

    def __repr__(self) -> str:
        return (f"<GSNContainer {self.name!r} "
                f"sensors={self.vsm.sensor_names()}>")
