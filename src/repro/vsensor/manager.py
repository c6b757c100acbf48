"""Virtual Sensor Manager (VSM).

"The virtual sensor manager is responsible for providing access to the
virtual sensors, managing the delivery of sensor data, and providing the
necessary administrative infrastructure" (paper, Section 4). The VSM
deploys descriptors (creating wrappers, storage, and the sensor runtime),
undeploys them, and supports on-the-fly reconfiguration — the deployment
story the demo centers on.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.concurrency import new_lock
from repro.descriptors.model import VirtualSensorDescriptor
from repro.descriptors.validation import validate_descriptor
from repro.exceptions import DeploymentError
from repro.gsntime.clock import Clock
from repro.gsntime.scheduler import EventScheduler
from repro.metrics.flight import FlightRecorder
from repro.metrics.registry import MetricsRegistry
from repro.metrics.tracing import TraceBuffer
from repro.status import UptimeTracker, status_doc
from repro.storage.manager import StorageManager
from repro.vsensor.virtual_sensor import VirtualSensor, coverage_percent
from repro.wrappers.base import Wrapper
from repro.wrappers.registry import WrapperRegistry
from repro.wrappers.remote import RemoteWrapper, SubscribeFunc

#: Prefix of the storage tables holding virtual-sensor output streams.
OUTPUT_TABLE_PREFIX = "vs_"

DeployHook = Callable[[VirtualSensor], None]
UndeployHook = Callable[[str], None]


class VirtualSensorManager:
    """Deploys and manages the pool of virtual sensors of one container."""

    def __init__(self, clock: Clock, storage: StorageManager,
                 registry: WrapperRegistry,
                 scheduler: Optional[EventScheduler] = None,
                 remote_subscribe: Optional[SubscribeFunc] = None,
                 synchronous: bool = True,
                 seed: Optional[int] = None,
                 node: str = "",
                 metrics: Optional[MetricsRegistry] = None,
                 trace_sink: Optional[TraceBuffer] = None,
                 events: Optional[FlightRecorder] = None) -> None:
        self.clock = clock
        self.storage = storage
        self.registry = registry
        self.scheduler = scheduler
        self.remote_subscribe = remote_subscribe
        self.synchronous = synchronous
        self.seed = seed
        self.node = node
        self.metrics = metrics
        self.trace_sink = trace_sink
        self.events = events
        # Guards the sensor table: deploys/undeploys arrive from the
        # application thread (or HTTP admin handlers) while the health
        # model and status endpoints walk the table from scheduler
        # callbacks.  Sensor lifecycle calls (start/stop) and hooks run
        # outside the lock — they block and re-enter listener code.
        self._lock = new_lock("VirtualSensorManager._lock")
        self._sensors: Dict[str, VirtualSensor] = {}  # guarded-by: VirtualSensorManager._lock
        self._deploy_hooks: List[DeployHook] = []
        self._undeploy_hooks: List[UndeployHook] = []
        self.deploy_count = 0
        self._uptime = UptimeTracker()

    # -- hooks (the container uses these to publish to the directory) -------

    def on_deploy(self, hook: DeployHook) -> None:
        self._deploy_hooks.append(hook)

    def on_undeploy(self, hook: UndeployHook) -> None:
        self._undeploy_hooks.append(hook)

    # -- deployment ----------------------------------------------------------

    def deploy(self, descriptor: VirtualSensorDescriptor,
               start: bool = True, strict: bool = False) -> VirtualSensor:
        """Deploy a virtual sensor from its descriptor.

        Validates the descriptor, instantiates one wrapper per stream
        source, creates the output stream table, builds the runtime, and
        (by default) starts it. Raises :class:`DeploymentError` on any
        failure, leaving the container state untouched.

        With ``strict=True`` the full gsn-lint analysis (schema, graph,
        and resource passes) runs over the already-deployed set plus the
        candidate first, and any *new* error finding rejects the deploy.
        """
        with self._lock:
            if descriptor.name in self._sensors:
                raise DeploymentError(
                    f"a virtual sensor named {descriptor.name!r} is already "
                    f"deployed; undeploy it first or use reconfigure()"
                )
        validate_descriptor(descriptor, known_wrapper=self._knows_wrapper)
        if strict:
            self._strict_check(descriptor)
        return self._install(descriptor, self._build_wrappers(descriptor),
                             start)

    def _install(self, descriptor: VirtualSensorDescriptor,
                 wrappers: Dict[str, Wrapper],
                 start: bool) -> VirtualSensor:
        """Create the output table and the runtime over built wrappers,
        register the sensor and (optionally) start it."""
        table_name = OUTPUT_TABLE_PREFIX + descriptor.name
        output_table = self.storage.create_stream(
            table_name,
            descriptor.output_structure,
            retention=descriptor.storage.history_size,
            permanent=descriptor.storage.permanent,
        )
        try:
            sensor = VirtualSensor(
                descriptor, self.clock, wrappers,
                output_table=output_table,
                synchronous=self.synchronous,
                seed=self.seed,
                node=self.node,
                registry=self.metrics,
                trace_sink=self.trace_sink,
                events=self.events,
            )
        except Exception:
            self.storage.drop_stream(table_name)
            raise
        with self._lock:
            self._sensors[descriptor.name] = sensor
            self.deploy_count += 1
        if start:
            sensor.start()
        for hook in self._deploy_hooks:
            hook(sensor)
        return sensor

    def _knows_wrapper(self, name: str) -> bool:
        return name in self.registry

    def _strict_check(self, descriptor: VirtualSensorDescriptor) -> None:
        """The ``strict=True`` pre-deploy gate.

        Runs :func:`repro.analysis.analyze` (including the gsn-plan
        query-plan pass, GSN701–GSN705) over the deployed set plus the
        candidate and rejects the candidate on any error finding the
        candidate *introduces* (pre-existing findings in the running set
        never block an unrelated deploy). A deployed sensor of the same
        name is the one being replaced and is left out of the set.
        """
        from repro.analysis import analyze  # deferred: avoid import cycle

        with self._lock:
            existing = [s.descriptor for name, s in self._sensors.items()
                        if name != descriptor.name]
        external = self.remote_subscribe is not None
        baseline = {
            (f.rule_id, f.location, f.message)
            for f in analyze(existing, registry=self.registry,
                             external_producers=external, plan=True)
        }
        report = analyze(existing + [descriptor], registry=self.registry,
                         external_producers=external, plan=True)
        introduced = [
            f for f in report.errors
            if (f.rule_id, f.location, f.message) not in baseline
        ]
        if introduced:
            detail = "; ".join(f.render() for f in introduced)
            raise DeploymentError(
                f"strict deployment rejected {descriptor.name!r}: {detail}"
            )

    def _build_wrappers(self,
                        descriptor: VirtualSensorDescriptor) -> Dict[str, Wrapper]:
        wrappers: Dict[str, Wrapper] = {}
        for stream in descriptor.input_streams:
            for source in stream.sources:
                wrapper = self.registry.create(source.address.wrapper)
                if isinstance(wrapper, RemoteWrapper):
                    if self.remote_subscribe is None:
                        raise DeploymentError(
                            f"{descriptor.name}: source {source.alias!r} "
                            f"uses remote addressing but this VSM has no "
                            f"peer network"
                        )
                    wrapper.bind(self.remote_subscribe)
                wrapper.attach(self.clock, self.scheduler)
                wrapper.configure(source.address.predicates)
                wrappers[source.alias] = wrapper
        return wrappers

    def undeploy(self, name: str, keep_storage: bool = False) -> None:
        """Stop a virtual sensor and remove its resources.

        ``keep_storage`` preserves a permanent output stream on disk
        (the container-shutdown path: ``permanent-storage="true"``
        promises data outlives the process).
        """
        key = name.strip().lower()
        with self._lock:
            sensor = self._sensors.pop(key, None)
        if sensor is None:
            raise DeploymentError(f"no virtual sensor named {name!r}")
        sensor.stop()
        table = OUTPUT_TABLE_PREFIX + key
        if keep_storage:
            self.storage.release_stream(table)
        else:
            self.storage.drop_stream(table)
        for hook in self._undeploy_hooks:
            hook(key)

    def reconfigure(self, descriptor: VirtualSensorDescriptor,
                    strict: bool = False) -> VirtualSensor:
        """Replace a running sensor with a new descriptor atomically-ish:
        the old instance stops only after the new descriptor validates,
        passes the strict check and has its wrappers built."""
        validate_descriptor(descriptor, known_wrapper=self._knows_wrapper)
        if strict:
            self._strict_check(descriptor)
        wrappers = self._build_wrappers(descriptor)
        with self._lock:
            deployed = descriptor.name in self._sensors
        if deployed:
            self.undeploy(descriptor.name)
        return self._install(descriptor, wrappers, start=True)

    # -- access --------------------------------------------------------------

    def get(self, name: str) -> VirtualSensor:
        with self._lock:
            sensor = self._sensors.get(name.strip().lower())
        if sensor is None:
            raise DeploymentError(f"no virtual sensor named {name!r}")
        return sensor

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        with self._lock:
            return name.strip().lower() in self._sensors

    def sensor_names(self) -> List[str]:
        with self._lock:
            return sorted(self._sensors)

    def sensors(self) -> List[VirtualSensor]:
        with self._lock:
            return [self._sensors[name] for name in sorted(self._sensors)]

    def stop_all(self, keep_storage: bool = False) -> None:
        for name in self.sensor_names():
            self.undeploy(name, keep_storage=keep_storage)

    def static_coverage(self) -> Tuple[int, int, float]:
        """``(eligible, total, percent)`` of per-source queries whose
        fast path attached, over the deployed sensors."""
        eligible = 0
        total = 0
        for sensor in self.sensors():
            block = sensor.incremental_status()["static"]
            eligible += block["eligible"]
            total += block["total"]
        return eligible, total, coverage_percent(eligible, total)

    def status(self) -> dict:
        eligible, total, percent = self.static_coverage()
        with self._lock:
            deployed = sorted(self._sensors)
            snapshot = dict(self._sensors)
            deploy_count = self.deploy_count
        return status_doc(
            self.node or "vsm", "running",
            counters={"deploy_count": deploy_count,
                      "deployed_sensors": len(snapshot),
                      "static_eligible_sources": eligible,
                      "static_analyzed_sources": total},
            uptime_ms=self._uptime.uptime_ms(),
            deployed=deployed,
            deploy_count=deploy_count,
            static_coverage_percent=percent,
            sensors={name: sensor.status()
                     for name, sensor in snapshot.items()},
        )
