"""Segment probing: D2D measurements between executor vantage points.

Debuglet's measurement primitive (§IV-B, Fig 6): deploy an echo *client*
Debuglet at one ``<AS, interface>`` executor and an echo *server* at
another, pin the forwarding path between them (and its reverse), and run
real data-plane probes. :class:`ExecutorFleet` manages the deployed
executors; :class:`SegmentProber` packages one such measurement, either
asynchronously (callback) or synchronously (running the simulator until it
completes).

Three unrelated things are called "fleet": :class:`ExecutorFleet` here is
a plain vantage → :class:`~repro.core.executor.Executor` table for
data-plane probing (no marketplace, no lifecycle);
:class:`~repro.core.fleet.FleetScheduler` multiplexes many marketplace
*sessions* on one simulator; :class:`~repro.core.fleetmgr.FleetManager`
owns executor *membership* (registration, heartbeats, drain, admission).

**The prober contract.** The localization driver
(:meth:`repro.core.localization.FaultLocalizer.run_episodes`) talks to a
prober through ``network`` and one method, ``measure_batch(requests,
protocol=)``: a list of :class:`SegmentRequest` in, one measurement per
request out, in order, each exposing ``ok`` / ``loss_rate()`` /
``mean_rtt_ms()`` / ``probes`` / ``segment`` / ``finished_at``. A request
without a ``start`` is measured at the simulator clock, which ends up
past it. :class:`SegmentProber` (VM pairs on the event engine) and
:class:`~repro.core.fastprobe.FastSegmentProber` (vectorized cells) are
the two implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.common.errors import ConfigurationError, SimulationError
from repro.core.application import DebugletApplication
from repro.core.executor import ExecutionRecord, Executor, ResultCertificate
from repro.core.results import EchoMeasurement, ServerReport
from repro.netsim.network import Network
from repro.netsim.packet import Protocol
from repro.pathaware.segments import PathSegment
from repro.sandbox.programs import echo_client, echo_server

Vantage = tuple[int, int]  # (ASN, interface)

#: Host-switch overhead of the sandboxed echo pair over one round trip.
#: The vectorized prober adds it to every RTT and the analytic baseline
#: (:func:`repro.core.localization.estimate_baseline_rtt`) to every
#: expectation; a verdict compares the two, so both read this one constant.
SANDBOX_OVERHEAD = 300e-6


class SegmentRequest(NamedTuple):
    """One segment measurement asked of a prober's ``measure_batch``."""

    client: Vantage
    server: Vantage
    segment: PathSegment
    #: Simulated start time; ``None`` measures at the simulator clock.
    start: float | None = None
    #: Labels deriving the measurement's RNG stream independently of issue
    #: order; ``()`` uses the prober's own measurement counter. Only the
    #: vectorized prober draws from a per-measurement stream.
    seed_labels: tuple = ()


class ExecutorFleet:
    """The set of executors an operator (or many operators) deployed."""

    def __init__(self, network: Network, *, seed: int = 0) -> None:
        self.network = network
        self.seed = seed
        self._executors: dict[Vantage, Executor] = {}

    def deploy(self, asn: int, interface: int) -> Executor:
        """Deploy one executor co-located with ``<asn, interface>``."""
        vantage = (asn, interface)
        if vantage in self._executors:
            raise ConfigurationError(f"executor already deployed at {vantage}")
        executor = Executor(self.network, asn, interface, seed=self.seed)
        self._executors[vantage] = executor
        return executor

    def deploy_full(self) -> None:
        """Co-locate an executor with every border router (Fig 6 model)."""
        for asn, asys in sorted(self.network.topology.ases.items()):
            for interface in sorted(asys.routers):
                if (asn, interface) not in self._executors:
                    self.deploy(asn, interface)

    def has(self, asn: int, interface: int) -> bool:
        return (asn, interface) in self._executors

    def get(self, asn: int, interface: int) -> Executor:
        executor = self._executors.get((asn, interface))
        if executor is None:
            raise SimulationError(f"no executor deployed at ({asn}, {interface})")
        return executor

    def vantages(self) -> list[Vantage]:
        return sorted(self._executors)

    def __len__(self) -> int:
        return len(self._executors)


@dataclass
class SegmentMeasurement:
    """Outcome of one client/server Debuglet pair run over a segment."""

    client: Vantage
    server: Vantage
    protocol: Protocol
    segment: PathSegment
    probes: int
    echo: EchoMeasurement | None = None
    server_report: ServerReport | None = None
    client_record: ExecutionRecord | None = None
    server_record: ExecutionRecord | None = None
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def ok(self) -> bool:
        return (
            self.client_record is not None
            and self.client_record.completed
            and self.echo is not None
        )

    def mean_rtt_ms(self) -> float:
        if self.echo is None:
            return float("nan")
        return self.echo.mean_rtt_ms()

    def loss_rate(self) -> float:
        if self.echo is None:
            return 1.0
        return self.echo.loss_rate()

    def certificates(self) -> list[ResultCertificate]:
        certs = []
        for record in (self.client_record, self.server_record):
            if record is not None and record.certificate is not None:
                certs.append(record.certificate)
        return certs


class SegmentProber:
    """Runs paired echo Debuglets between fleet vantage points."""

    #: Measurement ``n`` (1-based) runs its echo pair on port
    #: ``BASE_PORT + n``.
    BASE_PORT = 7700

    def __init__(
        self,
        fleet: ExecutorFleet,
        *,
        probes: int = 40,
        interval_us: int = 20_000,
        probe_size: int = 64,
    ) -> None:
        self.fleet = fleet
        self.probes = probes
        self.interval_us = interval_us
        self.probe_size = probe_size
        self._port_counter = self.BASE_PORT
        self.measurements_run = 0

    @property
    def network(self) -> Network:
        return self.fleet.network

    def _next_port(self) -> int:
        self._port_counter += 1
        return self._port_counter

    def measure(
        self,
        client: Vantage,
        server: Vantage,
        segment: PathSegment,
        *,
        protocol: Protocol = Protocol.UDP,
        probes: int | None = None,
        start_at: float | None = None,
        on_complete: Callable[[SegmentMeasurement], None] | None = None,
    ) -> SegmentMeasurement:
        """Launch a D2D echo measurement from ``client`` to ``server``.

        ``segment`` must run from the client's AS to the server's AS; its
        reverse is pinned for the echo replies. The returned measurement
        fills in once both executions complete (use ``on_complete`` or
        :meth:`measure_sync`).
        """
        if segment.src_asn != client[0] or segment.dst_asn != server[0]:
            raise ConfigurationError("segment does not join the two vantage points")
        count = self.probes if probes is None else probes
        client_executor = self.fleet.get(*client)
        server_executor = self.fleet.get(*server)
        port = self._next_port()
        sim = self.network.simulator
        start = sim.now if start_at is None else start_at

        idle_us = int(2e6 + count * self.interval_us)
        server_stock = echo_server(
            protocol, max_echoes=count, idle_timeout_us=idle_us, size=self.probe_size
        )
        server_app = DebugletApplication.from_stock(
            f"seg-srv-{self.measurements_run}",
            server_stock,
            listen_port=port,
            path=segment.reversed().as_list(),
        )
        client_stock = echo_client(
            protocol,
            server_executor.data_address,
            count=count,
            interval_us=self.interval_us,
            size=self.probe_size,
            dst_port=port,
        )
        client_app = DebugletApplication.from_stock(
            f"seg-cli-{self.measurements_run}",
            client_stock,
            path=segment.as_list(),
        )
        self.measurements_run += 1

        measurement = SegmentMeasurement(
            client=client,
            server=server,
            protocol=protocol,
            segment=segment,
            probes=count,
            started_at=start,
        )

        def on_server(record: ExecutionRecord) -> None:
            measurement.server_record = record
            if record.completed:
                measurement.server_report = ServerReport.from_result(record.result)
            _maybe_finish()

        def on_client(record: ExecutionRecord) -> None:
            measurement.client_record = record
            if record.completed:
                measurement.echo = EchoMeasurement.from_result(
                    record.result, probes_sent=count
                )
            _maybe_finish()

        def _maybe_finish() -> None:
            if measurement.client_record is None or measurement.server_record is None:
                return
            measurement.finished_at = sim.now
            if on_complete is not None:
                on_complete(measurement)

        # Server starts slightly earlier so its sockets are bound before
        # the first probe arrives.
        server_executor.submit(server_app, start_at=start, on_complete=on_server)
        client_executor.submit(
            client_app, start_at=start + 0.05, on_complete=on_client
        )
        return measurement

    def measure_sync(
        self,
        client: Vantage,
        server: Vantage,
        segment: PathSegment,
        *,
        on_complete: Callable[[SegmentMeasurement], None] | None = None,
        **kwargs,
    ) -> SegmentMeasurement:
        """Run :meth:`measure` and run the simulator until it finishes.

        The run stops after the event in which the measurement completes
        (:meth:`Simulator.stop`, called after any ``on_complete``), where
        stepping one event at a time would have stopped.
        """
        sim = self.network.simulator

        def finished(measurement: SegmentMeasurement) -> None:
            if on_complete is not None:
                on_complete(measurement)
            sim.stop()

        measurement = self.measure(
            client, server, segment, on_complete=finished, **kwargs
        )
        sim.run()
        if measurement.finished_at == 0.0:
            raise SimulationError("simulator went idle before completion")
        return measurement

    def measure_batch(
        self,
        requests: list[SegmentRequest],
        *,
        protocol: Protocol = Protocol.UDP,
    ) -> list[SegmentMeasurement]:
        """Measure ``requests`` one after another on the one simulator clock."""
        return [
            self.measure_sync(
                request.client,
                request.server,
                request.segment,
                protocol=protocol,
                start_at=request.start,
            )
            for request in requests
        ]
