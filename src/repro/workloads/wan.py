"""The §II motivation-study WAN: London and six remote cities.

Builds a star topology — one AS per DigitalOcean region, each joined to
London by an aggregate inter-domain path — whose forwarding applies the
protocol-differential mechanisms the paper hypothesizes:

- **UDP** is load-balanced per packet across several parallel routes with
  distinct delays (multi-modal RTT: Fig 2's four Frankfurt clusters,
  Fig 3's ~30 ms Bangalore spread);
- **TCP** sticks to one route per flow but is dropped preferentially
  (highest loss in every Table I row);
- **ICMP** and **raw IP** ride a priority queue on a single route (the
  most stable series);
- route churn shifts base delays over hours (Fig 1's ~5 ms steps, Fig 2's
  correlated UDP/raw shift).

Per-city parameters are calibrated so RTT means land near Table I; the
differential *structure* (orderings, relative stabilities, loss ranking)
emerges from the mechanisms rather than from sampling target
distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


from repro.common.errors import ConfigurationError
from repro.netsim.conduit import DirectedChannel, Link
from repro.netsim.congestion import CongestionConfig, CongestionProcess
from repro.netsim.ecmp import EcmpGroup, HashGranularity, Route
from repro.netsim.endhost import Host
from repro.netsim.engine import Simulator
from repro.netsim.network import Network
from repro.netsim.packet import Protocol
from repro.netsim.routechurn import RouteChurnProcess, RouteShift
from repro.netsim.topology import Topology
from repro.netsim.trace import MeasurementTrace
from repro.netsim.traffic import MultiProtocolProber
from repro.netsim.treatment import ProtocolTreatment, TreatmentProfile

#: Host-to-border-and-back RTT inside the two endpoint ASes (4 crossings
#: of 0.2 ms each).
INTERNAL_RTT_MS = 0.8
_INTERNAL_DELAY = 0.2e-3

# Folded-normal moments: |N(0, j)| has mean 0.7979 j and std 0.6028 j; an
# RTT crosses the channel twice.
_FOLD_MEAN = math.sqrt(2.0 / math.pi)
_FOLD_STD_RTT = math.sqrt(2.0) * math.sqrt(1.0 - 2.0 / math.pi)


@dataclass(frozen=True)
class ProtoSpec:
    """Target Table I cell for one protocol at one city."""

    mean_ms: float
    std_ms: float
    loss_pm: float  # per-mille over the round trip


@dataclass(frozen=True)
class CitySpec:
    """Everything needed to build one city's aggregate path to London."""

    name: str
    asn: int
    base_rtt_ms: float  # propagation floor of the fastest route
    protocols: dict[Protocol, ProtoSpec]
    udp_routes: int = 4
    udp_spread_ms: float = 4.0
    udp_weighting: str = "uniform"  # or "triangular"
    udp_jitter_ms: float = 0.35
    # Route churn: (rate per second, RTT delta range ms, protocols or None)
    churn_rate: float = 0.0
    churn_delta_ms: tuple[float, float] = (2.0, 6.0)
    churn_duration_s: float = 1800.0
    churn_protocols: frozenset[Protocol] | None = None
    scripted_shifts: tuple[tuple[float, float, float, tuple[str, ...]], ...] = ()
    # (start_s, end_s, delta_ms, protocol names) applied to the fwd channel


CITY_SPECS: dict[str, CitySpec] = {
    "bangalore": CitySpec(
        name="bangalore",
        asn=2,
        base_rtt_ms=130.0,
        protocols={
            Protocol.UDP: ProtoSpec(146.01, 7.01, 0.23),
            Protocol.TCP: ProtoSpec(158.05, 5.27, 1.72),
            Protocol.ICMP: ProtoSpec(145.44, 3.89, 0.57),
            Protocol.RAW_IP: ProtoSpec(151.44, 2.87, 0.41),
        },
        udp_routes=12,
        udp_spread_ms=27.0,
        udp_weighting="triangular",
        churn_rate=1.0 / 21600.0,
        churn_delta_ms=(1.5, 4.0),
        churn_protocols=frozenset({Protocol.TCP, Protocol.ICMP, Protocol.RAW_IP}),
    ),
    "frankfurt": CitySpec(
        name="frankfurt",
        asn=3,
        base_rtt_ms=10.9,
        protocols={
            Protocol.UDP: ProtoSpec(14.75, 1.78, 0.02),
            Protocol.TCP: ProtoSpec(14.72, 1.22, 1.09),
            Protocol.ICMP: ProtoSpec(11.95, 0.51, 0.01),
            Protocol.RAW_IP: ProtoSpec(15.36, 0.55, 0.02),
        },
        udp_routes=4,
        udp_spread_ms=4.7,
        scripted_shifts=(
            # Fig 2: a multi-hour shift visible on UDP and raw IP only.
            (8 * 3600.0, 14 * 3600.0, 2.0, ("UDP", "RAW_IP")),
        ),
    ),
    "newyork": CitySpec(
        name="newyork",
        asn=4,
        base_rtt_ms=66.0,
        protocols={
            Protocol.UDP: ProtoSpec(73.94, 3.5, 5.59),
            Protocol.TCP: ProtoSpec(71.58, 3.5, 16.19),
            Protocol.ICMP: ProtoSpec(76.08, 2.5, 0.24),
            Protocol.RAW_IP: ProtoSpec(76.47, 2.5, 0.27),
        },
        udp_routes=4,
        udp_spread_ms=10.0,
        churn_rate=1.0 / 9000.0,
        churn_delta_ms=(3.5, 6.0),
        churn_duration_s=2400.0,
        churn_protocols=None,  # Fig 1: steps visible on every protocol
    ),
    "sanfrancisco": CitySpec(
        name="sanfrancisco",
        asn=5,
        base_rtt_ms=133.2,
        protocols={
            Protocol.UDP: ProtoSpec(134.79, 1.00, 0.02),
            Protocol.TCP: ProtoSpec(134.42, 0.70, 1.56),
            Protocol.ICMP: ProtoSpec(134.62, 0.66, 0.02),
            Protocol.RAW_IP: ProtoSpec(135.09, 1.71, 0.03),
        },
        udp_routes=2,
        udp_spread_ms=1.6,
    ),
    "singapore": CitySpec(
        name="singapore",
        asn=6,
        base_rtt_ms=160.0,
        protocols={
            Protocol.UDP: ProtoSpec(176.14, 10.04, 0.09),
            Protocol.TCP: ProtoSpec(176.95, 4.33, 1.74),
            Protocol.ICMP: ProtoSpec(181.74, 3.00, 0.06),
            Protocol.RAW_IP: ProtoSpec(178.98, 4.61, 0.03),
        },
        udp_routes=8,
        udp_spread_ms=30.0,
        udp_weighting="triangular",
        churn_rate=1.0 / 28800.0,
        churn_delta_ms=(2.0, 5.0),
        churn_protocols=frozenset({Protocol.TCP, Protocol.RAW_IP}),
    ),
    "sydney": CitySpec(
        name="sydney",
        asn=7,
        base_rtt_ms=262.0,
        protocols={
            Protocol.UDP: ProtoSpec(274.01, 7.79, 0.50),
            Protocol.TCP: ProtoSpec(278.60, 5.19, 1.09),
            Protocol.ICMP: ProtoSpec(277.99, 5.15, 0.96),
            Protocol.RAW_IP: ProtoSpec(278.44, 5.18, 1.01),
        },
        udp_routes=6,
        udp_spread_ms=21.0,
        udp_weighting="triangular",
        churn_rate=1.0 / 21600.0,
        churn_delta_ms=(2.0, 5.0),
        churn_protocols=frozenset({Protocol.TCP, Protocol.ICMP, Protocol.RAW_IP}),
    ),
}

LONDON_ASN = 1


def _calibrated_treatment(
    spec: CitySpec, protocol: Protocol, *, direction: str
) -> ProtocolTreatment:
    """Treatment whose extra delay/jitter hit the protocol's target."""
    proto_spec = spec.protocols[protocol]
    extra_rtt_ms = max(0.0, proto_spec.mean_ms - spec.base_rtt_ms)
    if protocol is Protocol.UDP:
        # UDP's mean/std come from the forward ECMP group; only a little
        # per-packet jitter is added here.
        return ProtocolTreatment(
            ecmp_granularity=(
                HashGranularity.PER_PACKET
                if direction == "forward"
                else HashGranularity.SINGLE
            ),
            extra_jitter=spec.udp_jitter_ms * 1e-3,
            base_drop=proto_spec.loss_pm / 2000.0,
        )
    jitter = proto_spec.std_ms / _FOLD_STD_RTT  # per-traversal, ms
    half_extra = extra_rtt_ms / 2.0
    jitter = min(jitter, half_extra / _FOLD_MEAN if _FOLD_MEAN else jitter)
    extra = max(0.0, half_extra - _FOLD_MEAN * jitter)
    return ProtocolTreatment(
        priority=protocol in (Protocol.ICMP, Protocol.RAW_IP),
        ecmp_granularity=HashGranularity.SINGLE,
        extra_delay=extra * 1e-3,
        extra_jitter=jitter * 1e-3,
        base_drop=proto_spec.loss_pm / 2000.0,
    )


def _udp_route_group(spec: CitySpec, seed: int) -> EcmpGroup:
    """Forward-direction parallel routes carrying the UDP offset/spread."""
    proto_spec = spec.protocols[Protocol.UDP]
    center = max(
        0.0,
        proto_spec.mean_ms
        - spec.base_rtt_ms
        - 2.0 * _FOLD_MEAN * spec.udp_jitter_ms,
    )
    count = spec.udp_routes
    if count == 1:
        offsets = [center]
    else:
        low = center - spec.udp_spread_ms / 2.0
        offsets = [
            low + spec.udp_spread_ms * i / (count - 1) for i in range(count)
        ]
    offsets = [max(offset, 0.05) for offset in offsets]
    if spec.udp_weighting == "triangular":
        mid = (count - 1) / 2.0
        weights = [mid + 1.0 - abs(i - mid) for i in range(count)]
    else:
        weights = [1.0] * count
    routes = [
        Route(delay_offset=offset * 1e-3, weight=weight, name=f"{spec.name}-r{i}")
        for i, (offset, weight) in enumerate(zip(offsets, weights))
    ]
    return EcmpGroup(routes, salt=seed)


def _churn_for(spec: CitySpec, seed: int, horizon: float) -> RouteChurnProcess:
    if spec.churn_rate > 0:
        churn = RouteChurnProcess.random(
            seed=seed,
            label=f"churn-{spec.name}",
            horizon=horizon,
            rate=spec.churn_rate,
            mean_duration=spec.churn_duration_s,
            delta_range=(
                spec.churn_delta_ms[0] * 1e-3,
                spec.churn_delta_ms[1] * 1e-3,
            ),
            protocols=spec.churn_protocols,
        )
    else:
        churn = RouteChurnProcess()
    for start, end, delta_ms, protocol_names in spec.scripted_shifts:
        churn.add(
            RouteShift(
                start,
                end,
                delta_ms * 1e-3,
                frozenset(Protocol[name] for name in protocol_names),
            )
        )
    return churn


def build_city_link(spec: CitySpec, *, seed: int, horizon: float) -> Link:
    """The aggregate London<->city Internet path as a two-channel link."""
    base_per_dir = max(0.1, spec.base_rtt_ms - INTERNAL_RTT_MS) / 2.0 * 1e-3
    congestion_config = CongestionConfig(
        base_utilization=0.25,
        diurnal_amplitude=0.08,
        burst_rate=1.0 / 7200.0,
        queue_service_time=0.05e-3,
        drop_threshold=0.95,  # loss floors come from the protocol policy
    )

    def make_channel(direction: str) -> DirectedChannel:
        treatments = {
            protocol: _calibrated_treatment(spec, protocol, direction=direction)
            for protocol in spec.protocols
        }
        ecmp = (
            {Protocol.UDP: _udp_route_group(spec, seed)}
            if direction == "forward"
            else None
        )
        churn = _churn_for(spec, seed, horizon) if direction == "forward" else None
        return DirectedChannel(
            f"{spec.name}/{direction}",
            base_delay=base_per_dir,
            treatment=TreatmentProfile(treatments=treatments),
            congestion=CongestionProcess(
                congestion_config,
                seed=seed,
                label=f"{spec.name}/{direction}",
                horizon=horizon,
            ),
            ecmp=ecmp,
            churn=churn,
            seed=seed,
        )

    return Link(make_channel("forward"), make_channel("reverse"))


@dataclass
class WanScenario:
    """The built 7-city testbed."""

    simulator: Simulator
    topology: Topology
    network: Network
    london: Host
    city_hosts: dict[str, Host]
    specs: dict[str, CitySpec]
    seed: int = 7

    @classmethod
    def build(
        cls,
        *,
        seed: int = 7,
        horizon: float = 2 * 86400.0,
        cities: list[str] | None = None,
        obs=None,
    ) -> "WanScenario":
        names = list(CITY_SPECS) if cities is None else cities
        unknown = set(names) - set(CITY_SPECS)
        if unknown:
            raise ConfigurationError(f"unknown cities: {sorted(unknown)}")
        simulator = Simulator()
        if obs is not None:
            simulator.attach_observability(obs)
        topology = Topology()
        topology.make_as(
            LONDON_ASN,
            name="london",
            internal_delay=_INTERNAL_DELAY,
            internal_jitter=0.02e-3,
            seed=seed,
        )
        specs = {name: CITY_SPECS[name] for name in names}
        for index, (name, spec) in enumerate(specs.items()):
            topology.make_as(
                spec.asn,
                name=name,
                internal_delay=_INTERNAL_DELAY,
                internal_jitter=0.02e-3,
                seed=seed + spec.asn,
            )
            link = build_city_link(spec, seed=seed + 100 + spec.asn, horizon=horizon)
            topology.connect(spec.asn, 1, LONDON_ASN, index + 1, link)

        network = Network(topology, simulator, seed=seed)
        london = network.make_host(
            LONDON_ASN,
            "server",
            echo_protocols=(
                Protocol.UDP,
                Protocol.TCP,
                Protocol.ICMP,
                Protocol.RAW_IP,
            ),
        )
        city_hosts = {
            name: network.make_host(spec.asn, "client")
            for name, spec in specs.items()
        }
        return cls(
            simulator=simulator,
            topology=topology,
            network=network,
            london=london,
            city_hosts=city_hosts,
            specs=specs,
            seed=seed,
        )

    def run_protocol_study(
        self,
        *,
        probes_per_protocol: int = 4000,
        interval: float = 1.0,
        start: float = 0.0,
        fast: bool = False,
        workers: int | None = None,
    ) -> dict[str, dict[Protocol, MeasurementTrace]]:
        """Run the §II experiment: concurrent 4-protocol probe trains from
        every city toward London. Returns traces per city per protocol.

        The paper uses 86 400 probes (one per second for a day); the
        default here is scaled down. Probe *timing* still spans
        ``probes_per_protocol * interval`` seconds of simulated time, so
        churn and diurnal effects appear once the window is long enough.

        ``fast=True`` runs the vectorized fast path instead of the
        event-driven simulator: statistically equivalent traces (see
        ``repro.netsim.fastpath``), an order of magnitude faster, and —
        because each (city, protocol) cell carries its own derived seed —
        optionally fanned over ``workers`` processes with bit-identical
        results to serial. The event-driven path (``fast=False``) remains
        the reference and ignores ``workers``.
        """
        if fast:
            return self._run_protocol_study_fast(
                probes_per_protocol=probes_per_protocol,
                interval=interval,
                start=start,
                workers=workers,
            )
        obs = self.simulator.obs
        probers = {
            name: MultiProtocolProber(
                host,
                self.london.address,
                count=probes_per_protocol,
                interval=interval,
                start=start,
                label=name,
            )
            for name, host in self.city_hosts.items()
        }
        if obs is not None:
            with obs.tracer.span(
                "wan.protocol_study",
                component="workload",
                mode="event-driven",
                cities=len(probers),
                probes_per_protocol=probes_per_protocol,
            ):
                self.simulator.run_until_idle()
        else:
            self.simulator.run_until_idle()
        results = {name: prober.finalize() for name, prober in probers.items()}
        if obs is not None:
            self._record_study(obs, results)
        return results

    def _record_study(self, obs, results) -> None:
        """Per-cell probe counters and RTT histograms (both study paths)."""
        counter = obs.metrics.counter
        for city in sorted(results):
            for protocol in sorted(results[city], key=lambda p: p.name):
                trace = results[city][protocol]
                labels = {"city": city, "protocol": protocol.name}
                counter("probes_sent_total", **labels).inc(trace.sent)
                counter("probes_lost_total", **labels).inc(trace.lost)
                obs.metrics.histogram("probe_rtt_seconds", **labels).observe_many(
                    trace.rtts()
                )

    def _run_protocol_study_fast(
        self,
        *,
        probes_per_protocol: int,
        interval: float,
        start: float,
        workers: int | None,
    ) -> dict[str, dict[Protocol, MeasurementTrace]]:
        """Vectorized twin of the event-driven study above.

        Mirrors :class:`MultiProtocolProber`'s exact schedule (0.01 s
        stagger between protocol trains, base port 40000) so both paths
        probe the same instants of the same channels.
        """
        from repro.netsim.fastpath import cell_seed, extract_probe_cell
        from repro.perf.parallel import map_cells

        protocols = MultiProtocolProber.PROTOCOLS
        base_port = 40000
        stagger = 0.01
        cells = []
        for name, host in self.city_hosts.items():
            for index, protocol in enumerate(protocols):
                in_band = protocol in (Protocol.UDP, Protocol.TCP)
                cells.append(
                    extract_probe_cell(
                        self.network,
                        host,
                        self.london.address,
                        protocol,
                        count=probes_per_protocol,
                        interval=interval,
                        start=start + index * stagger,
                        src_port=base_port + index if in_band else 0,
                        dst_port=7 if in_band else 0,
                        seed=cell_seed(self.seed, name, protocol.name),
                        label=f"{name}/{protocol.name}",
                    )
                )
        traces = map_cells(cells, workers=workers)
        results: dict[str, dict[Protocol, MeasurementTrace]] = {}
        for cell, trace in zip(cells, traces):
            city = cell.label.split("/", 1)[0]
            results.setdefault(city, {})[cell.protocol] = trace
        obs = self.simulator.obs
        if obs is not None:
            # The fast path never advances the simulator clock, so the
            # probe windows are recorded retroactively from the schedule
            # each cell was built with — deterministic by construction.
            window_end = start + probes_per_protocol * interval
            study = obs.tracer.span_at(
                "wan.protocol_study",
                start,
                window_end + (len(protocols) - 1) * stagger,
                component="workload",
                mode="fast",
                cities=len(self.city_hosts),
                probes_per_protocol=probes_per_protocol,
            )
            for index, cell in enumerate(cells):
                cell_start = start + (index % len(protocols)) * stagger
                obs.tracer.span_at(
                    f"wan.cell.{cell.label}",
                    cell_start,
                    cell_start + probes_per_protocol * interval,
                    component="workload",
                    parent=study,
                    corr=f"cell:{cell.label}",
                    protocol=cell.protocol.name,
                )
            self._record_study(obs, results)
        return results
