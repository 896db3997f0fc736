"""Golden per-cell array hashes of the fast path, and the script behind them.

``cell_golden.json`` holds ``sha256(send_times ‖ rtts)`` (first 16 hex
digits) of every cell of three fixed sets, recorded with the 1-D per-cell
kernel that ``tests/netsim/cell_reference.py`` keeps — i.e. at the parent
of the batch kernel, before ``netsim/fastpath.py`` was touched:

- ``campaign/<seed>``: every measurement of ``run_campaign`` over a 200-AS,
  30-episode continent, in the order the prober wraps them (epoch by epoch,
  episode order) — the arrays as the campaign computed them, whatever batch
  each cell travelled in;
- ``table1/7``: the 24 (city, protocol) cells of the §II fast study at
  2 000 probes (natural bursts, churn, weighted per-packet ECMP,
  ``base_drop > 0`` — none of which wanbench generates);
- ``handbuilt``: channels forcing each feature alone and together.

Regenerate only if a numpy release changes its ``Generator`` streams (the
four campaign digests of ``tests/workloads/test_wanbench.py`` move with
it): ``python -m tests.netsim.cell_golden`` from the repository root.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.fastprobe import FastSegmentProber
from repro.netsim import InterfaceId, Link, Topology
from repro.netsim.conduit import FaultOverlay
from repro.netsim.congestion import CongestionConfig, CongestionProcess
from repro.netsim.ecmp import EcmpGroup, HashGranularity, Route
from repro.netsim.fastpath import (
    cell_seed,
    extract_segment_cell,
    simulate_cell_arrays,
)
from repro.netsim.packet import Address, Protocol
from repro.netsim.routechurn import RouteChurnProcess, RouteShift
from repro.netsim.treatment import ProtocolTreatment, TreatmentProfile
from repro.pathaware.discovery import PathRegistry
from repro.workloads.wan import WanScenario
from repro.workloads.wanbench import WanbenchConfig, build_continent, run_campaign

GOLDEN_PATH = Path(__file__).with_name("cell_golden.json")
CAMPAIGN_SEEDS = (1, 2)
TABLE1_SEED = 7
TABLE1_PROBES = 2000


def array_hash(send_times: np.ndarray, rtts: np.ndarray) -> str:
    payload = np.ascontiguousarray(send_times, dtype=np.float64).tobytes()
    payload += np.ascontiguousarray(rtts, dtype=np.float64).tobytes()
    return hashlib.sha256(payload).hexdigest()[:16]


def campaign_config(seed: int) -> WanbenchConfig:
    return WanbenchConfig(n_ases=200, episodes=30, regions=4, seed=seed)


def campaign_hashes(seed: int, *, workers: int = 0) -> list[str]:
    """One hash per measurement of the campaign, in wrapping order."""
    hashes: list[str] = []
    wrap = FastSegmentProber.measurements_from_arrays

    def recording(self, cells, requests, arrays):
        hashes.extend(array_hash(*pair) for pair in arrays)
        return wrap(self, cells, requests, arrays)

    FastSegmentProber.measurements_from_arrays = recording
    try:
        run_campaign(build_continent(campaign_config(seed)), workers=workers)
    finally:
        FastSegmentProber.measurements_from_arrays = wrap
    return hashes


def table1_hashes() -> dict[str, str]:
    """``city/PROTOCOL`` -> hash for the §II fast study."""
    study = WanScenario.build(seed=TABLE1_SEED).run_protocol_study(
        probes_per_protocol=TABLE1_PROBES, fast=True
    )
    hashes = {}
    for city, traces in study.items():
        for protocol, trace in traces.items():
            send_times = np.array([r.send_time for r in trace.records])
            rtts = np.array(
                [np.nan if r.rtt is None else r.rtt for r in trace.records]
            )
            hashes[f"{city}/{protocol.name}"] = array_hash(send_times, rtts)
    return hashes


# ---------------------------------------------------------------- hand-built

UDP_ONLY = frozenset({Protocol.UDP})
TCP_ONLY = frozenset({Protocol.TCP})


def _busy_congestion(**overrides) -> CongestionProcess:
    """Utilization that crosses the drop threshold and carries bursts."""
    config = CongestionConfig(
        base_utilization=0.62,
        diurnal_amplitude=0.15,
        diurnal_phase=1.0,
        burst_rate=1.0 / 25.0,
        burst_mean_duration=12.0,
        burst_magnitude_range=(0.1, 0.3),
        queue_shape=1.5,
    )
    config = replace(config, **overrides)
    return CongestionProcess(config, seed=5, label="golden", horizon=400.0)


def chain(*, middle_jitter: float = 0.02e-3, **link_kwargs):
    """AS1 - AS2 - AS3; ``link_kwargs`` shape both directions of link 2-3."""
    topology = Topology()
    for asn in (1, 2, 3):
        topology.make_as(
            asn,
            internal_delay=0.5e-3,
            internal_jitter=middle_jitter if asn == 2 else 0.02e-3,
            seed=10 + asn,
        )
    topology.connect(1, 2, 2, 1, Link.symmetric("g-1-2", base_delay=5e-3, seed=21))
    topology.connect(
        2, 2, 3, 1,
        Link.symmetric("g-2-3", base_delay=4e-3, seed=22, **link_kwargs),
    )
    return topology


def link_channels(topology):
    link, _ = topology.link_at(InterfaceId(2, 2))
    return link.forward, link.reverse


def cell_over(
    topology,
    name: str,
    protocol: Protocol = Protocol.UDP,
    *,
    count: int = 40,
    interval: float = 0.5,
    start: float = 3.0,
    timeout: float = 2.0,
    size: int = 64,
):
    return extract_segment_cell(
        topology,
        PathRegistry(topology).shortest(1, 3),
        protocol,
        client_vantage=(1, 2),
        server_vantage=(3, 1),
        count=count,
        interval=interval,
        start=start,
        size=size,
        timeout=timeout,
        seed=cell_seed(9, "golden", name),
        label=name,
    )


def handbuilt_cells() -> dict:
    """Name -> cell, each forcing one kernel feature (the last: all)."""
    cells = {}

    def add(name, topology, protocol=Protocol.UDP, **schedule):
        cells[name] = cell_over(topology, name, protocol, **schedule)

    add("plain", chain())
    add("no-jitter-stage", chain(middle_jitter=0.0))

    add("natural-bursts", chain(congestion=_busy_congestion()),
        count=300, interval=1.0)

    topology = chain()
    for channel in link_channels(topology):
        channel.congestion = _busy_congestion(burst_rate=0.0)
        channel.congestion.inject_burst(8.0, 6.0, 0.3)  # edges inside the train
    add("injected-burst", topology)

    shifts = [
        RouteShift(5.0, 12.0, 3e-3),
        RouteShift(9.0, 40.0, 2e-3, UDP_ONLY),
        RouteShift(0.0, 1e3, 7e-3, TCP_ONLY),
    ]
    topology = chain(churn=RouteChurnProcess(shifts))
    add("churn-udp", topology, Protocol.UDP)
    add("churn-icmp", topology, Protocol.ICMP)

    weighted = EcmpGroup(
        [Route(0.0, weight=3.0), Route(2e-3, jitter=0.1e-3), Route(5e-3, weight=0.5)]
    )
    spray = TreatmentProfile.uniform(
        ProtocolTreatment(ecmp_granularity=HashGranularity.PER_PACKET)
    )
    add("per-packet-ecmp", chain(ecmp=weighted, treatment=spray))
    # Channel jitter 0 and only the rare route jitters: whether the jitter
    # normal is drawn depends on the routes the probes happened to take.
    rare = EcmpGroup([Route(0.0, weight=8.0), Route(1e-3, jitter=0.2e-3)])
    for k in range(6):
        add(f"per-packet-ecmp-rare-jitter-{k}", chain(ecmp=rare, treatment=spray),
            count=4)
    add("per-flow-ecmp",
        chain(ecmp=EcmpGroup([Route(0.0), Route(1e-3, jitter=0.3e-3), Route(2e-3)])),
        Protocol.TCP)

    add("base-drop", chain(treatment=TreatmentProfile.uniform(
        ProtocolTreatment(base_drop=0.15))))

    hostile = TreatmentProfile.uniform(ProtocolTreatment(drop_multiplier=6.0))
    topology = chain(
        congestion=_busy_congestion(burst_rate=0.0, drop_scale=8.0), treatment=hostile
    )
    add("deprioritized", topology, count=80)
    for channel in link_channels(topology):
        channel.priority_addresses.add(Address(1, "exec2"))
    add("priority-address", topology, count=80)

    def overlaid(*overlays):
        topology = chain()
        for channel in link_channels(topology):
            for overlay in overlays:
                channel.add_overlay(overlay)
        return topology

    # The train runs over [3.05, 22.55]: every window edge below is inside.
    add("overlay-blackhole", overlaid(FaultOverlay(6.0, 9.0, blackhole=True)))
    add("overlay-loss", overlaid(FaultOverlay(6.0, 15.0, extra_loss=0.4)))
    add("overlay-delay-jitter",
        overlaid(FaultOverlay(10.0, 1e3, extra_delay=20e-3, extra_jitter=2e-3)))
    add("overlay-jitter-outside-window",
        overlaid(FaultOverlay(500.0, 600.0, extra_jitter=2e-3)))
    add("overlay-protocol-filter",
        overlaid(FaultOverlay(0.0, 1e3, extra_delay=9e-3, protocols=TCP_ONLY),
                 FaultOverlay(7.0, 1e3, extra_loss=0.2, protocols=UDP_ONLY)))
    add("timeout-trips", overlaid(FaultOverlay(12.0, 1e3, extra_delay=0.7)),
        timeout=1.0)

    cells["zero-stage"] = replace(
        cells["plain"], label="zero-stage", stages=cells["plain"].stages[:0]
    )

    topology = chain(
        congestion=_busy_congestion(),
        churn=RouteChurnProcess(shifts),
        ecmp=weighted,
        treatment=TreatmentProfile.uniform(ProtocolTreatment(
            ecmp_granularity=HashGranularity.PER_PACKET, base_drop=0.01,
            drop_multiplier=3.0, extra_delay=0.2e-3, extra_jitter=0.05e-3,
        )),
    )
    for channel in link_channels(topology):
        channel.congestion = _busy_congestion()
        channel.congestion.inject_burst(20.0, 30.0, 0.2)
        channel.add_overlay(FaultOverlay(30.0, 60.0, extra_loss=0.3, extra_jitter=1e-3))
        channel.add_overlay(FaultOverlay(50.0, 70.0, blackhole=True))
        channel.add_overlay(FaultOverlay(0.0, 1e3, extra_delay=5e-3, protocols=UDP_ONLY))
    add("everything", topology, count=200, interval=0.5)
    add("everything-tcp", topology, Protocol.TCP, count=200, interval=0.5)
    return cells


def handbuilt_hashes() -> dict[str, str]:
    return {
        name: array_hash(*simulate_cell_arrays(cell))
        for name, cell in handbuilt_cells().items()
    }


def generate() -> dict:
    golden = {f"campaign/{seed}": campaign_hashes(seed) for seed in CAMPAIGN_SEEDS}
    golden[f"table1/{TABLE1_SEED}"] = table1_hashes()
    golden["handbuilt"] = handbuilt_hashes()
    return golden


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(generate(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
