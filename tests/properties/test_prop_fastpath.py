"""Property tests: the vectorized fast path is statistically equivalent
to the event-driven reference, per protocol.

The fast path draws from different (derived per-cell) streams, so traces
are not bit-identical; the contract is that per-protocol mean/std/loss
agree within sampling tolerance on the same scenario — see the
"Performance architecture" section of DESIGN.md.
"""

import math

import pytest

from repro.netsim.conduit import FaultOverlay
from repro.netsim.fastpath import (
    FastPathUnsupported,
    cell_seed,
    extract_probe_cell,
    simulate_cell,
)
from repro.netsim.packet import Protocol
from repro.workloads.wan import WanScenario

PROBES = 2000
CITIES = ["frankfurt", "newyork"]


def _study(seed, *, fast, probes=PROBES):
    scenario = WanScenario.build(seed=seed, cities=CITIES)
    return scenario.run_protocol_study(
        probes_per_protocol=probes, fast=fast
    )


@pytest.mark.parametrize("seed", [7, 1234])
def test_fast_path_statistics_match_event_driven(seed):
    event = _study(seed, fast=False)
    fast = _study(seed, fast=True)
    for city in CITIES:
        for protocol in Protocol:
            e = event[city][protocol]
            f = fast[city][protocol]
            assert f.sent == e.sent == PROBES
            # Means agree within 1% (both paths see the same deterministic
            # delay structure; randomness only moves them fractionally).
            assert math.isclose(
                f.mean_rtt_ms(), e.mean_rtt_ms(), rel_tol=0.01
            ), (city, protocol.name, f.mean_rtt_ms(), e.mean_rtt_ms())
            # Stds agree within 15% relative or 0.1 ms absolute (std of a
            # 2000-sample std is a few percent; churn-window luck adds more).
            assert math.isclose(
                f.std_rtt_ms(), e.std_rtt_ms(), rel_tol=0.15, abs_tol=0.1
            ), (city, protocol.name, f.std_rtt_ms(), e.std_rtt_ms())
            # Loss rates are small; compare within binomial noise
            # (4 sigma of a p~=0.016, n=2000 binomial is ~1.1%).
            p = max(e.loss_rate(), f.loss_rate())
            sigma = math.sqrt(max(p * (1 - p), 1e-6) / PROBES)
            assert abs(f.loss_rate() - e.loss_rate()) <= 4 * sigma + 1e-9, (
                city, protocol.name, f.loss_rate(), e.loss_rate()
            )


def test_fast_path_is_deterministic():
    first = _study(7, fast=True, probes=500)
    second = _study(7, fast=True, probes=500)
    for city in CITIES:
        for protocol in Protocol:
            a = first[city][protocol].records
            b = second[city][protocol].records
            assert [(r.seq, r.send_time, r.rtt) for r in a] == [
                (r.seq, r.send_time, r.rtt) for r in b
            ]


def test_cell_simulation_is_pure_function_of_cell():
    scenario = WanScenario.build(seed=7, cities=["frankfurt"])
    cell = extract_probe_cell(
        scenario.network,
        scenario.city_hosts["frankfurt"],
        scenario.london.address,
        Protocol.ICMP,
        count=200,
        interval=1.0,
        start=0.0,
        seed=cell_seed(7, "frankfurt", "ICMP"),
        label="frankfurt/ICMP",
    )
    a = simulate_cell(cell)
    b = simulate_cell(cell)
    assert [(r.seq, r.rtt) for r in a.records] == [
        (r.seq, r.rtt) for r in b.records
    ]


def test_fault_overlays_are_vectorized():
    """An overlay on the Frankfurt uplink shifts the fast Table I cell by
    the overlay's delay, in agreement with the event-driven cell."""
    from repro.netsim.topology import InterfaceId

    def frankfurt_icmp(*, overlay, fast):
        scenario = WanScenario.build(seed=7, cities=["frankfurt"])
        if overlay:
            spec_asn = scenario.specs["frankfurt"].asn
            channel = scenario.topology.channel_between(
                InterfaceId(spec_asn, 1), InterfaceId(1, 1)
            )
            channel.add_overlay(
                FaultOverlay(start=0.0, end=1e9, extra_delay=5e-3)
            )
        study = scenario.run_protocol_study(
            probes_per_protocol=PROBES, fast=fast
        )
        return study["frankfurt"][Protocol.ICMP]

    clean = frankfurt_icmp(overlay=False, fast=True)
    faulted = frankfurt_icmp(overlay=True, fast=True)
    event = frankfurt_icmp(overlay=True, fast=False)
    # Same cell seed, and a delay-only overlay draws no randomness: every
    # delivered probe moves by the overlay's 5 ms.
    assert math.isclose(
        faulted.mean_rtt_ms() - clean.mean_rtt_ms(), 5.0, abs_tol=0.05
    ), (faulted.mean_rtt_ms(), clean.mean_rtt_ms())
    assert math.isclose(
        faulted.mean_rtt_ms(), event.mean_rtt_ms(), rel_tol=0.01
    ), (faulted.mean_rtt_ms(), event.mean_rtt_ms())


def test_non_echoing_destination_is_refused():
    scenario = WanScenario.build(seed=7, cities=["frankfurt"])
    # City clients only echo ICMP (the default): probing one with UDP has
    # no event-driven reply either, so the fast path must refuse.
    with pytest.raises(FastPathUnsupported):
        extract_probe_cell(
            scenario.network,
            scenario.london,
            scenario.city_hosts["frankfurt"].address,
            Protocol.UDP,
            count=10,
            interval=1.0,
            start=0.0,
            src_port=40000,
            seed=1,
        )
