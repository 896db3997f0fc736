"""Cheap guards that the fast path and the observability layer stay cheap.

The fast path's guard is deterministic: it counts simulator events, not
seconds. The one wall-clock guard here, the observability disabled-mode
overhead, measures something no ``bench/`` workload measures and carries
``-m perf_smoke``; speed itself is measured by ``python3 -m bench``
(``table1_study``).
"""

import time

import pytest

from repro.netsim.packet import Protocol
from repro.workloads.wan import WanScenario


def test_fast_path_beats_event_driven_on_small_study():
    """The fast path never regresses to per-probe work: it runs no
    simulator event, where the event engine runs at least one per probe."""
    probes = 2000
    event_scenario = WanScenario.build(seed=7, cities=["frankfurt"])
    event = event_scenario.run_protocol_study(probes_per_protocol=probes)

    fast_scenario = WanScenario.build(seed=7, cities=["frankfurt"])
    fast = fast_scenario.run_protocol_study(probes_per_protocol=probes, fast=True)

    assert fast_scenario.simulator.events_processed == 0
    assert event_scenario.simulator.events_processed >= probes * len(Protocol)
    for protocol in Protocol:
        assert fast["frankfurt"][protocol].sent == probes
        assert event["frankfurt"][protocol].sent == probes


@pytest.mark.perf_smoke
def test_observability_disabled_overhead_under_5_percent():
    """The observability overhead guard (DESIGN.md §9).

    With a disabled bundle attached (null recorders), the Table I fast
    path must stay within 5% of the fully detached baseline. Min-of-N
    timings make the comparison robust to scheduler noise, and a small
    absolute floor keeps the ratio meaningful when both sides are fast.
    """
    from repro.obs import Observability

    probes = 2000
    repeats = 5

    def run_study(obs) -> float:
        scenario = WanScenario.build(seed=7, cities=["frankfurt"], obs=obs)
        started = time.perf_counter()
        scenario.run_protocol_study(probes_per_protocol=probes, fast=True)
        return time.perf_counter() - started

    detached = min(run_study(None) for _ in range(repeats))
    disabled = min(run_study(Observability.disabled()) for _ in range(repeats))

    # <5% relative, with a 10 ms absolute floor against timer jitter.
    assert disabled <= detached * 1.05 + 0.010, (detached, disabled)


def test_engine_disabled_mode_skips_instrumented_loop():
    """The disabled bundle must leave the engine on its uninstrumented
    run loop (`_instrumented` False), not merely hand out null recorders."""
    from repro.netsim.engine import Simulator
    from repro.obs import Observability

    simulator = Simulator()
    simulator.attach_observability(Observability.disabled())
    assert simulator._instrumented is False

    simulator = Simulator()
    simulator.attach_observability(Observability.enabled())
    assert simulator._instrumented is True


def test_engine_compaction_keeps_queue_bounded():
    from repro.netsim.engine import Simulator

    sim = Simulator()
    live = sim.schedule_at(1e6, lambda: None)
    for i in range(20_000):
        sim.schedule_at(float(i), lambda: None).cancel()
    # Lazy compaction must keep the queue near the live population rather
    # than letting dead entries accumulate linearly.
    assert len(sim._queue) < 1000
    assert sim.pending_events == 1
    live.cancel()
