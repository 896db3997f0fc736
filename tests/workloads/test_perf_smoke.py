"""Perf smoke checks: quick sanity that the fast path stays fast.

These are not benchmarks (see ``benchmarks/test_bench_table1_protocol_rtt``
for the real >=5x assertion at default scale); they are cheap guards that
run inside the tier-1 suite and can be selected with ``-m perf_smoke``.
"""

import time

import pytest

from repro.netsim.packet import Protocol
from repro.workloads.wan import WanScenario


@pytest.mark.perf_smoke
def test_fast_path_beats_event_driven_on_small_study():
    probes = 2000
    scenario = WanScenario.build(seed=7, cities=["frankfurt"])
    started = time.perf_counter()
    event = scenario.run_protocol_study(probes_per_protocol=probes)
    event_seconds = time.perf_counter() - started

    scenario = WanScenario.build(seed=7, cities=["frankfurt"])
    started = time.perf_counter()
    fast = scenario.run_protocol_study(probes_per_protocol=probes, fast=True)
    fast_seconds = time.perf_counter() - started

    # Loose smoke bound: the real bench asserts >=5x at full default
    # scale; here 2x guards against the fast path quietly regressing to
    # per-probe work while staying robust to CI timer noise.
    assert fast_seconds * 2 < event_seconds, (fast_seconds, event_seconds)
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


@pytest.mark.perf_smoke
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


@pytest.mark.perf_smoke
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
