"""Cheap guards that the fast path and the observability layer stay cheap.

Both are deterministic counts, not seconds: the fast path runs no
simulator event, and the observability disabled mode records nothing.
Speed itself is measured by ``python3 -m bench`` (``table1_study``).
"""

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


def _count_recording(monkeypatch) -> list[str]:
    """Log every span, trace event and metric recorder built, and every
    sample a real recorder takes, from here on."""
    from repro.obs import metrics, tracer

    log: list[str] = []

    def counted(cls, method):
        original = getattr(cls, method)

        def wrapper(self, *args, **kwargs):
            log.append(f"{cls.__name__}.{method}")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, wrapper)

    for cls in (tracer.Span, tracer.TraceEvent):
        counted(cls, "__init__")
    for cls, methods in (
        (metrics.Counter, ("__init__", "inc")),
        (metrics.Gauge, ("__init__", "set", "add")),
        (metrics.Histogram, ("__init__", "observe", "observe_many")),
    ):
        for method in methods:
            counted(cls, method)
    return log


def test_observability_disabled_mode_records_nothing(monkeypatch):
    """The observability overhead guard (DESIGN.md §9), as a count: with
    a disabled bundle attached, the Table I fast path builds no span, no
    trace event and no metric recorder, and takes no sample. The enabled
    run beside it shows the count sees that path's instrumentation."""
    from repro.obs import Observability

    log = _count_recording(monkeypatch)

    def run_study(obs):
        scenario = WanScenario.build(seed=7, cities=["frankfurt"], obs=obs)
        return scenario.run_protocol_study(probes_per_protocol=2000, fast=True)

    detached = run_study(None)
    assert log == []
    disabled = run_study(Observability.disabled())
    assert log == []
    for protocol in Protocol:
        assert disabled["frankfurt"][protocol].sent == (
            detached["frankfurt"][protocol].sent
        )
        assert disabled["frankfurt"][protocol].lost == (
            detached["frankfurt"][protocol].lost
        )

    run_study(Observability.enabled())
    for recorded in ("Span.__init__", "Counter.inc", "Histogram.observe_many"):
        assert recorded in log, recorded


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
