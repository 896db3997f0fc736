"""Cheap guards that the fast path and the observability layer stay cheap.

Both are deterministic counts, not seconds: the fast path runs no
simulator event, and with observability off (no bundle attached) nothing
is recorded.
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
    observability off — no bundle attached, the detached mode — the Table I
    fast path builds no span, no trace event and no metric recorder, and
    takes no sample. The enabled run beside it measures the same traces and
    shows the count sees that path's instrumentation. A study that records
    into a bundle of its own when none is attached (``_record_study``
    called detached) fails the first count."""
    from repro.obs import Observability

    log = _count_recording(monkeypatch)

    def run_study(obs):
        scenario = WanScenario.build(seed=7, cities=["frankfurt"], obs=obs)
        return scenario.run_protocol_study(probes_per_protocol=2000, fast=True)

    detached = run_study(None)
    assert log == []

    enabled = run_study(Observability.enabled())
    for recorded in (
        "Span.__init__", "Counter.__init__", "Counter.inc",
        "Histogram.__init__", "Histogram.observe_many",
    ):
        assert recorded in log, recorded
    for protocol in Protocol:
        assert enabled["frankfurt"][protocol].sent == (
            detached["frankfurt"][protocol].sent
        )
        assert enabled["frankfurt"][protocol].lost == (
            detached["frankfurt"][protocol].lost
        )


def test_engine_disabled_mode_skips_instrumented_loop(monkeypatch):
    """With observability off (detached) the engine runs its uninstrumented
    loop; an attached bundle switches it to the recording twin."""
    from repro.netsim.engine import Simulator
    from repro.obs import Observability

    entered = []
    original = Simulator._run_instrumented

    def counting(self, queue, until):
        entered.append(self)
        return original(self, queue, until)

    monkeypatch.setattr(Simulator, "_run_instrumented", counting)

    detached = Simulator()
    detached.schedule(0.1, lambda: None)
    detached.run()
    assert detached._instrumented is False
    assert detached.events_processed == 1 and entered == []

    enabled = Simulator()
    enabled.attach_observability(Observability.enabled())
    enabled.schedule(0.1, lambda: None)
    enabled.run()
    assert enabled._instrumented is True
    assert enabled.events_processed == 1 and entered == [enabled]


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
