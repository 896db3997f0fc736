"""Unit tests for the sim-clock span tracer (repro.obs.tracer)."""

import pytest

from repro.obs.tracer import Tracer

pytestmark = pytest.mark.obs


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock)


class TestSpans:
    def test_begin_finish_records_window(self, tracer, clock):
        span = tracer.begin("work", component="engine")
        clock.t = 2.5
        tracer.finish(span, outcome="ok")
        assert span.start == 0.0
        assert span.end == 2.5
        assert span.duration == 2.5
        assert span.attributes["outcome"] == "ok"
        assert tracer.spans == [span]

    def test_span_ids_are_sequential(self, tracer):
        a = tracer.begin("a")
        b = tracer.begin("b")
        assert (a.span_id, b.span_id) == (1, 2)

    def test_context_manager_nesting_sets_parent(self, tracer, clock):
        with tracer.span("outer", corr="s:1") as outer:
            clock.t = 1.0
            with tracer.span("inner") as inner:
                clock.t = 2.0
        assert inner.parent_id == outer.span_id
        assert inner.corr == "s:1"  # inherited from parent
        assert outer.end == 2.0
        # Inner finishes first, so it is recorded first.
        assert [s.name for s in tracer.spans] == ["inner", "outer"]

    def test_finish_is_idempotent(self, tracer):
        span = tracer.begin("once")
        tracer.finish(span)
        tracer.finish(span)
        assert len(tracer.spans) == 1

    def test_span_at_records_retroactive_window(self, tracer):
        span = tracer.span_at("fault", 3.0, 9.0, component="chaos", kind="crash")
        assert (span.start, span.end) == (3.0, 9.0)
        assert span in tracer.spans


class TestEvents:
    def test_event_attaches_to_enclosing_span(self, tracer, clock):
        with tracer.span("outer", corr="s:2") as outer:
            clock.t = 0.75
            event = tracer.event("state", to_state="running")
        assert event.span_id == outer.span_id
        assert event.corr == "s:2"
        assert event.time == 0.75
        assert event.attributes == {"to_state": "running"}

    def test_event_outside_span_has_no_parent(self, tracer):
        event = tracer.event("drop", component="netsim")
        assert event.span_id == 0

    def test_recent_events_returns_tail(self, tracer):
        for index in range(15):
            tracer.event(f"e{index}")
        tail = tracer.recent_events(5)
        assert [e.name for e in tail] == ["e10", "e11", "e12", "e13", "e14"]

