"""Sim-clock span tracer with parent/child spans and correlation ids.

Every timestamp is read from the *simulator clock*, never wall time, and
span ids are sequential integers — so two runs with the same seed emit
bit-identical traces (the determinism contract of DESIGN.md §9). The
trace doubles as a regression oracle: any divergence between two
same-seed runs shows up as a byte diff in the exported JSONL.

Spans come in three flavours:

- ``with tracer.span("name"):`` — lexically scoped work on the current
  call stack (a probe study, a CLI command);
- ``span = tracer.begin(...)`` / ``tracer.finish(span)`` — work that
  crosses simulator callbacks (a session's lifetime, one sandbox
  execution, a chaos fault's active window);
- ``tracer.span_at(name, start, end)`` — retroactive recording when the
  window is only known after the fact.

Correlation ids (``corr``) tie the layers together: a measurement
session, the application executions it purchased, and the chain
transactions that settled them all carry the same ``corr`` string, so
exporters and humans can follow one measurement across engine, VM,
marketplace, and ledger records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    """One timed unit of work on the simulator clock."""

    span_id: int
    parent_id: int
    name: str
    component: str
    start: float
    end: float | None = None
    corr: str = ""
    attributes: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


@dataclass
class TraceEvent:
    """A point-in-time record (state transition, drop, fault firing)."""

    name: str
    component: str
    time: float
    span_id: int
    corr: str = ""
    attributes: dict = field(default_factory=dict)


class _SpanContext:
    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc_info) -> None:
        self._tracer.finish(self._span)


class Tracer:
    """Collects spans and events against a simulated clock."""

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self.clock = clock or (lambda: 0.0)
        self.spans: list[Span] = []
        self.events: list[TraceEvent] = []
        self._stack: list[Span] = []
        self._next_id = 1

    # ------------------------------------------------------------- spans

    def begin(
        self,
        name: str,
        *,
        component: str = "app",
        corr: str = "",
        parent: Span | None = None,
        **attributes,
    ) -> Span:
        """Open a span; close it later with :meth:`finish`."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        span = Span(
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else 0,
            name=name,
            component=component,
            start=self.clock(),
            corr=corr or (parent.corr if parent is not None else ""),
            attributes=attributes,
        )
        self._next_id += 1
        return span

    def finish(self, span: Span, **attributes) -> Span:
        """Close ``span`` at the current simulated time and record it."""
        if span.end is None:
            span.end = self.clock()
            if attributes:
                span.attributes.update(attributes)
            self.spans.append(span)
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        return span

    def span(
        self,
        name: str,
        *,
        component: str = "app",
        corr: str = "",
        **attributes,
    ) -> _SpanContext:
        """Context manager: spans nested inside become children."""
        span = self.begin(name, component=component, corr=corr, **attributes)
        self._stack.append(span)
        return _SpanContext(self, span)

    def span_at(
        self,
        name: str,
        start: float,
        end: float,
        *,
        component: str = "app",
        corr: str = "",
        parent: Span | None = None,
        **attributes,
    ) -> Span:
        """Record a span whose window is already known (retroactive)."""
        span = Span(
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else 0,
            name=name,
            component=component,
            start=start,
            end=end,
            corr=corr,
            attributes=attributes,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    # ------------------------------------------------------------ events

    def event(
        self, name: str, *, component: str = "app", corr: str = "", **attributes
    ) -> TraceEvent:
        parent = self._stack[-1] if self._stack else None
        record = TraceEvent(
            name=name,
            component=component,
            time=self.clock(),
            span_id=parent.span_id if parent is not None else 0,
            corr=corr or (parent.corr if parent is not None else ""),
            attributes=attributes,
        )
        self.events.append(record)
        return record

    def recent_events(self, n: int = 10) -> list[TraceEvent]:
        """The last ``n`` recorded events (for failure diagnostics)."""
        return self.events[-n:]
