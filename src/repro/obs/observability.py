"""The observability bundle: one tracer + one metrics registry + a clock.

An :class:`Observability` object is attached to a
:class:`~repro.netsim.engine.Simulator` (and, for marketplace runs, the
ledger); every instrumented component reaches it through
``simulator.obs``. Two operating modes:

- **detached** (``simulator.obs is None``, the default) — zero cost: the
  hot loops run their uninstrumented branches and no instrumented site
  builds a span, an event or a recorder;
- **enabled** (:meth:`Observability.enabled`, attached) — full recording.

Because the clock is the simulator clock and every random draw is
seeded, two enabled runs with the same seed produce **bit-identical**
exports (DESIGN.md §9).
"""

from __future__ import annotations

from typing import Callable

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


class Observability:
    """Bundles a tracer and a metrics registry against one clock."""

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock = clock or (lambda: 0.0)
        self.tracer = Tracer(self._clock)
        self.metrics = MetricsRegistry()

    @classmethod
    def enabled(cls, clock: Callable[[], float] | None = None) -> "Observability":
        return cls(clock)

    @property
    def clock(self) -> Callable[[], float]:
        return self._clock

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the bundle (and its tracer) at a simulator's clock."""
        self._clock = clock
        self.tracer.clock = clock

    def now(self) -> float:
        return self._clock()
