"""Metrics registry: counters, gauges, and log-bucket histograms.

Recorders are plain objects with one hot method each (``inc``, ``set``,
``observe``); components fetch them once at wiring time and keep the
reference, so recording is a single method call with no registry lookup.
When observability is disabled, :class:`NullMetricsRegistry` hands out
shared no-op recorders — the disabled mode costs one no-op call per
instrumented site, which the overhead guard in
``tests/workloads/test_perf_smoke.py`` bounds at <5% on the Table I fast
path. A site that records a whole array (a trace's RTTs) makes one
``Histogram.observe_many`` call, so disabled it costs one call per array,
not one per value.

Histograms use **fixed logarithmic buckets** so that two runs with the
same seed fill exactly the same buckets: bucket boundaries are computed
once from ``(start, factor, count)`` and never adapt to the data. That
determinism is what lets a metrics snapshot double as a regression
oracle (see DESIGN.md §9).
"""

from __future__ import annotations

import bisect

import numpy as np


def log_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """``count`` bucket upper bounds: start, start*factor, ... (fixed)."""
    if start <= 0 or factor <= 1.0 or count < 1:
        raise ValueError("log_buckets needs start>0, factor>1, count>=1")
    bounds = []
    edge = start
    for _ in range(count):
        bounds.append(edge)
        edge *= factor
    return tuple(bounds)


#: Default bounds, sized for the quantities we track: seconds of simulated
#: time (1 µs .. ~1 h), fuel units, and queue depths all fit in 2x steps.
DEFAULT_BUCKETS = log_buckets(1e-6, 2.0, 32)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A value that can go up and down (queue depth, escrow locked)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """Fixed-log-bucket histogram (RTT, fuel, queue depth).

    ``counts[i]`` counts observations with ``value <= bounds[i]``
    (cumulative style is applied at export time); ``counts[-1]`` is the
    overflow bucket (``+Inf``).
    """

    __slots__ = ("name", "labels", "bounds", "counts", "total", "sum")

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...],
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    def observe_many(self, values: np.ndarray) -> None:
        """:meth:`observe` every value, in order, as array operations.

        Buckets come from ``searchsorted(side="left")`` — ``bisect_left``,
        a NaN included — and ``sum`` is accumulated in observation order (a
        running sum, not a pairwise one), so the histogram and its export
        are bit-identical to the per-value loop.
        """
        values = np.asarray(values, dtype=np.float64)
        if not values.size:
            return
        indices = np.searchsorted(self.bounds, values, side="left")
        indices[np.isnan(values)] = 0
        binned = np.bincount(indices, minlength=len(self.counts))
        for index in np.flatnonzero(binned).tolist():
            self.counts[index] += int(binned[index])
        self.total += int(values.size)
        self.sum = float(np.cumsum(np.concatenate(([self.sum], values)))[-1])


class _NullRecorder:
    """No-op twin of every recorder; shared singleton, near-zero cost."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass


NULL_RECORDER = _NullRecorder()


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Families of metrics keyed by name + sorted label set."""

    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple], Counter | Gauge | Histogram] = {}
        self._types: dict[str, str] = {}

    def _get(self, kind: str, cls, name: str, labels: dict, *args):
        declared = self._types.setdefault(name, kind)
        if declared != kind:
            raise ValueError(
                f"metric {name!r} already registered as {declared}, not {kind}"
            )
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], *args)
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get("counter", Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get("gauge", Gauge, name, labels)

    def histogram(
        self,
        name: str,
        *,
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get("histogram", Histogram, name, labels, bounds)

    def snapshot(self) -> list[tuple[str, str, tuple, object]]:
        """Deterministically ordered ``(kind, name, labels, metric)`` rows."""
        rows = []
        for (name, labels), metric in sorted(self._metrics.items()):
            rows.append((self._types[name], name, labels, metric))
        return rows


class NullMetricsRegistry:
    """Disabled mode: every request returns the shared no-op recorder."""

    enabled = False

    def counter(self, name: str, **labels: str) -> _NullRecorder:
        return NULL_RECORDER

    def gauge(self, name: str, **labels: str) -> _NullRecorder:
        return NULL_RECORDER

    def histogram(self, name: str, **labels: str) -> _NullRecorder:
        return NULL_RECORDER

    def snapshot(self) -> list:
        return []
