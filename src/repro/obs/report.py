"""Human-readable observability report: what ``--obs-report`` prints after
an instrumented CLI command (``table1``, ``quickstart``, ``chaos-demo``, ...).

Summarizes a recorded run: span counts and simulated-time totals per
span name, the busiest counters, and histogram digests. Everything is
derived from the deterministic trace/metrics state, so the report text
is itself reproducible for a given seed.
"""

from __future__ import annotations

from repro.obs.metrics import Counter, Gauge, Histogram


def _histogram_quantile(histogram: Histogram, q: float) -> float:
    """Approximate quantile: the upper bound of the covering bucket."""
    if histogram.total == 0:
        return 0.0
    target = q * histogram.total
    cumulative = 0
    for bound, count in zip(histogram.bounds, histogram.counts):
        cumulative += count
        if cumulative >= target:
            return bound
    return histogram.bounds[-1]


#: How many of the busiest counters the report lists.
TOP_COUNTERS = 12


def render_report(obs) -> str:
    """The ``--obs-report`` text: span rollup + metric digest."""
    lines: list[str] = []
    spans = list(obs.tracer.spans)
    events = list(obs.tracer.events)
    lines.append(
        f"observability report: {len(spans)} spans, {len(events)} events"
    )

    if spans:
        rollup: dict[tuple[str, str], tuple[int, float]] = {}
        for span in spans:
            key = (span.component, span.name)
            count, total = rollup.get(key, (0, 0.0))
            rollup[key] = (count + 1, total + span.duration)
        lines.append("")
        lines.append("spans (component/name: count, total simulated s):")
        for (component, name), (count, total) in sorted(rollup.items()):
            lines.append(f"  {component}/{name}: n={count} total={total:.6f}s")

    rows = obs.metrics.snapshot()
    if rows:
        lines.append("")
        lines.append("metrics:")
        counters = [r for r in rows if isinstance(r[3], Counter)]
        counters.sort(key=lambda r: (-r[3].value, r[1], r[2]))
        for kind, name, labels, metric in counters[:TOP_COUNTERS]:
            label_str = (
                "{" + ",".join(f"{k}={v}" for k, v in labels) + "}" if labels else ""
            )
            lines.append(f"  {name}{label_str} = {metric.value}")
        for kind, name, labels, metric in rows:
            if isinstance(metric, Gauge):
                label_str = (
                    "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"
                    if labels
                    else ""
                )
                lines.append(f"  {name}{label_str} = {metric.value:g}")
        for kind, name, labels, metric in rows:
            if isinstance(metric, Histogram) and metric.total:
                label_str = (
                    "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"
                    if labels
                    else ""
                )
                mean = metric.sum / metric.total
                p50 = _histogram_quantile(metric, 0.50)
                p99 = _histogram_quantile(metric, 0.99)
                lines.append(
                    f"  {name}{label_str}: n={metric.total} mean={mean:.6g} "
                    f"p50<={p50:.6g} p99<={p99:.6g}"
                )
    return "\n".join(lines)
