"""Deterministic observability: sim-clock tracing, metrics, exporters.

See DESIGN.md §9 for the span/metric taxonomy and the determinism
contract (same seed ⇒ byte-identical exports). Quick use::

    from repro.obs import Observability

    scenario = WanScenario.build(seed=7, obs=Observability.enabled())
    scenario.run_protocol_study(probes_per_protocol=100, fast=True)
    obs = scenario.simulator.obs
    print(render_report(obs))
    write_exports(obs, trace_out="trace.json")
"""

from repro.obs.export import (
    to_chrome_trace,
    to_jsonl,
    to_prometheus,
    write_exports,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
)
from repro.obs.observability import Observability
from repro.obs.report import render_report
from repro.obs.tracer import Span, TraceEvent, Tracer

__all__ = [
    "Observability",
    "Tracer",
    "Span",
    "TraceEvent",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "log_buckets",
    "DEFAULT_BUCKETS",
    "to_jsonl",
    "to_chrome_trace",
    "to_prometheus",
    "write_exports",
    "render_report",
]
