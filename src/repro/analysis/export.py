"""Exporting measurement data for external plotting: the series behind
the paper's tables and figures as CSV, so they can be re-plotted with any
tool."""

from __future__ import annotations

import csv
from pathlib import Path

from repro.netsim.packet import Protocol
from repro.netsim.trace import MeasurementTrace


def write_timeseries_csv(
    path: Path, traces: dict[Protocol, MeasurementTrace]
) -> Path:
    """One row per received probe: protocol, send time (s), RTT (ms)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["protocol", "send_time_s", "rtt_ms"])
        for protocol, trace in traces.items():
            times, rtts = trace.time_series()
            for t, rtt in zip(times, rtts):
                writer.writerow([protocol.name, f"{t:.3f}", f"{rtt:.4f}"])
    return path


def write_summary_csv(
    path: Path, rows: dict[str, dict[Protocol, MeasurementTrace]]
) -> Path:
    """One row per (location, protocol): the Table I summary values."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["location", "protocol", "sent", "received", "mean_ms", "std_ms",
             "loss_per_mille"]
        )
        for location, traces in rows.items():
            for protocol, trace in traces.items():
                writer.writerow(
                    [
                        location,
                        protocol.name,
                        trace.sent,
                        trace.received,
                        f"{trace.mean_rtt_ms():.4f}",
                        f"{trace.std_rtt_ms():.4f}",
                        f"{trace.loss_per_mille():.3f}",
                    ]
                )
    return path

