"""One record per probe of a ``MeasurementTrace``, for tests.

A trace is two columns, ``(send_times, rtts)`` with ``NaN`` marking a lost
probe (``repro.netsim.trace``). Tests that compare two runs probe by probe
read them through :func:`probe_records`, where a lost probe's ``rtt`` is
``None``: two lost probes compare equal and a lost probe never equals a
received one, which ``NaN == NaN`` being False would otherwise hide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ProbeRecord:
    """One probe's fate. ``rtt`` is ``None`` when the probe was lost."""

    seq: int
    send_time: float
    rtt: float | None = None

    @property
    def lost(self) -> bool:
        return self.rtt is None


def probe_records(trace) -> list[ProbeRecord]:
    """One :class:`ProbeRecord` per probe of ``trace``, numbered from 1."""
    send_times, rtts = trace.columns
    return [
        ProbeRecord(seq, send, None if lost else rtt)
        for seq, (send, rtt, lost) in enumerate(
            zip(send_times.tolist(), rtts.tolist(), np.isnan(rtts).tolist()),
            start=1,
        )
    ]
