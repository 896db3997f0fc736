"""Measurement traces: one probe train as two columns, and its statistics.

A :class:`MeasurementTrace` is what every probing tool in this repository
produces — the paper's Table I cells (RTT mean/std, loss per-mille) are
direct summaries of one trace each.

**Representation.** A trace is two float64 columns of equal length,
``(send_times, rtts)`` (:attr:`MeasurementTrace.columns`): probe ``i``
(sequence number ``i + 1``) left at ``send_times[i]`` and came back after
``rtts[i]`` seconds, ``NaN`` marking a lost probe. Every producer writes
that shape: the fast-path kernel returns it per cell and
:meth:`MeasurementTrace.from_arrays` keeps those arrays without copying;
the event-driven trains (:mod:`repro.netsim.traffic`) append a send
instant per probe and fill the reply's slot. Both columns are read-only
views once a trace holds them, so no reader of a trace can change it.

Every statistic is a column operation — no Python object per probe. The
received RTTs, :meth:`MeasurementTrace.rtts`, are ``rtts[~isnan(rtts)]``:
the values of the record-list trace this one replaced, in the same order,
so every mean, std and percentile is bit-identical to it (the replaced
class is kept as ``tests/netsim/trace_reference.py``, the oracle of
``tests/properties/test_prop_trace_columns.py``).
:attr:`MeasurementTrace.records` is a per-probe view built on access, for
readers that want one :class:`ProbeRecord` per probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netsim.packet import Protocol


@dataclass(frozen=True)
class ProbeRecord:
    """One probe's fate. ``rtt`` is ``None`` when the probe was lost."""

    seq: int
    send_time: float
    rtt: float | None = None

    @property
    def lost(self) -> bool:
        return self.rtt is None


def _frozen_column(values) -> np.ndarray:
    """``values`` as a read-only float64 view (a copy only if not float64)."""
    column = np.asarray(values, dtype=np.float64).view()
    column.flags.writeable = False
    return column


class MeasurementTrace:
    """One (pair, protocol) probe train: ``send_times`` and ``rtts`` columns
    (``NaN`` = lost), probe ``i`` having sequence number ``i + 1``."""

    __slots__ = ("protocol", "label", "_send_times", "_rtts")

    def __init__(
        self,
        protocol: Protocol,
        send_times: np.ndarray,
        rtts: np.ndarray,
        *,
        label: str = "",
    ) -> None:
        self.protocol = protocol
        self.label = label
        self._send_times = _frozen_column(send_times)
        self._rtts = _frozen_column(rtts)
        if self._send_times.ndim != 1 or self._send_times.shape != self._rtts.shape:
            raise ValueError(
                "a trace needs two 1-D columns of equal length, got shapes "
                f"{self._send_times.shape} and {self._rtts.shape}"
            )

    @classmethod
    def from_arrays(
        cls,
        protocol: Protocol,
        send_times: np.ndarray,
        rtts: np.ndarray,
        *,
        label: str = "",
    ) -> "MeasurementTrace":
        """Wrap vectorized results (``NaN`` rtt = lost) without copying them.

        Probes are numbered 1..N in array order, matching what a
        :class:`~repro.netsim.traffic.ProbeTrain` would have produced for
        the same schedule.
        """
        return cls(protocol, send_times, rtts, label=label)

    @property
    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """``(send_times, rtts)``, read-only; a lost probe's rtt is ``NaN``."""
        return self._send_times, self._rtts

    @property
    def records(self) -> list[ProbeRecord]:
        """One :class:`ProbeRecord` per probe, built on access."""
        return [
            ProbeRecord(seq, send, None if lost else rtt)
            for seq, (send, rtt, lost) in enumerate(
                zip(
                    self._send_times.tolist(),
                    self._rtts.tolist(),
                    np.isnan(self._rtts).tolist(),
                ),
                start=1,
            )
        ]

    def __len__(self) -> int:
        return len(self._send_times)

    def __repr__(self) -> str:
        return (
            f"MeasurementTrace({self.protocol.name}, label={self.label!r}, "
            f"sent={self.sent}, lost={self.lost})"
        )

    @property
    def sent(self) -> int:
        return len(self._send_times)

    @property
    def lost(self) -> int:
        return int(np.count_nonzero(np.isnan(self._rtts)))

    @property
    def received(self) -> int:
        return self.sent - self.lost

    def loss_rate(self) -> float:
        """Fraction of probes lost, in [0, 1]."""
        if not self.sent:
            return 0.0
        return self.lost / self.sent

    def loss_per_mille(self) -> float:
        """Loss in the paper's per-thousandths (‰) unit."""
        return self.loss_rate() * 1000.0

    def rtts(self) -> np.ndarray:
        """Round-trip times of received probes, in seconds, in send order."""
        return self._rtts[~np.isnan(self._rtts)]

    def rtts_ms(self) -> np.ndarray:
        return self.rtts() * 1e3

    def mean_rtt_ms(self) -> float:
        values = self.rtts_ms()
        return float(values.mean()) if values.size else float("nan")

    def std_rtt_ms(self) -> float:
        values = self.rtts_ms()
        return float(values.std(ddof=1)) if values.size > 1 else 0.0

    def percentile_ms(self, q: float) -> float:
        values = self.rtts_ms()
        return float(np.percentile(values, q)) if values.size else float("nan")

    def time_series(self) -> tuple[np.ndarray, np.ndarray]:
        """(send_time, rtt_ms) arrays for received probes — Fig 1–3 data."""
        received = ~np.isnan(self._rtts)
        return self._send_times[received], self._rtts[received] * 1e3

    def summary(self) -> dict:
        """The Table I cell for this trace."""
        return {
            "protocol": self.protocol.name,
            "label": self.label,
            "sent": self.sent,
            "received": self.received,
            "mean_ms": self.mean_rtt_ms(),
            "std_ms": self.std_rtt_ms(),
            "loss_per_mille": self.loss_per_mille(),
        }
