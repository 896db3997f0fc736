"""Detecting ISPs that game Debuglet measurements (§VI-E).

An AS wanting to hide its faults can prioritize packets to/from Debuglet
executors (simulated by ``DirectedChannel.priority_addresses``). The paper
argues this is detectable by cross-validation: measurements from diverse
vantage points — and comparisons against the performance end-host data
traffic actually experiences — expose the discrepancy. This module
implements that cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.netsim.conduit import DirectedChannel
from repro.netsim.packet import Address

#: Spread (max - min, ms) of per-vantage mean RTTs above which
#: :meth:`CrossValidator.consistency_across_vantages` calls the segment
#: suspicious.
VANTAGE_SPREAD_TOLERANCE_MS = 2.0


def enable_prioritization(
    channels: list[DirectedChannel], executor_addresses: list[Address]
) -> None:
    """Make ``channels`` prioritize traffic to/from the given executors —
    the attack an honest network never performs."""
    for channel in channels:
        channel.priority_addresses.update(executor_addresses)


def disable_prioritization(channels: list[DirectedChannel]) -> None:
    for channel in channels:
        channel.priority_addresses.clear()


@dataclass
class CrossValidationReport:
    """Verdict of one executor-vs-endhost comparison."""

    executor_mean_rtt_ms: float
    endhost_mean_rtt_ms: float
    executor_loss: float
    endhost_loss: float
    rtt_gap_ms: float
    loss_gap: float
    gaming_suspected: bool
    reasons: list[str] = field(default_factory=list)


@dataclass
class CrossValidator:
    """Compares Debuglet measurements with end-host experience.

    Gaming is suspected when executor-measured performance is *better*
    than end-host-measured performance on the same path by more than the
    tolerances — honest differential treatment cannot make executor
    traffic systematically faster than identical data traffic between
    the same ASes.
    """

    rtt_tolerance_ms: float = 1.5
    loss_tolerance: float = 0.01

    def compare(
        self,
        *,
        executor_rtts_ms: np.ndarray,
        executor_loss: float,
        endhost_rtts_ms: np.ndarray,
        endhost_loss: float,
    ) -> CrossValidationReport:
        executor_mean = float(np.mean(executor_rtts_ms)) if len(executor_rtts_ms) else float("nan")
        endhost_mean = float(np.mean(endhost_rtts_ms)) if len(endhost_rtts_ms) else float("nan")
        rtt_gap = endhost_mean - executor_mean
        loss_gap = endhost_loss - executor_loss
        reasons = []
        if rtt_gap > self.rtt_tolerance_ms:
            reasons.append(
                f"end-host RTT exceeds executor RTT by {rtt_gap:.2f} ms"
            )
        if loss_gap > self.loss_tolerance:
            reasons.append(
                f"end-host loss exceeds executor loss by {loss_gap:.3f}"
            )
        return CrossValidationReport(
            executor_mean_rtt_ms=executor_mean,
            endhost_mean_rtt_ms=endhost_mean,
            executor_loss=executor_loss,
            endhost_loss=endhost_loss,
            rtt_gap_ms=rtt_gap,
            loss_gap=loss_gap,
            gaming_suspected=bool(reasons),
            reasons=reasons,
        )

    def consistency_across_vantages(
        self, means_by_vantage_ms: dict[str, float]
    ) -> tuple[bool, float]:
        """Second check: prefix-targeted prioritization cannot cover every
        vantage point, so per-vantage means spread apart by more than
        :data:`VANTAGE_SPREAD_TOLERANCE_MS`. Returns (suspicious,
        spread_ms)."""
        values = list(means_by_vantage_ms.values())
        if len(values) < 2:
            return False, 0.0
        spread = max(values) - min(values)
        return spread > VANTAGE_SPREAD_TOLERANCE_MS, spread
