"""The 1-D per-cell kernel ``netsim/fastpath.py`` ran before cells were
simulated as a batch, kept as the reference.

Moved here verbatim from ``simulate_cell_arrays`` (and
``CongestionParams.utilization``) and adapted afterwards only in how it
*reads* a cell — a packed stage row plus optional :class:`StageExtras`
instead of a ``ChannelStage`` object. Every numpy call, every branch and
every RNG draw is the one the old kernel made, in its order, so
``tests/netsim/cell_golden.json`` (recorded with the old kernel at the
parent commit) holds for it unchanged. Never edit the arithmetic: the batch
kernel is tested byte for byte against this file.
"""

from __future__ import annotations

import math

import numpy as np

from repro.netsim import fastpath
from repro.netsim.fastpath import ProbeCell, StageExtras

DAY = 86400.0
NO_EXTRAS = StageExtras()


def _utilization(row, bursts, t: np.ndarray) -> np.ndarray:
    u = np.full(t.shape, row[fastpath.UTILIZATION])
    if row[fastpath.AMPLITUDE]:
        u += row[fastpath.AMPLITUDE] * np.sin(
            2.0 * math.pi * t / DAY + row[fastpath.PHASE]
        )
    for start, end, magnitude in bursts:
        u += magnitude * ((t >= start) & (t < end))
    return np.clip(u, 0.0, 0.99)


def reference_cell_arrays(cell: ProbeCell) -> tuple[np.ndarray, np.ndarray]:
    """``(send_times, rtts)`` of one cell, NaN rtt marking a lost probe."""
    rng = np.random.default_rng(cell.seed)
    n = cell.count
    send_times = cell.start + cell.interval * np.arange(n, dtype=np.float64)
    t = send_times.copy()  # arrival instant at the current stage
    delivered = np.ones(n, dtype=bool)
    extras_at = dict(cell.extras)

    for index, row in enumerate(cell.stages.tolist()):
        stage = extras_at.get(index, NO_EXTRAS)
        u = _utilization(row, stage.bursts, t)

        # Fault-overlay activity masks: which probes traverse this
        # channel inside each overlay's [start, end) window.
        overlay_masks = []
        if stage.overlays:
            overlay_masks = [
                (o, (t >= o.start) & (t < o.end)) for o in stage.overlays
            ]

        # Drop decision: protocol floor + congestion loss + overlays.
        drop_probability = np.full(n, row[fastpath.BASE_DROP])
        excess = u - row[fastpath.DROP_THRESHOLD]
        over = excess > 0.0
        if over.any():
            drop_probability = drop_probability + np.where(
                over,
                row[fastpath.DROP_SCALE] * excess * excess
                * row[fastpath.DROP_MULTIPLIER],
                0.0,
            )
        for overlay, mask in overlay_masks:
            if overlay.blackhole:
                delivered &= ~mask
            if overlay.extra_loss:
                drop_probability = drop_probability + overlay.extra_loss * mask
        if drop_probability.max() > 0.0:
            delivered &= rng.random(n) >= np.minimum(drop_probability, 1.0)

        # Route choice.
        if stage.routes is not None:
            cumulative, offsets, jitters = stage.routes
            indices = np.searchsorted(cumulative, rng.random(n), side="right")
            route_offset = offsets[indices]
            route_jitter = jitters[indices]
        else:
            # Folded into the row at extraction (the same two float adds).
            route_offset = row[fastpath.ROUTE_OFFSET]
            route_jitter = 0.0

        # Cross-traffic queueing (gamma with the class-appropriate mean).
        mean_queue = u / (1.0 - u) * row[fastpath.SERVICE_TIME]
        if row[fastpath.BACKLOG_FRACTION] != 1.0:  # the priority queue
            mean_queue = mean_queue * row[fastpath.BACKLOG_FRACTION]
        shape = row[fastpath.QUEUE_SHAPE]
        queue = rng.standard_gamma(shape, n) * (mean_queue / shape)

        # Per-packet jitter (folded normal), scale possibly per-route.
        jitter_scale = row[fastpath.JITTER_SCALE] + route_jitter
        if np.any(jitter_scale > 0.0):
            jitter = np.abs(rng.standard_normal(n)) * jitter_scale
        else:
            jitter = 0.0

        # Route churn offset in effect at the traversal instant.
        churn_offset = 0.0
        if stage.churn:
            churn_offset = np.zeros(n)
            for start, end, delta in stage.churn:
                churn_offset += delta * ((t >= start) & (t < end))

        # Overlay delay/jitter, masked to each overlay's active window.
        overlay_delay = 0.0
        if overlay_masks:
            overlay_delay = np.zeros(n)
            for overlay, mask in overlay_masks:
                if overlay.extra_delay:
                    overlay_delay += overlay.extra_delay * mask
                if overlay.extra_jitter:
                    overlay_delay += (
                        np.abs(rng.standard_normal(n)) * overlay.extra_jitter * mask
                    )

        t = t + (
            row[fastpath.FIXED_DELAY]  # base_delay + transmission
            + queue
            + route_offset
            + churn_offset
            + row[fastpath.EXTRA_DELAY]
            + overlay_delay
            + jitter
        )

    rtts = t - send_times
    rtts[~delivered | (rtts > cell.timeout)] = np.nan
    return send_times, rtts
