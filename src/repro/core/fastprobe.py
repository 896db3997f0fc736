"""Vectorized segment probing: the localization fast path.

:class:`FastSegmentProber` simulates each D2D echo measurement as one
vectorized :class:`~repro.netsim.fastpath.ProbeCell` instead of deploying
paired echo Debuglets and pumping the event loop. It implements the prober
contract stated in :mod:`repro.core.probing` — ``network`` plus
``measure_batch(requests, protocol=)`` returning measurements with ``ok``
/ ``loss_rate()`` / ``mean_rtt_ms()`` — so
``FaultLocalizer(FastSegmentProber(network))`` runs any strategy on the
fast path: same driver, same plans, same judge, same report shape. A batch
is built on the calling process and simulated as one call of the batch
kernel (:func:`~repro.netsim.fastpath.simulate_cell_batch`) inline, or on
the :class:`~repro.perf.parallel.CellPool` a campaign engine hands the
prober for the duration of its run.

Contract: statistically equivalent to the event-driven reference on
measurements the event engine completes, verdict-level where its client
overruns its manifest (DESIGN.md, "Localization core"; property-tested per
strategy in ``tests/properties/test_prop_fastprobe.py``) — never
bit-identical. Fault overlays are vectorized as time-window masks; the
sandbox host-switch overhead the VM pair adds to every RTT is applied as
the constant ``estimate_baseline_rtt``'s analytic model adds
(:data:`~repro.core.probing.SANDBOX_OVERHEAD`, stated once).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netsim.fastpath import (
    ProbeCell,
    cell_seed,
    extract_segment_cell,
    simulate_cell_batch,
)
from repro.core.probing import SANDBOX_OVERHEAD, SegmentRequest, Vantage
from repro.netsim.network import Network
from repro.netsim.packet import Protocol
from repro.pathaware.segments import PathSegment


@dataclass
class FastSegmentMeasurement:
    """Vectorized counterpart of :class:`~repro.core.probing.SegmentMeasurement`.

    Carries the raw per-probe arrays instead of VM execution records;
    exposes the same judgment surface. ``mean_ms`` / ``loss`` are the
    statistics of ``rtts``, taken once where the measurement is built.
    """

    client: Vantage
    server: Vantage
    protocol: Protocol
    segment: PathSegment
    probes: int
    send_times: np.ndarray
    rtts: np.ndarray  # seconds, NaN = lost, sandbox overhead included
    mean_ms: float  # over delivered probes; NaN when none was
    loss: float
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def ok(self) -> bool:
        return True  # the vectorized path has no VM execution to fail

    def mean_rtt_ms(self) -> float:
        return self.mean_ms

    def loss_rate(self) -> float:
        return self.loss


class FastSegmentProber:
    """Runs segment measurements as vectorized probe cells.

    Each measurement derives an independent RNG stream from
    ``(seed, label, sequence-number-or-explicit-labels)`` via the
    standard ``derive_seed`` scheme, so results are a pure function of
    the request — the property the sharded campaign engine relies on for
    bit-identical serial/parallel execution (it passes explicit
    ``seed_labels`` to decouple streams from issue order).

    ``pool`` is ``None`` (simulate inline) or an open cell pool exposing
    ``run(cells, group_keys)``; with one, each batch travels as one task
    per client-vantage region (``topology.region_of``, region 0 when the
    topology has none).
    """

    def __init__(
        self,
        network: Network,
        *,
        probes: int = 40,
        interval_us: int = 20_000,
        probe_size: int = 64,
        timeout: float = 5.0,
        seed: int = 0,
        label: str = "fastprobe",
        sandbox_overhead: float = SANDBOX_OVERHEAD,
    ) -> None:
        self.network = network
        self.probes = probes
        self.interval_us = interval_us
        self.probe_size = probe_size
        self.timeout = timeout
        self.seed = seed
        self.label = label
        self.sandbox_overhead = sandbox_overhead
        self.measurements_run = 0
        self.pool = None

    # ------------------------------------------------------- cell plumbing

    def build_cell(
        self,
        client: Vantage,
        server: Vantage,
        segment: PathSegment,
        *,
        protocol: Protocol = Protocol.UDP,
        start: float | None = None,
        seed_labels: tuple = (),
    ) -> ProbeCell:
        """Extract the measurement as a picklable cell (not yet simulated).

        ``start=None`` places the train at the simulator clock;
        ``seed_labels=()`` derives its stream from the measurement counter.
        """
        sim = self.network.simulator
        # Server-side warmup offset, as in SegmentProber.measure().
        start_at = (sim.now if start is None else start) + 0.05
        labels = seed_labels or (self.measurements_run,)
        return extract_segment_cell(
            self.network.topology,
            segment,
            protocol,
            client_vantage=client,
            server_vantage=server,
            count=self.probes,
            interval=self.interval_us * 1e-6,
            start=start_at,
            size=self.probe_size,
            timeout=self.timeout,
            seed=cell_seed(self.seed, self.label, *labels),
            label=f"{self.label}/{client[0]}-{server[0]}",
        )

    def measurement_from_arrays(
        self,
        cell: ProbeCell,
        client: Vantage,
        server: Vantage,
        segment: PathSegment,
        send_times: np.ndarray,
        rtts: np.ndarray,
    ) -> FastSegmentMeasurement:
        """Wrap simulated arrays as a judged-measurement object
        (:meth:`measurements_from_arrays` of one)."""
        (measurement,) = self.measurements_from_arrays(
            [cell], [SegmentRequest(client, server, segment)], [(send_times, rtts)]
        )
        return measurement

    def measurements_from_arrays(
        self,
        cells: list[ProbeCell],
        requests: list[SegmentRequest],
        arrays: list[tuple[np.ndarray, np.ndarray]],
    ) -> list[FastSegmentMeasurement]:
        """One measurement per cell of a batch (equal probe counts), its
        statistics taken along the rows of one ``(cell, probe)`` array —
        per row the IEEE operations a 1-D array would see."""
        if not cells:
            return []
        count = cells[0].count
        # NaN + c stays NaN.
        rtts = np.array([rtts for _, rtts in arrays]) + self.sandbox_overhead
        lost = np.isnan(rtts)
        losses = lost.sum(axis=1).tolist()
        latest = np.fmax.reduce(rtts, axis=1).tolist()
        # nanmean's arithmetic exactly: lost entries summed as 0.0.
        totals = np.where(lost, 0.0, rtts).sum(axis=1).tolist()
        measurements = []
        for index, (cell, request) in enumerate(zip(cells, requests)):
            delivered = count - losses[index]
            finished = float(cell.start + (count - 1) * cell.interval)
            if delivered:
                finished += latest[index]
                mean_ms = totals[index] / delivered * 1e3
            else:
                finished += cell.timeout
                mean_ms = float("nan")
            measurements.append(
                FastSegmentMeasurement(
                    client=request.client,
                    server=request.server,
                    protocol=cell.protocol,
                    segment=request.segment,
                    probes=count,
                    send_times=arrays[index][0],
                    rtts=rtts[index],
                    mean_ms=mean_ms,
                    loss=losses[index] / count,
                    started_at=float(cell.start),
                    finished_at=finished,
                )
            )
        return measurements

    # ---------------------------------------------------------- measuring

    def measure_batch(
        self,
        requests: list[SegmentRequest],
        *,
        protocol: Protocol = Protocol.UDP,
    ) -> list[FastSegmentMeasurement]:
        """Simulate ``requests`` as one batch of cells, results in order.

        A request without a ``start`` is placed at the simulator clock,
        and the clock is advanced past it afterwards — mirroring the
        event-driven prober's synchronous pumping, so ``time_to_locate``
        accounting stays comparable between engines. A request with an
        explicit ``start`` lives in its own window and leaves the clock
        alone.
        """
        cells = []
        for request in requests:
            cells.append(
                self.build_cell(
                    request.client,
                    request.server,
                    request.segment,
                    protocol=protocol,
                    start=request.start,
                    seed_labels=request.seed_labels,
                )
            )
            self.measurements_run += 1
        if self.pool is None:
            arrays = simulate_cell_batch(cells)
        else:
            region_of = getattr(self.network.topology, "region_of", {})
            arrays = list(self.pool.run(
                cells, [region_of.get(request.client[0], 0) for request in requests]
            ))
        measurements = self.measurements_from_arrays(cells, requests, arrays)
        sim = self.network.simulator
        for request, measurement in zip(requests, measurements):
            if request.start is None and measurement.finished_at > sim.now:
                sim.run(until=measurement.finished_at)
        return measurements

    def measure_sync(
        self,
        client: Vantage,
        server: Vantage,
        segment: PathSegment,
        *,
        protocol: Protocol = Protocol.UDP,
    ) -> FastSegmentMeasurement:
        """Simulate one measurement at the simulator clock."""
        (measurement,) = self.measure_batch(
            [SegmentRequest(client, server, segment)], protocol=protocol
        )
        return measurement
