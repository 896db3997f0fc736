"""Region-sharded execution of localization campaigns.

A continent-scale campaign runs thousands of concurrent localization
*episodes* — each a strategy plan (:mod:`repro.core.locplans`) probing
one policy path. :class:`CampaignEngine` is the many-episode call of the
one plan driver (:meth:`repro.core.localization.FaultLocalizer.run_episodes`)
over the vectorized prober, with the work of each epoch partitioned across
processes by the **AS region of each request's client vantage** (the
deployment the paper implies: an operator's regional probing
infrastructure):

1. every active episode contributes its next measurement request;
2. the prober extracts the requests as picklable
   :class:`~repro.netsim.fastpath.ProbeCell` snapshots (packed stage rows
   plus sparse extras) — the boundary-crossing unit, a probe train about
   to traverse (possibly) many regions;
3. the epoch's cells go through the one batch kernel,
   :func:`~repro.netsim.fastpath.simulate_cell_batch`: all of them in one
   call inline (``workers=0``), or one call per client region in the
   workers of the :class:`~repro.perf.parallel.CellPool`, which return
   bare float arrays;
4. the driver judges the results and feeds them back into the plans **in
   episode order** — the epoch barrier — unblocking the next round.

Bit-identical determinism: each measurement's RNG stream is derived from
``(seed, episode, step)``, never from a shared clock or issue order, every
episode owns a disjoint simulated-time window, so injected fault overlays
(time-masked in the vectorized path) cannot leak across episodes, and the
kernel gives a cell the same arrays whatever batch it travels in. Serial
(``workers=0``) and sharded runs of the same campaign therefore produce
byte-identical result digests — pinned against golden constants,
property-tested, and re-checked in CI on every push.

A pool that cannot be spawned, or that breaks, degrades to the serial path
and says so, never crashing the campaign: :attr:`CampaignResult.fallbacks`
counts the batches rerun inline, and :attr:`CampaignResult.workers` is the
pool that did work — 0 when none completed a batch.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.core.fastprobe import FastSegmentProber
from repro.core.localization import (
    Episode,
    FaultJudge,
    FaultLocalizer,
    LocalizationReport,
)
from repro.netsim.faults import FaultLocation
from repro.netsim.packet import Protocol
from repro.perf import parallel


def _location_str(location: FaultLocation) -> str:
    if location.link is not None:
        a, b = location.link
        return f"link:{a.asn}#{a.interface}-{b.asn}#{b.interface}"
    return f"as:{location.asn}"


def episode_row(episode: Episode, report: LocalizationReport) -> dict:
    """The canonical result row of one episode, whichever engine ran it."""
    truth = episode.fault_location
    return {
        "episode": episode.index,
        "src": episode.path.src_asn,
        "dst": episode.path.dst_asn,
        "path_length": episode.path.length,
        "strategy": episode.strategy,
        "fault_kind": episode.fault_kind,
        "fault": _location_str(truth) if truth is not None else "",
        "found": truth is not None and report.found(truth),
        "measurements": report.measurements_used,
        "convergence_time": report.time_to_locate,
        "suspects": [_location_str(s) for s in report.suspects],
        "verdicts": [
            {
                "i": i,
                "j": j,
                "faulty": verdict.faulty,
                "mean_rtt_ms": verdict.measurement.mean_rtt_ms(),
                "loss": verdict.measurement.loss_rate(),
                "finished_at": verdict.measurement.finished_at,
            }
            for (i, j), verdict in zip(report.requests, report.verdicts)
        ],
    }


@dataclass
class CampaignResult:
    """Deterministic outcome of a campaign run."""

    rows: list[dict]
    epochs: int
    measurements: int
    probes_sent: int
    workers: int  # the pool that did work (0: everything ran inline)
    fallbacks: int  # batches a failed pool handed back to the serial path

    @classmethod
    def from_reports(
        cls,
        episodes: list[Episode],
        reports: list[LocalizationReport],
        *,
        workers: int = 0,
        fallbacks: int = 0,
    ) -> "CampaignResult":
        """Rows and totals for ``episodes`` and their reports, in order."""
        return cls(
            rows=[episode_row(e, r) for e, r in zip(episodes, reports)],
            epochs=max((r.measurements_used for r in reports), default=0),
            measurements=sum(r.measurements_used for r in reports),
            probes_sent=sum(
                v.measurement.probes for r in reports for v in r.verdicts
            ),
            workers=workers,
            fallbacks=fallbacks,
        )

    def digest(self) -> str:
        """Canonical fingerprint of the campaign outcome.

        Serializes the per-episode rows (verdict sequences included) as
        canonical JSON; ``repr``-based float serialization round-trips
        IEEE doubles exactly, so two runs digest equal iff their results
        are bit-identical.
        """
        payload = json.dumps(self.rows, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class CampaignEngine:
    """Runs a set of episodes serially or region-sharded.

    ``workers=0`` runs every measurement inline (the reference);
    ``workers=N`` (or ``-1`` to adapt to the machine) shards each epoch's
    batch by client region over a persistent process pool. Both paths feed
    the same plans in the same order with the same derived seeds, which is
    what the digest-equality guarantee rests on.
    """

    def __init__(
        self,
        network,
        episodes: list[Episode],
        *,
        judge: FaultJudge | None = None,
        protocol: Protocol = Protocol.UDP,
        probes: int = 10,
        interval_us: int = 5_000,
        probe_size: int = 64,
        timeout: float = 2.0,
        slot: float | None = None,
        max_steps: int = 64,
        seed: int = 0,
        workers: int = 0,
    ) -> None:
        self.network = network
        self.episodes = episodes
        self.max_steps = max_steps
        self.workers = workers
        self.prober = FastSegmentProber(
            network,
            probes=probes,
            interval_us=interval_us,
            probe_size=probe_size,
            timeout=timeout,
            seed=seed,
            label="wan",
        )
        self.localizer = FaultLocalizer(self.prober, judge=judge, protocol=protocol)
        # One measurement slot: server warmup + the train + timeout slack.
        self.slot = slot if slot is not None else (
            0.1 + probes * interval_us * 1e-6 + timeout
        )

    def window_length(self) -> float:
        """The per-episode simulated-time window implied by the config."""
        return self.slot * self.max_steps

    def run(self) -> CampaignResult:
        fallbacks_before = parallel.fallback_serial_total
        with parallel.CellPool(self.workers, len(self.episodes)) as pool:
            workers = pool.workers
            self.prober.pool = pool if workers else None
            try:
                reports = self.localizer.run_episodes(
                    self.episodes, slot=self.slot, max_steps=self.max_steps
                )
            finally:
                self.prober.pool = None
        return CampaignResult.from_reports(
            self.episodes,
            reports,
            # The processes that did the work: a pool that never completed
            # a batch did none of it.
            workers=workers if pool.pooled_batches else 0,
            fallbacks=parallel.fallback_serial_total - fallbacks_before,
        )


__all__ = ["CampaignEngine", "CampaignResult", "Episode"]
