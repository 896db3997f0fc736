"""Fault localization over Debuglet segment measurements.

Implements the paper's measurement-selection strategies (§IV-B, §VI-D):

- **exhaustive** — measure every consecutive inter-domain link plus the
  whole path, then attribute residual degradation to AS interiors by
  decomposition (the Fig 6 procedure generalized);
- **binary** — the §VI-D binary search: split the path at its midpoint,
  recurse into faulty halves; interior faults of the split AS are inferred
  when a faulty interval has two clean halves;
- **linear** — scan growing prefixes from the client side, then
  disambiguate link vs interior with one extra link measurement.

A :class:`FaultJudge` compares each measurement against a baseline
expectation (analytic from the topology, or calibrated), and the localizer
returns a report with suspects, the measurements spent, and time-to-locate
— the §VI-D cost/time trade-off.

The strategies themselves are the engine-neutral plans of
:mod:`repro.core.locplans`; :meth:`FaultLocalizer.run_episodes` is the one
driver that feeds them, for a single localization
(:meth:`FaultLocalizer.localize`, one episode at the prober's clock) and
for campaigns of thousands of concurrent episodes
(:class:`~repro.perf.shardloop.CampaignEngine`) alike, over either prober.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import ConfigurationError
from repro.core.locplans import STRATEGIES, SuspectSpec, make_plan
from repro.core.probing import (
    SANDBOX_OVERHEAD,
    SegmentMeasurement,
    SegmentProber,
    SegmentRequest,
    Vantage,
)
from repro.netsim.faults import FaultLocation
from repro.netsim.packet import Protocol
from repro.netsim.topology import Topology
from repro.pathaware.segments import PathSegment


def estimate_baseline_rtt(
    topology: Topology,
    segment: PathSegment,
    *,
    sandbox_overhead: float = SANDBOX_OVERHEAD,
) -> float:
    """Analytic no-fault RTT for a D2D measurement over ``segment``.

    Sums propagation both ways over the inter-domain links and the
    interior delays of transit ASes, plus the sandbox host-switch
    overhead. Queueing under benign load is not included — judges should
    allow slack on top of this. Every ``base_delay`` is read live, and the
    sum runs in one fixed order: the threshold it feeds decides ``faulty``.
    """
    total = sandbox_overhead
    hops = segment.hops
    link_channel = topology.link_channel
    for hop, nxt in zip(hops, hops[1:]):
        total += link_channel(hop.asn, hop.egress, nxt.asn, nxt.ingress).base_delay
        total += link_channel(nxt.asn, nxt.ingress, hop.asn, hop.egress).base_delay
    for hop in hops:
        if hop.ingress is not None and hop.egress is not None:
            # transit, both directions
            total += 2 * topology.autonomous_system(hop.asn).internal_delay
    return total


@dataclass
class SegmentVerdict:
    """One judged measurement."""

    measurement: SegmentMeasurement
    baseline_rtt_ms: float
    faulty: bool
    reasons: list[str] = field(default_factory=list)


@dataclass
class FaultJudge:
    """Decides whether a segment measurement indicates a fault.

    A segment is faulty when loss exceeds ``loss_threshold``, or the mean
    RTT exceeds baseline by both the absolute slack and the relative
    factor (both must trip, so short segments are not flagged by noise).
    """

    loss_threshold: float = 0.02
    rtt_slack_ms: float = 2.0
    rtt_factor: float = 1.3

    def judge(
        self, measurement: SegmentMeasurement, baseline_rtt_ms: float
    ) -> SegmentVerdict:
        reasons: list[str] = []
        if not measurement.ok:
            reasons.append("execution failed")
            return SegmentVerdict(measurement, baseline_rtt_ms, True, reasons)
        loss = measurement.loss_rate()
        if loss > self.loss_threshold:
            reasons.append(f"loss {loss:.3f} > {self.loss_threshold}")
        mean = measurement.mean_rtt_ms()
        threshold = max(
            baseline_rtt_ms + self.rtt_slack_ms, baseline_rtt_ms * self.rtt_factor
        )
        if not math.isnan(mean) and mean > threshold:
            reasons.append(
                f"rtt {mean:.3f} ms > threshold {threshold:.3f} ms "
                f"(baseline {baseline_rtt_ms:.3f})"
            )
        return SegmentVerdict(measurement, baseline_rtt_ms, bool(reasons), reasons)


@dataclass
class LocalizationReport:
    """What a localization run concluded and what it cost."""

    path: PathSegment
    strategy: str
    suspects: list[FaultLocation]
    verdicts: list[SegmentVerdict]
    started_at: float
    finished_at: float
    #: The plan's ``(i, j)`` request behind each verdict, in order.
    requests: list[tuple[int, int]] = field(default_factory=list)

    @property
    def measurements_used(self) -> int:
        return len(self.verdicts)

    @property
    def time_to_locate(self) -> float:
        return self.finished_at - self.started_at

    def found(self, location: FaultLocation) -> bool:
        """Did the report name ``location`` (link matched either way)?"""
        for suspect in self.suspects:
            if suspect == location:
                return True
            if (
                suspect.link is not None
                and location.link is not None
                and set(suspect.link) == set(location.link)
            ):
                return True
        return False


@dataclass(frozen=True)
class Episode:
    """One localization episode: a strategy over one path.

    ``window_start`` is the beginning of the episode's simulated-time
    interval. In a campaign it is private to the episode, and the fault
    (if any) should be injected active over exactly that window so
    concurrent episodes cannot observe each other's overlays.
    ``fault_kind`` / ``fault_location`` are the ground truth a campaign
    scores its report against; the driver never reads them.
    """

    index: int
    path: PathSegment
    strategy: str
    window_start: float
    hint: SuspectSpec | None = None
    fault_kind: str = ""
    fault_location: FaultLocation | None = None


def _client_vantage(path: PathSegment, index: int) -> Vantage:
    """Where the echo client of a measurement starting at hop ``index`` runs."""
    hop = path.hops[index]
    interface = hop.egress if hop.egress is not None else hop.ingress
    if interface is None:
        raise ConfigurationError(f"AS {hop.asn} has no on-path interface")
    return (hop.asn, interface)


def _server_vantage(path: PathSegment, index: int) -> Vantage:
    """Where the echo server of a measurement ending at hop ``index`` runs."""
    hop = path.hops[index]
    interface = hop.ingress if hop.ingress is not None else hop.egress
    if interface is None:
        raise ConfigurationError(f"AS {hop.asn} has no on-path interface")
    return (hop.asn, interface)


def _location_for(path: PathSegment, spec: SuspectSpec) -> FaultLocation:
    """Resolve a plan's suspect spec to the concrete on-path location."""
    kind, index = spec
    if kind == "link":
        egress, ingress = path.inter_domain_links()[index]
        return FaultLocation(link=(egress, ingress))
    return FaultLocation(asn=path.hops[index].asn)


class FaultLocalizer:
    """Runs strategies of segment measurements to localize path faults.

    The strategy decision logic lives in :mod:`repro.core.locplans` as
    engine-neutral measurement plans; :meth:`run_episodes` drives them
    against ``prober`` — the event-driven
    :class:`~repro.core.probing.SegmentProber` or the vectorized
    :class:`~repro.core.fastprobe.FastSegmentProber` — through its
    ``measure_batch``.
    """

    STRATEGIES = STRATEGIES

    def __init__(
        self,
        prober: SegmentProber,
        *,
        judge: FaultJudge | None = None,
        protocol: Protocol = Protocol.UDP,
        baseline: Callable[[PathSegment], float] | None = None,
    ) -> None:
        self.prober = prober
        self.judge = judge or FaultJudge()
        self.protocol = protocol
        topology = prober.network.topology
        self._baseline = baseline or (
            lambda segment: estimate_baseline_rtt(topology, segment)
        )

    def localize(
        self,
        path: PathSegment,
        *,
        strategy: str = "binary",
        hint: FaultLocation | None = None,
    ) -> LocalizationReport:
        """Run ``strategy`` over ``path`` and report suspects.

        The ``guided`` strategy (§VI-D: "educated initial guesses,
        historical data") checks ``hint`` first with the minimal bracketing
        measurements and falls back to binary search when the hint does
        not pan out.
        """
        if strategy not in self.STRATEGIES:
            raise ConfigurationError(f"unknown strategy {strategy!r}")
        if strategy == "guided" and hint is None:
            raise ConfigurationError("guided strategy requires a hint")
        if path.length < 1:
            raise ConfigurationError("path must cross at least one link")
        episode = Episode(
            index=0,
            path=path,
            strategy=strategy,
            window_start=self.prober.network.simulator.now,
            hint=hint_spec_for(path, hint) if hint is not None else None,
        )
        (report,) = self.run_episodes([episode])
        return report

    def run_episodes(
        self,
        episodes: list[Episode],
        *,
        slot: float | None = None,
        max_steps: int | None = None,
    ) -> list[LocalizationReport]:
        """The plan driver: run every episode's plan to completion.

        An epoch loop. Each epoch takes the next ``(i, j)`` request of
        every unfinished plan, hands them to the prober as one batch,
        judges the measurements and feeds the booleans back in episode
        order. Returns one report per episode, in input order.

        With ``slot=None`` requests are measured at the prober's clock
        with issue-order RNG streams (a stand-alone localization). With a
        ``slot``, step ``s`` of an episode starts at ``window_start +
        s·slot`` and draws from the ``(episode index, s)`` stream, so a
        measurement is a pure function of its request — what makes
        serial and pooled campaigns bit-identical — and a plan still
        asking after ``max_steps`` measurements has left its window and
        ends with no suspects.
        """
        reports = [
            LocalizationReport(
                path=episode.path,
                strategy=episode.strategy,
                suspects=[],
                verdicts=[],
                started_at=episode.window_start,
                finished_at=episode.window_start,
            )
            for episode in episodes
        ]
        plans = [
            make_plan(episode.strategy, episode.path.length, hint=episode.hint)
            for episode in episodes
        ]
        pending: list[tuple[int, int] | None] = [None] * len(episodes)

        def resume(k: int, faulty: bool | None) -> None:
            """Feed plan ``k`` a verdict (``None`` starts it)."""
            plan = plans[k]
            try:
                pending[k] = plan.send(faulty)
            except StopIteration as stop:
                pending[k] = None
                path = episodes[k].path
                reports[k].suspects = [
                    _location_for(path, spec) for spec in stop.value or []
                ]

        for k in range(len(episodes)):
            resume(k, None)
        active = [k for k, span in enumerate(pending) if span is not None]
        while active:
            batch: list[int] = []
            requests: list[SegmentRequest] = []
            for k in active:
                episode = episodes[k]
                step = len(reports[k].verdicts)
                if max_steps is not None and step >= max_steps:
                    continue  # out of its window: dropped, no suspects
                start, seed_labels = None, ()
                if slot is not None:
                    start = episode.window_start + step * slot
                    seed_labels = (episode.index, step)
                i, j = pending[k]
                path = episode.path
                asns = path.asns()
                batch.append(k)
                requests.append(
                    SegmentRequest(
                        _client_vantage(path, i),
                        _server_vantage(path, j),
                        path.subsegment(asns[i], asns[j]),
                        start,
                        seed_labels,
                    )
                )
            measurements = self.prober.measure_batch(requests, protocol=self.protocol)
            for k, request, measurement in zip(batch, requests, measurements):
                verdict = self.judge.judge(
                    measurement, self._baseline(request.segment) * 1e3
                )
                report = reports[k]
                report.requests.append(pending[k])
                report.verdicts.append(verdict)
                report.finished_at = measurement.finished_at
                resume(k, verdict.faulty)
            active = [k for k in batch if pending[k] is not None]
        return reports


def hint_spec_for(path: PathSegment, hint: FaultLocation) -> SuspectSpec | None:
    """Resolve a :class:`FaultLocation` hint to on-path plan indices.

    Returns ``("link", i)`` when the hint names the path's i-th crossed
    link (either direction), ``("interior", k)`` when it names the k-th
    on-path AS, or ``None`` when the hint is off-path (the guided plan
    then degenerates to binary search).
    """
    if hint.link is not None:
        for index, (a, b) in enumerate(path.inter_domain_links()):
            if {a, b} == set(hint.link):
                return ("link", index)
        return None
    if hint.asn is not None:
        asns = path.asns()
        if hint.asn in asns:
            return ("interior", asns.index(hint.asn))
    return None
