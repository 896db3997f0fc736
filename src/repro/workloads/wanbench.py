"""Continent-scale fault-localization campaigns over generated Internets.

The ``wanbench`` scenario family stresses every Internet-scale layer: a
seeded power-law Gao-Rexford topology (:mod:`repro.netsim.internet`)
carrying gravity-model background traffic, a batch of concurrent
localization *episodes* — random multi-hop policy paths, each with one
fault injected over the episode's private time window — and three
interchangeable measurement engines:

- ``event`` — the reference: deployed echo Debuglet pairs driven through
  the discrete-event loop by :class:`~repro.core.localization.FaultLocalizer`;
- ``fast`` — the vectorized path (:class:`~repro.core.fastprobe.FastSegmentProber`
  through :class:`~repro.perf.shardloop.CampaignEngine` with ``workers=0``);
- ``sharded`` — the same campaign engine fanned over a process pool by
  client region at epoch barriers.

All three feed the same strategy plans (:mod:`repro.core.locplans`) through
the same driver and build their rows with the same row builder, so
accuracy / probe-cost / convergence-time curves are comparable across
engines; ``fast`` and ``sharded`` are additionally **bit-identical** to
each other (digest equality), and the fast path's wall-clock advantage
over ``event`` is the headline ratio (``speedup_fast_over_event`` in the
summary; guarded at smoke scale by ``tests/workloads/test_wanbench.py``,
measured at ≥5k ASes in EXPERIMENTS.md).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field, replace

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_rng
from repro.core.localization import FaultJudge, FaultLocalizer
from repro.core.probing import ExecutorFleet, SegmentProber
from repro.netsim.engine import Simulator
from repro.netsim.faults import FaultInjector, InjectedFault
from repro.netsim.internet import (
    InternetConfig,
    InternetTopology,
    generate_internet,
)
from repro.netsim.network import Network
from repro.netsim.traffic import TrafficMatrix
from repro.pathaware.segments import PathSegment
from repro.perf.shardloop import CampaignEngine, CampaignResult, Episode

MODES = ("event", "fast", "sharded")

#: Strategies cycled through when ``strategy="mixed"``.
STRATEGY_MIX = ("binary", "linear", "exhaustive")

#: ASes with more interfaces than this never get interior faults: the
#: injector overlays every interior interface pair, which is quadratic
#: in degree (a hub AS would get thousands of overlay channels).
MAX_INTERIOR_DEGREE = 12


@dataclass(frozen=True)
class WanbenchConfig:
    """One campaign's knobs; everything downstream derives from these."""

    n_ases: int = 1000
    seed: int = 0
    episodes: int = 40
    regions: int = 5
    strategy: str = "mixed"  # one of STRATEGY_MIX, or "mixed" to cycle
    min_hops: int = 3
    probes: int = 10
    interval_us: int = 5_000
    probe_size: int = 64
    timeout: float = 2.0
    max_steps: int = 64
    workers: int = 0  # sharded mode: -1 = all cores
    traffic: bool = True
    demands_per_as: float = 1.0

    def __post_init__(self) -> None:
        if self.episodes < 1:
            raise ConfigurationError("episodes must be >= 1")
        if self.strategy != "mixed" and self.strategy not in STRATEGY_MIX:
            raise ConfigurationError(f"unknown strategy {self.strategy!r}")
        if self.min_hops < 1:
            raise ConfigurationError("min_hops must be >= 1")


@dataclass
class ContinentScenario:
    """A generated Internet with one campaign's episodes and faults."""

    config: WanbenchConfig
    topology: InternetTopology
    simulator: Simulator
    network: Network
    injector: FaultInjector
    episodes: list[Episode]
    faults: list[InjectedFault]
    window_length: float
    congested_channels: int = 0

    @property
    def slot(self) -> float:
        return self.window_length / self.config.max_steps


def campaign_judge() -> FaultJudge:
    """The WAN-calibrated fault judge, shared by all three engines.

    Continental paths have 100s-of-ms baselines, so the chain-scenario
    default ``rtt_factor=1.3`` would need a >100 ms delta to trip;
    injected congestion deltas are tens of ms. A small relative factor
    plus a 5 ms absolute slack (above background queueing at the traffic
    matrix's capped utilization) detects those without flagging benign
    long segments.
    """
    return FaultJudge(loss_threshold=0.05, rtt_slack_ms=5.0, rtt_factor=1.05)


def measurement_slot(config: WanbenchConfig) -> float:
    """Simulated seconds reserved per measurement (warmup+train+timeout)."""
    return 0.1 + config.probes * config.interval_us * 1e-6 + config.timeout


def build_continent(config: WanbenchConfig) -> ContinentScenario:
    """Generate the topology, apply traffic, sample and fault episodes.

    Pure function of ``config``: same config, byte-identical scenario —
    which is why serial and sharded runs built from the same config can
    be compared by digest even across processes.
    """
    topology = generate_internet(
        InternetConfig(
            n_ases=config.n_ases, seed=config.seed, regions=config.regions
        )
    )
    simulator = Simulator()
    network = Network(topology, simulator, seed=config.seed)
    congested = 0
    if config.traffic:
        matrix = TrafficMatrix(
            topology,
            seed=config.seed,
            demands_per_as=config.demands_per_as,
            # Background queueing stays well under the judge's 2 ms
            # slack; faults must be found *despite* traffic, not because
            # traffic is absent.
            utilization_scale=0.04,
            utilization_cap=0.6,
        )
        congested = matrix.apply()
    slot = measurement_slot(config)
    window = slot * config.max_steps
    episodes, faults, injector = _sample_episodes(topology, config, window)
    return ContinentScenario(
        config=config,
        topology=topology,
        simulator=simulator,
        network=network,
        injector=injector,
        episodes=episodes,
        faults=faults,
        window_length=window,
        congested_channels=congested,
    )


def _strategy_for(config: WanbenchConfig, index: int) -> str:
    if config.strategy == "mixed":
        return STRATEGY_MIX[index % len(STRATEGY_MIX)]
    return config.strategy


def _sample_episodes(
    topology: InternetTopology, config: WanbenchConfig, window: float
) -> tuple[list[Episode], list[InjectedFault], FaultInjector]:
    """Sample faulted policy paths, one per disjoint time window.

    Every fault is injected up front as a time-bounded overlay active
    over exactly its episode's window ``[e·W, (e+1)·W)`` — concurrent
    episodes cannot observe each other's faults, in any engine.
    """
    rng = derive_rng(config.seed, "wanbench", "episodes")
    injector = FaultInjector(topology)
    ases = sorted(topology.ases)
    episodes: list[Episode] = []
    faults: list[InjectedFault] = []
    attempts = 0
    max_attempts = config.episodes * 200
    while len(episodes) < config.episodes:
        attempts += 1
        if attempts > max_attempts:
            raise ConfigurationError(
                f"could not sample {config.episodes} episodes with >= "
                f"{config.min_hops} hops from {config.n_ases} ASes"
            )
        pair = rng.choice(len(ases), size=2, replace=False)
        src, dst = ases[int(pair[0])], ases[int(pair[1])]
        hops = topology.shortest_path(src, dst)
        if len(hops) - 1 < config.min_hops:
            continue
        path = PathSegment.from_hops(hops)
        index = len(episodes)
        start = index * window
        end = start + window
        fault = _inject_fault(injector, path, rng, start, end)
        episodes.append(
            Episode(
                index=index,
                path=path,
                strategy=_strategy_for(config, index),
                window_start=start,
                fault_kind=fault.kind.value,
                fault_location=fault.location,
            )
        )
        faults.append(fault)
    return episodes, faults, injector


def _inject_fault(
    injector: FaultInjector,
    path: PathSegment,
    rng,
    start: float,
    end: float,
) -> InjectedFault:
    """Inject one fault on a random on-path element, active over the window."""
    topology = injector.topology
    interiors = [
        k
        for k in range(1, path.length)
        if topology.degree(path.hops[k].asn) <= MAX_INTERIOR_DEGREE
    ]
    # 1-in-4 interior faults when a small-enough transit AS exists.
    use_interior = bool(interiors) and float(rng.random()) < 0.25
    kind = int(rng.integers(0, 3))
    if use_interior:
        asn = path.hops[interiors[int(rng.integers(0, len(interiors)))]].asn
        if kind == 1:
            return injector.as_internal_loss(
                asn, loss=0.25 + float(rng.random()) * 0.2, start=start, end=end
            )
        return injector.as_internal_delay(
            asn,
            extra_delay=0.02 + float(rng.random()) * 0.02,
            jitter=2e-3,
            start=start,
            end=end,
        )
    links = path.inter_domain_links()
    a, b = links[int(rng.integers(0, len(links)))]
    if kind == 0:
        return injector.link_delay(
            a,
            b,
            extra_delay=0.02 + float(rng.random()) * 0.02,
            jitter=2e-3,
            start=start,
            end=end,
        )
    if kind == 1:
        return injector.link_loss(
            a, b, loss=0.25 + float(rng.random()) * 0.2, start=start, end=end
        )
    return injector.link_blackhole(a, b, start=start, end=end)


# ------------------------------------------------------------------ running


@dataclass
class ModeOutcome:
    """One engine's run over a scenario, summarized for curves/benches."""

    mode: str
    wall_seconds: float
    episodes: int
    found: int
    measurements: int
    probes_sent: int
    mean_convergence: float
    digest: str
    workers: int = 0
    #: Batches the pool handed back to the serial path (0 on a healthy run).
    fallbacks: int = 0
    rows: list[dict] = field(default_factory=list)

    @property
    def accuracy(self) -> float:
        return self.found / self.episodes if self.episodes else 0.0

    def bench_row(self, config: WanbenchConfig) -> dict:
        return {
            "bench": "wanbench",
            "mode": self.mode,
            "ases": config.n_ases,
            "episodes": self.episodes,
            "strategy": config.strategy,
            "seed": config.seed,
            "workers": self.workers,
            "fallbacks": self.fallbacks,
            "seconds": round(self.wall_seconds, 4),
            "accuracy": round(self.accuracy, 4),
            "measurements": self.measurements,
            "probes": self.probes_sent,
            "mean_convergence_s": round(self.mean_convergence, 4),
            "digest": self.digest[:16],
        }


def _summarize(mode: str, result: CampaignResult, wall: float) -> ModeOutcome:
    rows = result.rows
    convergences = [row["convergence_time"] for row in rows if row["measurements"]]
    return ModeOutcome(
        mode=mode,
        wall_seconds=wall,
        episodes=len(rows),
        found=sum(1 for row in rows if row["found"]),
        measurements=result.measurements,
        probes_sent=result.probes_sent,
        mean_convergence=(
            sum(convergences) / len(convergences) if convergences else 0.0
        ),
        digest=result.digest(),
        workers=result.workers,
        fallbacks=result.fallbacks,
        rows=rows,
    )


def run_campaign(scenario: ContinentScenario, *, workers: int = 0) -> ModeOutcome:
    """Run the campaign on the fast path, serial or region-sharded."""
    config = scenario.config
    engine = CampaignEngine(
        scenario.network,
        scenario.episodes,
        judge=campaign_judge(),
        probes=config.probes,
        interval_us=config.interval_us,
        probe_size=config.probe_size,
        timeout=config.timeout,
        slot=scenario.slot,
        max_steps=config.max_steps,
        seed=config.seed,
        workers=workers,
    )
    started = time.perf_counter()
    result = engine.run()
    wall = time.perf_counter() - started
    return _summarize("sharded" if workers else "fast", result, wall)


def run_event_baseline(scenario: ContinentScenario) -> ModeOutcome:
    """Run the same episodes on the event-driven reference engine.

    Executors are deployed lazily at each episode's on-path vantages
    (deploying one per border router of a 5k-AS Internet would dominate
    the run), and the simulator clock is advanced to each episode's
    window so its fault overlay is active — the event engine measures in
    real simulated time, unlike the windowed fast path.
    """
    config = scenario.config
    network = scenario.network
    fleet = ExecutorFleet(network, seed=config.seed)
    prober = SegmentProber(
        fleet,
        probes=config.probes,
        interval_us=config.interval_us,
        probe_size=config.probe_size,
    )
    localizer = FaultLocalizer(prober, judge=campaign_judge())
    started = time.perf_counter()
    reports = []
    for episode in scenario.episodes:
        for hop in episode.path.hops:
            for interface in (hop.ingress, hop.egress):
                if interface is not None and not fleet.has(hop.asn, interface):
                    fleet.deploy(hop.asn, interface)
        if scenario.simulator.now < episode.window_start:
            scenario.simulator.run(until=episode.window_start)
        reports.append(localizer.localize(episode.path, strategy=episode.strategy))
    wall = time.perf_counter() - started
    result = CampaignResult.from_reports(scenario.episodes, reports)
    return _summarize("event", result, wall)


def run_wanbench(
    config: WanbenchConfig, *, modes: tuple[str, ...] = ("fast", "sharded")
) -> dict:
    """Run the requested engines over identical same-seed scenarios.

    Returns per-mode outcomes plus the two headline comparisons: the
    fast-over-event wall-clock speedup and the serial-vs-sharded digest
    match (with ``digest_match_vacuous`` when no pool worked for the
    sharded run). Each mode gets a freshly built scenario so no engine can
    leak state (sim clock, lazily deployed executors) into the next, and starts
    from a collected heap so none is billed for collecting the garbage the
    previous engine or its own scenario build left behind — a full
    collection is 0.1–0.2 s in a long-lived process, several times the
    smoke-scale fast campaign it could land in.
    """
    unknown = set(modes) - set(MODES)
    if unknown:
        raise ConfigurationError(f"unknown modes {sorted(unknown)}")
    outcomes: dict[str, ModeOutcome] = {}
    scenario = None
    for mode in modes:
        scenario = build_continent(config)
        gc.collect()
        if mode == "event":
            outcomes[mode] = run_event_baseline(scenario)
        elif mode == "fast":
            outcomes[mode] = run_campaign(scenario, workers=0)
        else:
            workers = config.workers if config.workers else -1
            outcomes[mode] = run_campaign(scenario, workers=workers)
    summary: dict = {
        "config": config,
        "congested_channels": scenario.congested_channels if scenario else 0,
        "outcomes": outcomes,
    }
    if "event" in outcomes and "fast" in outcomes:
        event, fast = outcomes["event"], outcomes["fast"]
        summary["speedup_fast_over_event"] = (
            event.wall_seconds / fast.wall_seconds if fast.wall_seconds else 0.0
        )
    if "fast" in outcomes and "sharded" in outcomes:
        summary["digest_match"] = (
            outcomes["fast"].digest == outcomes["sharded"].digest
        )
        # A sharded run no pool worked for (none could be spawned, or one
        # core) is the serial run again: the match says nothing.
        summary["digest_match_vacuous"] = outcomes["sharded"].workers == 0
    return summary


def small_config(**overrides) -> WanbenchConfig:
    """The CI-sized campaign: small topology, few episodes, still multi-region."""
    base = WanbenchConfig(
        n_ases=120, episodes=9, regions=3, demands_per_as=0.5, workers=2
    )
    return replace(base, **overrides) if overrides else base
