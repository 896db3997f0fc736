"""The eight workloads, each a closed loop of seeded iterations.

A workload is set up once — one untimed, tiny warm-up iteration, which
performs the imports (they are local to ``iteration``, so a workload pays
only for the modules it uses) and leaves lazily built tables and numpy
hot — after which :meth:`Workload.iteration` is called with
0, 1, 2, ... until the run's time is up. Iteration ``i`` of ``--seed s``
always gets the same generated inputs, so its deterministic outputs can
be compared between an untraced and a traced pass, and between checkouts.

Every iteration times two things through the program's public API — the
*primary* and the *secondary* operation of ``bench.spec.WORKLOADS`` — and
checks the outputs. A hard check raises :class:`CheckFailed`; a soft one
(an operation that completed with the wrong outcome) counts into
``failed``.
"""

from __future__ import annotations

import gc
import math
import random
from dataclasses import dataclass, field
from time import perf_counter


class CheckFailed(Exception):
    """A hard correctness check failed: the run's numbers mean nothing."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Iteration:
    """What one iteration measured and produced."""

    primary_per_s: float
    #: None when the primary operation failed and left nothing to check.
    secondary_per_s: float | None
    attempted: int
    failed: int
    #: Deterministic per (seed, index); equal with tracing on and off.
    outputs: tuple
    #: Extra counts for the result document (summed over iterations).
    notes: dict = field(default_factory=dict)
    #: Per-layer figures only this workload can take (median over iterations).
    extras: dict = field(default_factory=dict)


class Workload:
    """Base: seeding, sizes, and the warm-up convention."""

    name = ""

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        self.seed = seed
        if tiny:  # --selfcheck sizes
            self.shrink()

    def shrink(self) -> None:
        raise NotImplementedError

    def sizes(self) -> dict:
        """Final input sizes, recorded in every result document."""
        raise NotImplementedError

    def derive(self, index: int) -> int:
        """The input seed of iteration ``index``, in numpy's legacy range."""
        return (self.seed * 1_000_003 + index) % (2**31 - 1)

    def setup(self) -> None:
        """Everything before the timed region, reported as ``setup_s``: the
        imports and one iteration at ``--selfcheck`` size."""
        type(self)(self.seed, tiny=True).iteration(-1)

    def iteration(self, index: int) -> Iteration:
        raise NotImplementedError


# ------------------------------------------------------------------ market


class _Market(Workload):
    mode = ""
    sessions = 0

    def shrink(self) -> None:
        self.sessions = 12

    def sizes(self) -> dict:
        return {"sessions": self.sessions, "ledger_mode": self.mode,
                "executors": 64, "initiators": 64}

    def iteration(self, index: int) -> Iteration:
        from repro.workloads import loadgen

        config = loadgen.LoadgenConfig(
            sessions=self.sessions, ledger_mode=self.mode, seed=self.derive(index)
        )
        gc.collect()
        fleet = loadgen.build(config)
        started = perf_counter()
        report = loadgen.run(fleet)
        run_s = perf_counter() - started
        started = perf_counter()
        fleet.ledger.verify_chain()  # raises VerificationError on any break
        verify_s = perf_counter() - started

        outcome = report["deterministic"]
        require(outcome["launch_failures"] == 0, "loadgen launch failures")
        require(outcome["completed"] == self.sessions, "sessions did not all complete")
        escrow = sum(fleet.ledger.contract_balances.values())
        require(escrow == 0, f"{escrow} MIST left in escrow after drain")
        if self.mode == "serial":
            require(
                outcome["checkpoints"] == outcome["ledger_txs"],
                "serial ledger must seal one checkpoint per transaction",
            )
        certified = outcome["certified"]
        return Iteration(
            primary_per_s=certified / run_s,
            secondary_per_s=outcome["ledger_txs"] / verify_s,
            attempted=self.sessions,
            failed=self.sessions - certified,
            outputs=(outcome["state_digest"], outcome["ledger_txs"],
                     outcome["checkpoints"], certified),
        )


class MarketBatched(_Market):
    name = "market_batched"
    mode = "batched"
    sessions = 200


class MarketSerialVerify(_Market):
    name = "market_serial_verify"
    mode = "serial"
    sessions = 60


# ------------------------------------------------------- session_fullstack


class SessionFullstack(Workload):
    name = "session_fullstack"
    #: Sessions per testbed: each vantage agent offers 16 standing slots.
    block = 14
    n_ases = 4
    probes = 20
    testbed = None

    def shrink(self) -> None:
        self.block, self.probes = 2, 5

    def sizes(self) -> dict:
        return {"n_ases": self.n_ases, "probes_per_session": self.probes,
                "sessions_per_testbed": self.block}

    def _retire_testbed(self) -> None:
        """End-of-block checks on the testbed being dropped (untimed)."""
        testbed, self.testbed = self.testbed, None
        if testbed is not None:
            escrow = sum(testbed.ledger.contract_balances.values())
            require(escrow == 0, f"{escrow} MIST left in escrow")
            testbed.ledger.verify_chain()

    def iteration(self, index: int) -> Iteration:
        from repro.core import ChainVerifier, DebugletApplication, EchoMeasurement
        from repro.core.executor import executor_data_address
        from repro.core.localization import estimate_baseline_rtt
        from repro.core.marketplace import SessionState
        from repro.netsim import Protocol
        from repro.sandbox import echo_client, echo_server
        from repro.workloads import MarketplaceTestbed

        block, slot = divmod(index, self.block)
        if slot == 0 or self.testbed is None:
            self._retire_testbed()
            gc.collect()
            self.testbed = MarketplaceTestbed.build(
                n_ases=self.n_ases, seed=self.derive(block)
            )
            self.path = self.testbed.chain.registry.shortest(1, self.n_ases)
            self.verifier = ChainVerifier(self.testbed.ledger, self.testbed.market)
            self.baseline_ms = 1e3 * estimate_baseline_rtt(
                self.testbed.chain.topology, self.path
            )
        testbed, path = self.testbed, self.path
        rng = random.Random(self.derive(index))
        # Distinct ports and pacing give every session its own bytecode,
        # so admission cannot be served from the report or compile caches.
        port = 7000 + rng.randrange(50_000)
        interval_us = rng.choice((20_000, 30_000, 40_000, 50_000))

        started = perf_counter()
        server_app = DebugletApplication.from_stock(
            f"srv-{index}",
            echo_server(Protocol.UDP, max_echoes=self.probes, idle_timeout_us=3_000_000),
            listen_port=port,
            path=path.reversed().as_list(),
        )
        client_app = DebugletApplication.from_stock(
            f"cli-{index}",
            echo_client(
                Protocol.UDP, executor_data_address(self.n_ases, 1),
                count=self.probes, interval_us=interval_us, dst_port=port,
            ),
            path=path.as_list(),
        )
        session = testbed.initiator.request_measurement(
            client_app, server_app, (1, 2), (self.n_ases, 1), duration=30.0
        )
        testbed.initiator.run_until_done(session, testbed.chain.simulator)
        session_s = perf_counter() - started

        certified = session.state is SessionState.CERTIFIED
        verify_s = None
        outputs: tuple = (session.state.value, len(testbed.ledger.transactions))
        if certified:
            started = perf_counter()
            self.verifier.verify_result(session.client_application)
            verify_s = perf_counter() - started
            echo = EchoMeasurement.from_result(
                session.client_outcome.result, probes_sent=self.probes
            )
            mean_ms, loss = echo.mean_rtt_ms(), echo.loss_rate()
            require(loss < 0.5, f"echo loss {loss:.2f} on a healthy chain")
            require(
                abs(mean_ms - self.baseline_ms) <= 0.2 * self.baseline_ms,
                f"mean RTT {mean_ms:.3f} ms vs baseline {self.baseline_ms:.3f} ms",
            )
            outputs += (mean_ms, loss)
        if slot == self.block - 1:
            self._retire_testbed()
        return Iteration(
            primary_per_s=1.0 / session_s,
            secondary_per_s=None if verify_s is None else 1.0 / verify_s,
            attempted=1,
            failed=0 if certified else 1,
            outputs=outputs,
        )


# ---------------------------------------------------------------- wan_build


class WanBuild(Workload):
    name = "wan_build"
    n_ases = 1000
    episodes = 40
    queries = 100

    def shrink(self) -> None:
        self.n_ases, self.queries = 150, 20

    def sizes(self) -> dict:
        return {"n_ases": self.n_ases, "episodes": self.episodes,
                "path_queries": self.queries}

    def iteration(self, index: int) -> Iteration:
        from repro.workloads import wanbench

        config = wanbench.WanbenchConfig(
            n_ases=self.n_ases, episodes=self.episodes, seed=self.derive(index)
        )
        gc.collect()
        started = perf_counter()
        scenario = wanbench.build_continent(config)
        build_s = perf_counter() - started

        topology = scenario.topology
        require(len(scenario.episodes) == self.episodes, "episode count")
        require(scenario.congested_channels > 0, "traffic matrix congested nothing")
        for episode in scenario.episodes:
            require(
                topology.is_valley_free(episode.path.asns()),
                f"episode {episode.index} path is not valley-free",
            )

        # Policy-path queries to destinations whose route tree is not cached:
        # the build leaves 64 trees in the router's LRU, so drop them first.
        rng = random.Random(config.seed)
        ases = sorted(topology.ases)
        destinations = rng.sample(ases, self.queries)
        sources = [rng.choice(ases) for _ in destinations]
        topology.router.invalidate()
        hops = valleys = 0
        started = perf_counter()
        for src, dst in zip(sources, destinations):
            asns = topology.policy_segment_asns(src, dst)
            hops += len(asns)
            valleys += not topology.is_valley_free(asns)
        query_s = perf_counter() - started
        return Iteration(
            primary_per_s=self.n_ases / build_s,
            secondary_per_s=self.queries / query_s,
            attempted=self.episodes + self.queries,
            failed=valleys,
            outputs=(topology.digest(), scenario.congested_channels, hops),
        )


# ------------------------------------------------------------- wan_campaign


class WanCampaign(Workload):
    name = "wan_campaign"
    n_ases = 400
    episodes = 80
    workers = 2
    #: The sharded run (and its digest check) happens every this many
    #: iterations: its wall time swings by a third from run to run on two
    #: shared cores, so it is a per-layer figure, not a gated one.
    shard_every = 3
    #: Localization at 10 probes per cell misses a fraction of a percent of
    #: episodes by construction; more than this is a broken engine.
    max_missed_share = 0.05

    def shrink(self) -> None:
        self.n_ases, self.episodes = 150, 20

    def sizes(self) -> dict:
        return {"n_ases": self.n_ases, "episodes": self.episodes,
                "probes_per_cell": 10, "workers": self.workers,
                "sharded_every": self.shard_every}

    def iteration(self, index: int) -> Iteration:
        from repro.core.fastprobe import FastSegmentProber
        from repro.core.localization import FaultLocalizer
        from repro.workloads import wanbench

        config = wanbench.WanbenchConfig(
            n_ases=self.n_ases, episodes=self.episodes, seed=self.derive(index)
        )

        def fresh_continent():
            # As `repro wanbench` does per mode: every run starts with cold
            # trail caches and an unused simulator clock.
            gc.collect()
            return wanbench.build_continent(config)

        scenario = fresh_continent()
        started = perf_counter()
        serial = wanbench.run_campaign(scenario, workers=0)
        serial_s = perf_counter() - started
        require(serial.workers == 0, "serial run used a pool")

        # The same episodes through the other plan driver: one localization
        # at a time, FaultLocalizer over the vectorized prober.
        scenario = fresh_continent()
        started = perf_counter()
        localizer = FaultLocalizer(
            FastSegmentProber(
                scenario.network, probes=config.probes, interval_us=config.interval_us,
                probe_size=config.probe_size, timeout=config.timeout,
                seed=config.seed, label="wan",
            ),
            judge=wanbench.campaign_judge(),
        )
        found = measurements = 0
        for episode in scenario.episodes:
            if scenario.simulator.now < episode.window_start:
                scenario.simulator.run(until=episode.window_start)
            report = localizer.localize(episode.path, strategy=episode.strategy)
            found += report.found(episode.fault_location)
            measurements += report.measurements_used
        single_s = perf_counter() - started

        missed = (serial.episodes - serial.found) + (self.episodes - found)
        require(
            missed <= self.max_missed_share * 2 * self.episodes,
            f"{missed} of {2 * self.episodes} episodes not localized",
        )
        extras = {}
        if index % self.shard_every == 0:
            scenario = fresh_continent()
            started = perf_counter()
            sharded = wanbench.run_campaign(scenario, workers=self.workers)
            sharded_s = perf_counter() - started
            require(serial.digest == sharded.digest, "serial and sharded digests differ")
            require(sharded.workers == self.workers, f"pool ran {sharded.workers} workers")
            extras["perf.shardloop.sharded_over_serial"] = sharded_s / serial_s
        return Iteration(
            primary_per_s=serial.measurements / serial_s,
            secondary_per_s=measurements / single_s,
            attempted=2,  # campaigns; missed episodes are recorded, not failures
            failed=0,
            outputs=(serial.digest, serial.found, serial.measurements,
                     found, measurements),
            notes={"episodes": 2 * self.episodes, "episodes_missed": missed},
            extras=extras,
        )


# ---------------------------------------------------------- dataplane_event


class DataplaneEvent(Workload):
    name = "dataplane_event"
    n_ases = 6
    probes = 100
    strategies = ("binary", "linear", "exhaustive")

    def shrink(self) -> None:
        self.probes = 10

    def sizes(self) -> dict:
        return {"n_ases": self.n_ases, "probes_per_measurement": self.probes,
                "interval_us": 5000, "fault": "link_delay +20 ms"}

    def iteration(self, index: int) -> Iteration:
        from repro.core import ExecutorFleet, FaultLocalizer, SegmentProber
        from repro.core.audit import audit_record
        from repro.netsim import FaultInjector, InterfaceId
        from repro.workloads import build_chain

        strategy = self.strategies[index % len(self.strategies)]
        link = 1 + (index // len(self.strategies)) % (self.n_ases - 1)
        seed = self.derive(index)

        gc.collect()
        started = perf_counter()
        scenario = build_chain(self.n_ases, seed=seed)
        fleet = ExecutorFleet(scenario.network, seed=seed + 1)
        fleet.deploy_full()
        fault = FaultInjector(scenario.topology).link_delay(
            InterfaceId(link, 2), InterfaceId(link + 1, 1),
            extra_delay=20e-3, start=0.0, end=1e12,
        )
        prober = SegmentProber(fleet, probes=self.probes, interval_us=5000)
        report = FaultLocalizer(prober).localize(
            scenario.registry.shortest(1, self.n_ases), strategy=strategy
        )
        localize_s = perf_counter() - started

        measurements = [verdict.measurement for verdict in report.verdicts]
        for measurement in measurements:
            require(measurement.ok, f"{strategy} measurement did not complete")
        probes = sum(measurement.probes for measurement in measurements)

        started = perf_counter()
        for measurement in measurements:
            ok, findings, _ = audit_record(measurement.client_record)
            require(ok, f"honest transcript failed its audit: {findings}")
        audit_s = perf_counter() - started
        return Iteration(
            primary_per_s=probes / localize_s,
            secondary_per_s=probes / audit_s,
            attempted=1,
            failed=0 if report.found(fault.location) else 1,
            outputs=(
                strategy, link, tuple(str(s) for s in report.suspects),
                report.measurements_used,
                tuple(m.mean_rtt_ms() for m in measurements),
                sum(m.client_record.fuel_used for m in measurements),
            ),
        )


# -------------------------------------------------------------- table1_study


class Table1Study(Workload):
    name = "table1_study"
    event_probes = 400
    fast_probes = 10_000
    #: The issue's tolerance (1 % mean RTT, 1.5 points loss) is for 3000
    #: probes per cell; both gaps are sampling noise, so they scale with
    #: 1/sqrt(probes).
    rtt_tolerance_at_3000 = 0.01
    loss_tolerance_at_3000 = 0.015

    def shrink(self) -> None:
        self.event_probes, self.fast_probes = 150, 1000

    def sizes(self) -> dict:
        return {"cells": 24, "event_probes_per_cell": self.event_probes,
                "fast_probes_per_cell": self.fast_probes}

    def iteration(self, index: int) -> Iteration:
        from repro.workloads.wan import WanScenario

        seed = 7 + self.derive(index)

        def study(probes: int, fast: bool):
            scenario = WanScenario.build(seed=seed)
            started = perf_counter()
            results = scenario.run_protocol_study(probes_per_protocol=probes, fast=fast)
            return results, perf_counter() - started

        gc.collect()
        event, event_s = study(self.event_probes, fast=False)
        fast, fast_s = study(self.fast_probes, fast=True)
        twin, _ = study(self.event_probes, fast=True)  # untimed agreement check

        widen = math.sqrt(3000 / self.event_probes)
        cells = disagreeing = lost = 0
        rtt_sum = 0.0
        for city in sorted(event):
            for protocol in sorted(event[city], key=lambda p: p.name):
                cells += 1
                a, b, big = event[city][protocol], twin[city][protocol], fast[city][protocol]
                require(a.sent == self.event_probes, "event cell dropped probes unsent")
                require(b.sent == self.event_probes, "fast twin cell size")
                require(big.sent == self.fast_probes, "fast cell size")
                mean_a, mean_b = float(a.rtts().mean()), float(b.rtts().mean())
                disagreeing += (
                    abs(mean_a - mean_b) > self.rtt_tolerance_at_3000 * widen * mean_a
                    or abs(a.loss_rate() - b.loss_rate())
                    > self.loss_tolerance_at_3000 * widen
                )
                lost += a.lost + big.lost
                rtt_sum += mean_a
        return Iteration(
            primary_per_s=cells * self.event_probes / event_s,
            secondary_per_s=cells * self.fast_probes / fast_s,
            attempted=cells,
            failed=disagreeing,
            outputs=(cells, lost, rtt_sum),
        )


# ------------------------------------------------------------------ vm_tiers


class VmTiers(Workload):
    name = "vm_tiers"
    #: Multiples of vmbench's baseline iteration counts, sized so the two
    #: tiers take about the same wall time (the compiled tier is ~15x faster).
    reference_scale = 0.03
    compiled_scale = 0.5

    def shrink(self) -> None:
        self.reference_scale, self.compiled_scale = 0.002, 0.02

    def sizes(self) -> dict:
        return {"programs": ["tight_loop", "memory_heavy", "call_heavy", "host_heavy"],
                "reference_scale": self.reference_scale,
                "compiled_scale": self.compiled_scale}

    def iteration(self, index: int) -> Iteration:
        from repro.perf import vmbench
        from repro.sandbox.vm import VM

        def run(module, tier: str, iterations: int):
            vm = VM(module, fuel_limit=10**12, tier=tier)
            started = perf_counter()
            done, host_calls = vmbench.drive(vm, [iterations])
            seconds = perf_counter() - started
            return (done.value, vm.fuel_used, host_calls), seconds

        rng = random.Random(self.derive(index))
        log_rate = {"reference": 0.0, "compiled": 0.0}
        mismatches = 0
        outputs = []
        for name in vmbench.WORKLOAD_NAMES:
            module, baseline = vmbench.workload_module(name)
            jitter = rng.uniform(0.9, 1.1)
            small = max(1, int(baseline * self.reference_scale * jitter))
            large = max(1, int(baseline * self.compiled_scale * jitter))
            reference, reference_s = run(module, "reference", small)
            twin, _ = run(module, "compiled", small)  # same input, other tier
            compiled, compiled_s = run(module, "compiled", large)
            mismatches += reference != twin
            log_rate["reference"] += math.log(reference[1] / reference_s)
            log_rate["compiled"] += math.log(compiled[1] / compiled_s)
            outputs.append((name, reference, compiled))
        programs = len(outputs)
        return Iteration(
            primary_per_s=math.exp(log_rate["compiled"] / programs),
            secondary_per_s=math.exp(log_rate["reference"] / programs),
            attempted=programs,
            failed=mismatches,
            outputs=tuple(outputs),
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (MarketBatched, MarketSerialVerify, SessionFullstack, WanBuild,
                WanCampaign, DataplaneEvent, Table1Study, VmTiers)
}
