"""Multi-AS scenarios for fault localization and marketplace experiments.

Builders for the topologies the Debuglet-side experiments run on:

- :func:`build_chain` — N ASes in a line (the §VI-D ten-AS example);
- :func:`build_fig6` — the three-AS scenario of Fig 6, with executors
  A–D co-located with the border routers around AS #2;
- :class:`MarketplaceTestbed` — a chain topology with a ledger, the
  marketplace contract, one registered executor agent per border router,
  and a funded initiator: the full five-step §IV-A stack in one object.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.crypto import KeyPair
from repro.chain.gas import sui_to_mist
from repro.chain.ledger import Ledger, Wallet
from repro.contracts.debuglet_market import DebugletMarket
from repro.core.marketplace import ExecutorAgent, Initiator
from repro.core.offchain import OffChainCodeStore
from repro.core.probing import ExecutorFleet
from repro.netsim.conduit import Link
from repro.netsim.engine import Simulator
from repro.netsim.network import Network
from repro.netsim.topology import Topology
from repro.pathaware.discovery import PathRegistry


@dataclass
class ChainScenario:
    """A line topology with everything localization experiments need."""

    simulator: Simulator
    topology: Topology
    network: Network
    registry: PathRegistry
    n_ases: int


def build_chain(
    n_ases: int,
    *,
    link_delay: float = 5e-3,
    internal_delay: float = 0.5e-3,
    seed: int = 0,
) -> ChainScenario:
    """``n_ases`` ASes in a line: AS1 -2- AS2 -2- ... Interface 1 faces
    the previous AS, interface 2 the next."""
    simulator = Simulator()
    topology = Topology()
    for asn in range(1, n_ases + 1):
        topology.make_as(
            asn, internal_delay=internal_delay, internal_jitter=0.02e-3, seed=seed + asn
        )
    for asn in range(1, n_ases):
        topology.connect(
            asn,
            2,
            asn + 1,
            1,
            Link.symmetric(
                f"chain-{asn}-{asn + 1}", base_delay=link_delay, seed=seed + 100 + asn
            ),
        )
    network = Network(topology, simulator, seed=seed)
    return ChainScenario(
        simulator=simulator,
        topology=topology,
        network=network,
        registry=PathRegistry(topology),
        n_ases=n_ases,
    )


@dataclass
class Fig6Scenario:
    """The paper's Fig 6: AS#1 – AS#2 – AS#3 with executors A, B, C, D.

    A = AS1's egress toward AS2, B = AS2's ingress from AS1,
    C = AS2's egress toward AS3, D = AS3's ingress from AS2.
    """

    chain: ChainScenario
    fleet: ExecutorFleet

    A = (1, 2)
    B = (2, 1)
    C = (2, 2)
    D = (3, 1)

    @classmethod
    def build(cls, *, seed: int = 0, link_delay: float = 5e-3) -> "Fig6Scenario":
        chain = build_chain(3, link_delay=link_delay, seed=seed)
        fleet = ExecutorFleet(chain.network, seed=seed)
        fleet.deploy_full()
        return cls(chain=chain, fleet=fleet)


@dataclass
class MarketplaceTestbed:
    """A chain topology wired to a ledger-backed marketplace."""

    chain: ChainScenario
    ledger: Ledger
    market: DebugletMarket
    fleet: ExecutorFleet
    agents: dict[tuple[int, int], ExecutorAgent]
    initiator: Initiator
    code_store: OffChainCodeStore

    @classmethod
    def build(
        cls,
        n_ases: int = 3,
        *,
        seed: int = 0,
        link_delay: float = 5e-3,
        finality_latency: float = 0.4,
        slot_price: int = 50_000_000,
        initiator_funding: int | None = None,
        executor_stake: int = 0,
        obs=None,
    ) -> "MarketplaceTestbed":
        chain = build_chain(n_ases, link_delay=link_delay, seed=seed)
        simulator = chain.simulator
        if obs is not None:
            simulator.attach_observability(obs)
        ledger = Ledger(
            clock=lambda: simulator.now,
            scheduler=lambda delay, fn: simulator.schedule(delay, fn),
            finality_latency=finality_latency,
        )
        if obs is not None:
            ledger.obs = obs
        market = DebugletMarket()
        ledger.register_contract(market)

        code_store = OffChainCodeStore()
        fleet = ExecutorFleet(chain.network, seed=seed)
        fleet.deploy_full()
        agents: dict[tuple[int, int], ExecutorAgent] = {}
        for vantage in fleet.vantages():
            agent = ExecutorAgent(
                fleet.get(*vantage), ledger, code_store=code_store, seed=seed
            )
            if executor_stake > 0:
                ledger.faucet(agent.wallet.address, executor_stake)
            agent.register(stake=executor_stake)
            agent.offer_standing_slots(price=slot_price)
            agents[vantage] = agent

        initiator_keypair = KeyPair.deterministic(f"initiator-{seed}")
        funding = (
            sui_to_mist(100) if initiator_funding is None else initiator_funding
        )
        ledger.create_account(initiator_keypair, balance=funding, label="initiator")
        initiator = Initiator(
            ledger,
            Wallet(ledger, initiator_keypair),
            simulator=simulator,
            seed=seed,
        )
        return cls(
            chain=chain,
            ledger=ledger,
            market=market,
            fleet=fleet,
            agents=agents,
            initiator=initiator,
            code_store=code_store,
        )

    def make_fleet_manager(
        self,
        *,
        heartbeat_interval: float = 5.0,
        suspect_beats: int = 2,
        evict_beats: int = 4,
        capabilities=None,
        enroll: bool = True,
    ):
        """A :class:`~repro.core.fleetmgr.FleetManager` over this testbed.

        With ``enroll`` (the default) every existing agent joins the
        fleet immediately — they are already registered on-chain, so
        enrollment only adds lifecycle tracking and the admission guard.
        ``capabilities`` maps vantage → :class:`CapabilityRecord` for
        per-executor overrides. Call :meth:`FleetManager.stop` before
        draining the simulator to idle.
        """
        from repro.core.fleetmgr import FleetManager

        manager = FleetManager(
            self.chain.simulator,
            market=self.market,
            heartbeat_interval=heartbeat_interval,
            suspect_beats=suspect_beats,
            evict_beats=evict_beats,
        )
        if enroll:
            overrides = capabilities or {}
            for vantage in sorted(self.agents):
                manager.register(
                    self.agents[vantage],
                    capabilities=overrides.get(vantage),
                )
        return manager

    def make_auditor(self, *, config=None, funding: int | None = None, obs=None):
        """A funded, on-chain-registered :class:`~repro.core.audit.Auditor`.

        Wired to this testbed's ledger, market, simulator, and executor
        fleet (so replay audits can fetch interaction logs). Hand it to a
        :class:`~repro.core.fleet.FleetScheduler` or call its
        ``on_session_complete`` after ``run_until_done``.
        """
        from repro.core.audit import Auditor

        keypair = KeyPair.deterministic("auditor-0")
        if self.ledger.accounts.get(keypair.address) is None:
            self.ledger.create_account(
                keypair,
                balance=sui_to_mist(10) if funding is None else funding,
                label="auditor",
            )
        auditor = Auditor(
            self.ledger,
            self.market,
            Wallet(self.ledger, keypair),
            executors={v: self.fleet.get(*v) for v in self.fleet.vantages()},
            config=config,
            simulator=self.chain.simulator,
            obs=obs,
        )
        auditor.register()
        return auditor


def build_internet_like(
    *,
    n_tier2: int = 3,
    stubs_per_tier2: int = 2,
    seed: int = 0,
    tier1_delay: float = 8e-3,
    tier2_delay: float = 4e-3,
    stub_delay: float = 2e-3,
) -> ChainScenario:
    """A small Internet-like hierarchy for richer localization scenarios.

    Two tier-1 ASes (1 and 2) peer with each other; ``n_tier2`` tier-2
    ASes each connect to *both* tier-1s (multihoming, so multiple paths
    exist); each tier-2 serves ``stubs_per_tier2`` stub ASes. ASNs:
    tier-1 = 1, 2; tier-2 = 10, 11, ...; stubs = 100, 101, ...
    """
    simulator = Simulator()
    topology = Topology()
    topology.make_as(1, name="tier1-a", internal_delay=0.5e-3, seed=seed + 1)
    topology.make_as(2, name="tier1-b", internal_delay=0.5e-3, seed=seed + 2)
    topology.connect(
        1, 1, 2, 1,
        Link.symmetric("t1-peering", base_delay=tier1_delay, seed=seed + 10),
    )
    stub_asn = 100
    for index in range(n_tier2):
        t2 = 10 + index
        topology.make_as(t2, name=f"tier2-{index}", internal_delay=0.4e-3,
                         seed=seed + t2)
        topology.connect(
            t2, 1, 1, 10 + index,
            Link.symmetric(f"t2{index}-t1a", base_delay=tier2_delay,
                           seed=seed + 20 + index),
        )
        topology.connect(
            t2, 2, 2, 10 + index,
            Link.symmetric(f"t2{index}-t1b", base_delay=tier2_delay,
                           seed=seed + 30 + index),
        )
        for s in range(stubs_per_tier2):
            topology.make_as(stub_asn, name=f"stub-{stub_asn}",
                             internal_delay=0.3e-3, seed=seed + stub_asn)
            topology.connect(
                stub_asn, 1, t2, 10 + s,
                Link.symmetric(f"stub{stub_asn}", base_delay=stub_delay,
                               seed=seed + 200 + stub_asn),
            )
            stub_asn += 1
    network = Network(topology, simulator, seed=seed)
    return ChainScenario(
        simulator=simulator,
        topology=topology,
        network=network,
        registry=PathRegistry(topology),
        n_ases=len(topology.ases),
    )
