"""Multi-AS scenarios for fault localization and marketplace experiments.

Builders for the topologies the Debuglet-side experiments run on:

- :func:`build_chain` — N ASes in a line (the §VI-D ten-AS example);
- :func:`deployed_chain` — the same line with an executor at every
  border router;
- :class:`Fig6Scenario` — the three-AS scenario of Fig 6, with executors
  A–D co-located with the border routers around AS #2;
- :class:`MarketplaceTestbed` — a chain topology with a ledger, the
  marketplace contract, one registered executor agent per border router,
  and a funded initiator: the full five-step §IV-A stack in one object.
  Its :meth:`~MarketplaceTestbed.echo_pair` is the stock ``cli``/``srv``
  UDP echo pair every demo and most marketplace tests measure with.
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

#: The echo pair's default vantages: AS1's egress toward AS2 and AS3's
#: ingress from AS2.
CLIENT_VANTAGE = (1, 2)
SERVER_VANTAGE = (3, 1)
#: The echo pair's probe spacing and the server's idle timeout.
ECHO_INTERVAL_US = 50_000
ECHO_IDLE_TIMEOUT_US = 3_000_000
#: Inter-AS link delay and intra-AS delay (s) on a :func:`build_chain` line.
CHAIN_LINK_DELAY = 5e-3
CHAIN_INTERNAL_DELAY = 0.5e-3
#: What :meth:`MarketplaceTestbed.make_auditor` funds a new auditor with.
AUDITOR_FUNDING = sui_to_mist(10)


@dataclass
class ChainScenario:
    """A line topology with everything localization experiments need."""

    simulator: Simulator
    topology: Topology
    network: Network
    registry: PathRegistry
    n_ases: int


def build_chain(n_ases: int, *, seed: int = 0) -> ChainScenario:
    """``n_ases`` ASes in a line: AS1 -2- AS2 -2- ... Interface 1 faces
    the previous AS, interface 2 the next."""
    simulator = Simulator()
    topology = Topology()
    for asn in range(1, n_ases + 1):
        topology.make_as(
            asn, internal_delay=CHAIN_INTERNAL_DELAY, internal_jitter=0.02e-3,
            seed=seed + asn,
        )
    for asn in range(1, n_ases):
        topology.connect(
            asn,
            2,
            asn + 1,
            1,
            Link.symmetric(
                f"chain-{asn}-{asn + 1}",
                base_delay=CHAIN_LINK_DELAY,
                seed=seed + 100 + asn,
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


def deployed_chain(
    n_ases: int, *, seed: int, fleet_seed: int
) -> tuple[ChainScenario, ExecutorFleet]:
    """:func:`build_chain` plus an executor at every border router."""
    chain = build_chain(n_ases, seed=seed)
    fleet = ExecutorFleet(chain.network, seed=fleet_seed)
    fleet.deploy_full()
    return chain, fleet


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
    def build(cls, *, seed: int = 0) -> "Fig6Scenario":
        chain, fleet = deployed_chain(3, seed=seed, fleet_seed=seed)
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
        finality_latency: float = 0.4,
        initiator_funding: int | None = None,
        executor_stake: int = 0,
        obs=None,
    ) -> "MarketplaceTestbed":
        chain = build_chain(n_ases, seed=seed)
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
            agent.offer_standing_slots()
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

    def echo_pair(
        self,
        client: tuple[int, int] = CLIENT_VANTAGE,
        server: tuple[int, int] = SERVER_VANTAGE,
        *,
        count: int = 10,
        port: int = 7801,
        timeout_us: int | None = None,
    ):
        """The stock UDP echo pair ``(cli, srv)`` from ``client`` to ``server``.

        Both applications are pinned to the shortest path between the two
        ASes (the server to its reverse). ``timeout_us`` is the client's
        per-probe reply wait; ``None`` keeps the program's default.
        """
        from repro.core.application import DebugletApplication
        from repro.core.executor import executor_data_address
        from repro.netsim.packet import Protocol
        from repro.sandbox.programs import DEFAULT_TIMEOUT_US, echo_client, echo_server

        path = self.chain.registry.shortest(client[0], server[0])
        server_app = DebugletApplication.from_stock(
            "srv",
            echo_server(
                Protocol.UDP, max_echoes=count, idle_timeout_us=ECHO_IDLE_TIMEOUT_US
            ),
            listen_port=port,
            path=path.reversed().as_list(),
        )
        client_app = DebugletApplication.from_stock(
            "cli",
            echo_client(
                Protocol.UDP,
                executor_data_address(*server),
                count=count,
                interval_us=ECHO_INTERVAL_US,
                dst_port=port,
                timeout_us=DEFAULT_TIMEOUT_US if timeout_us is None else timeout_us,
            ),
            path=path.as_list(),
        )
        return client_app, server_app

    def request_echo(
        self,
        client: tuple[int, int] = CLIENT_VANTAGE,
        server: tuple[int, int] = SERVER_VANTAGE,
        *,
        count: int = 10,
        port: int = 7801,
        timeout_us: int | None = None,
        **request,
    ):
        """Buy a 30 s window for :meth:`echo_pair`; returns the session.

        ``request`` goes to :meth:`Initiator.request_measurement` (deadline
        margin, attempts, off-chain code store, ...).
        """
        client_app, server_app = self.echo_pair(
            client, server, count=count, port=port, timeout_us=timeout_us
        )
        return self.initiator.request_measurement(
            client_app, server_app, client, server, duration=30.0, **request
        )

    def make_fleet_manager(
        self, *, heartbeat_interval: float = 5.0, enroll: bool = True
    ):
        """A :class:`~repro.core.fleetmgr.FleetManager` over this testbed.

        With ``enroll`` (the default) every existing agent joins the
        fleet immediately under its derived capability record — they are
        already registered on-chain, so enrollment only adds lifecycle
        tracking and the admission guard. Call :meth:`FleetManager.stop`
        before draining the simulator to idle.
        """
        from repro.core.fleetmgr import FleetManager

        manager = FleetManager(
            self.chain.simulator,
            market=self.market,
            heartbeat_interval=heartbeat_interval,
        )
        if enroll:
            for vantage in sorted(self.agents):
                manager.register(self.agents[vantage])
        return manager

    def make_auditor(self, *, config=None, obs=None):
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
                balance=AUDITOR_FUNDING,
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

