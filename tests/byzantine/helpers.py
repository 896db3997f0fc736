"""Scaffolding for the Byzantine adversarial battery (§11).

Builds staked marketplace testbeds with an on-chain auditor, runs echo
sessions between AS1 and AS3, and lets tests mount seeded attacks via
the chaos layer. The battery's central discipline: **run every session
to completion first, audit afterwards** — the first conviction bars the
slashed executor from publishing (``result_ready`` refuses), which
would wedge its still-pending sessions mid-test.
"""

from __future__ import annotations

from repro.chain.gas import sui_to_mist
from repro.chaos import ChaosInjector
from repro.core import DebugletApplication
from repro.core.audit import AuditConfig, Auditor
from repro.core.executor import executor_data_address
from repro.netsim import FaultInjector, Protocol
from repro.netsim.topology import InterfaceId
from repro.sandbox import echo_client, echo_server
from repro.workloads import MarketplaceTestbed

CLIENT_VANTAGE = (1, 2)
SERVER_VANTAGE = (3, 1)
#: The battery corrupts the client-side executor at AS1.
BYZANTINE_VANTAGE = CLIENT_VANTAGE

STAKE = sui_to_mist(5)
PORT = 7801


def build_audited_testbed(
    seed: int = 1, *, audit_rate: float = 1.0, obs=None, **kwargs
) -> tuple[MarketplaceTestbed, Auditor]:
    """A 3-AS staked testbed plus a registered on-chain auditor."""
    testbed = MarketplaceTestbed.build(
        n_ases=3,
        seed=seed,
        executor_stake=STAKE,
        obs=obs,
        initiator_funding=sui_to_mist(400),
        **kwargs,
    )
    auditor = testbed.make_auditor(
        config=AuditConfig(audit_rate=audit_rate, seed=seed), obs=obs
    )
    return testbed, auditor


def corrupt(testbed, strategy: str, *, seed: int = 1,
            vantage=BYZANTINE_VANTAGE, **params):
    """Attach a seeded Byzantine corruptor; returns it (``.attacks``)."""
    injector = ChaosInjector(testbed.chain.simulator, testbed.ledger, seed=seed)
    fault = injector.corrupt_executor(
        testbed.fleet.get(*vantage), strategy=strategy, start=0.0,
        seed=seed, **params,
    )
    return fault.corruptor


def add_forward_loss(testbed, loss: float = 0.25) -> None:
    """Real loss on AS1→AS2 so a fault-hiding liar has faults to hide."""
    FaultInjector(testbed.chain.topology).link_loss(
        InterfaceId(1, 2), InterfaceId(2, 1),
        loss=loss, start=0.0, end=float("inf"), directions="forward",
    )


def run_echo_session(
    testbed,
    client_v=CLIENT_VANTAGE,
    server_v=SERVER_VANTAGE,
    *,
    count: int = 8,
    port: int = PORT,
    timeout_us: int = 1_000_000,
):
    """Request, run to completion, and return one echo session."""
    path = testbed.chain.registry.shortest(client_v[0], server_v[0])
    server_app = DebugletApplication.from_stock(
        "srv",
        echo_server(Protocol.UDP, max_echoes=count, idle_timeout_us=3_000_000),
        listen_port=port,
        path=path.reversed().as_list(),
    )
    client_app = DebugletApplication.from_stock(
        "cli",
        echo_client(
            Protocol.UDP,
            executor_data_address(*server_v),
            count=count,
            interval_us=50_000,
            dst_port=port,
            timeout_us=timeout_us,
        ),
        path=path.as_list(),
    )
    session = testbed.initiator.request_measurement(
        client_app, server_app, client_v, server_v, duration=30.0,
    )
    testbed.initiator.run_until_done(
        session, testbed.chain.simulator, timeout=3600.0
    )
    return session


def run_support_sessions(testbed, *, count: int = 8) -> list:
    """Independent vantages that give cross-validation its quorum:
    the honest reverse path plus two sub-segment votes composed via
    the intermediate AS2."""
    return [
        run_echo_session(testbed, (3, 1), (1, 2), count=count),
        run_echo_session(testbed, (2, 1), (1, 2), count=count),
        run_echo_session(testbed, (2, 2), (3, 1), count=count),
    ]


def audit_sessions(testbed, auditor, sessions) -> list[dict]:
    """Feed completed sessions to the auditor, drain, cross-validate."""
    for session in sessions:
        auditor.on_session_complete(session)
    testbed.chain.simulator.run()
    auditor.finalize()
    return auditor.convictions


def convicted_vantages(convictions) -> set:
    return {tuple(c["vantage"]) for c in convictions}


def mechanisms(convictions) -> set:
    return {c["mechanism"] for c in convictions}


def market_key(vantage) -> str:
    return f"{vantage[0]}:{vantage[1]}"
