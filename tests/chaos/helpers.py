"""Shared scaffolding for the chaos lifecycle tests.

Builds small marketplace testbeds (their echo sessions come from
``MarketplaceTestbed.request_echo``) and asserts the invariants every
schedule must uphold:

* **escrow conservation** — the tokens locked in the market contract are
  exactly the escrows of applications that were neither paid out
  (``results_map``) nor refunded; a token is never paid *and* refunded,
  and never silently lost;
* **terminal state** — no session is left stuck in a non-terminal state
  once the simulator has drained;
* **chain integrity** — ``verify_chain()`` passes, i.e. chaos never
  forged or corrupted ledger history.
"""

from __future__ import annotations

from repro.common.ids import ObjectId
from repro.core.marketplace import TERMINAL_STATES, MeasurementSession
from repro.workloads import MarketplaceTestbed


def build_testbed(seed: int = 0, **kwargs) -> MarketplaceTestbed:
    return MarketplaceTestbed.build(n_ases=3, seed=seed, **kwargs)


def escrow_outstanding(testbed: MarketplaceTestbed) -> int:
    """Total escrow of applications that are neither paid nor refunded."""
    state = testbed.market.state
    outstanding = 0
    for app_ids in state["applications_map"].values():
        for app_hex in app_ids:
            if app_hex in state["results_map"]:
                continue
            obj = testbed.ledger.objects.get(ObjectId.from_hex(app_hex))
            if obj.data.get("refunded"):
                continue
            outstanding += obj.data["tokens"]
    return outstanding


def stake_outstanding(testbed: MarketplaceTestbed) -> int:
    """Executor stake still escrowed (deposited, not withdrawn or slashed)."""
    return sum(testbed.market.state["stake_map"].values())


def assert_escrow_conserved(testbed: MarketplaceTestbed) -> None:
    locked = testbed.ledger.contract_balances.get("debuglet_market", 0)
    expected = escrow_outstanding(testbed) + stake_outstanding(testbed)
    assert locked == expected, (
        f"escrow conservation violated: contract holds {locked} MIST but "
        f"unserved applications plus live stake account for {expected}"
    )


def assert_terminal(session: MeasurementSession) -> None:
    assert session.state in TERMINAL_STATES, (
        f"session stuck in non-terminal state {session.state.value}; "
        f"history: {session.state_names}"
    )


def assert_invariants(testbed: MarketplaceTestbed, *sessions) -> None:
    """The full invariant bundle every chaos schedule must satisfy."""
    testbed.chain.simulator.run()  # drain stragglers (retries, refunds)
    for session in sessions:
        assert_terminal(session)
    assert_escrow_conserved(testbed)
    testbed.ledger.verify_chain()


def lifecycle_fingerprint(testbed: MarketplaceTestbed, session) -> tuple:
    """Everything that must be bit-identical across same-seed reruns."""
    return (
        session.state_names,
        [(t, s.value) for t, s in session.state_history],
        session.attempt,
        session.purchase_retries,
        sorted(session.refunds.values()),
        session.failure_reason,
        {role: (o.status, o.failure) for role, o in session.outcomes.items()},
        testbed.ledger.state_digest().hex(),
        len(testbed.ledger.events.history),
        [e.name for e in testbed.ledger.events.history],
    )
