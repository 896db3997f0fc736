"""Chaos compatibility sweep: PR 3 fault classes against the fleet
scheduler (DESIGN.md §10).

The :class:`FleetScheduler` replaces per-session ``run_until_done``
pumping, and the loadgen testbed replaces real executors with synthetic
ones — but neither may change failure semantics. Every fault class from
the chaos suite is injected into a small loadgen fleet and the invariant
bundle must still hold:

* every launched session reaches a terminal state (the fleet drains);
* escrow conservation — the market contract holds exactly the escrow of
  applications that were neither paid out nor refunded;
* pay-xor-refund — no application's escrow is both paid and refunded;
* token conservation — genesis grants equal circulating balances plus
  escrow plus burned gas plus the storage fund;
* chain integrity — ``verify_chain()`` passes on the batched history.
"""

import pytest

from repro.chaos import ChaosInjector
from repro.common.ids import ObjectId
from repro.workloads import LoadgenConfig, build_loadgen, run_loadgen

pytestmark = pytest.mark.chaos


def _small_config(**overrides) -> LoadgenConfig:
    defaults = dict(
        sessions=24,
        executors=4,
        initiators=4,
        ledger_mode="batched",
        ramp=2.0,
        seed=3,
    )
    defaults.update(overrides)
    return LoadgenConfig(**defaults)


def _genesis_total(ledger) -> int:
    return sum(amount for _, amount in ledger._genesis_grants)


def _circulating_total(ledger) -> int:
    return (
        sum(account.balance for account in ledger.accounts.values())
        + sum(ledger.contract_balances.values())
        + ledger.gas_burned
        + ledger.storage_fund
    )


def _assert_invariants(fleet, completed) -> None:
    config = fleet.config
    assert len(completed) + len(fleet.scheduler.launch_failures) == (
        config.sessions
    )
    for session in completed:
        assert session.done, (
            f"non-terminal session handed to the scheduler: "
            f"{session.state.value}; history: {session.state_names}"
        )

    state = fleet.market.state
    outstanding = 0
    for app_ids in state["applications_map"].values():
        for app_hex in app_ids:
            obj = fleet.ledger.objects.get(ObjectId.from_hex(app_hex))
            paid = app_hex in state["results_map"]
            refunded = bool(obj.data.get("refunded"))
            assert not (paid and refunded), (
                f"application {app_hex} escrow both paid and refunded"
            )
            if not paid and not refunded:
                outstanding += obj.data["tokens"]
    locked = fleet.ledger.contract_balances.get("debuglet_market", 0)
    assert locked == outstanding, (
        f"escrow conservation violated: contract holds {locked} MIST, "
        f"unserved applications account for {outstanding}"
    )
    assert _circulating_total(fleet.ledger) == _genesis_total(fleet.ledger)
    fleet.ledger.verify_chain()


def test_fleet_drains_clean_without_faults():
    fleet = build_loadgen(_small_config())
    completed = run_loadgen(fleet)["deterministic"]
    assert completed["certified"] == fleet.config.sessions
    _assert_invariants(fleet, fleet.scheduler.completed)


@pytest.mark.parametrize(
    "fault", ["crash", "expiry", "drop", "delay", "txfail", "finality"]
)
def test_fault_classes_preserve_invariants(fault):
    fleet = build_loadgen(_small_config())
    config = fleet.config
    injector = ChaosInjector(fleet.simulator, fleet.ledger, seed=7)
    victim = fleet.agents[1]  # one server-side agent
    windows_open = config.windows_open

    if fault == "crash":
        # Dies as the windows open, mid-fleet; back before the deadlines,
        # so late sessions on this vantage still certify.
        injector.crash_executor(
            victim.executor, at=windows_open + 0.1,
            restart_at=windows_open + 3.0,
        )
    elif fault == "expiry":
        injector.expire_slots_early(victim, at=windows_open - 0.5)
    elif fault == "drop":
        injector.drop_publications(
            victim, start=0.0, end=windows_open + 30.0
        )
    elif fault == "delay":
        injector.delay_publications(
            victim, start=0.0, end=windows_open + 5.0, extra=2.0
        )
    elif fault == "txfail":
        # Outage covering part of the launch ramp: purchases retry with
        # backoff; publications caught inside also retry.
        injector.fail_transactions(start=0.5, end=2.5)
    elif fault == "finality":
        injector.delay_finality(
            extra=1.5, start=0.0, end=windows_open + 10.0
        )

    report = run_loadgen(fleet)
    deterministic = report["deterministic"]
    _assert_invariants(fleet, fleet.scheduler.completed)

    # Chaos degrades sessions to refunds, never to silent loss: every
    # session is accounted for and at least the unaffected vantage pair
    # still certifies.
    total = sum(deterministic["by_state"].values())
    assert total == config.sessions - deterministic["launch_failures"]
    assert deterministic["certified"] >= config.sessions // 4
    assert deterministic["by_state"].get("failed", 0) == 0


def test_same_seed_fleet_runs_are_deterministic():
    first = run_loadgen(build_loadgen(_small_config()))["deterministic"]
    second = run_loadgen(build_loadgen(_small_config()))["deterministic"]
    assert first == second
