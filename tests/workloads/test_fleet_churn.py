"""Fleet churn under load (DESIGN.md §12).

The acceptance scenario for the fleet manager: a >=2k-session loadgen run
with concurrent late registrations, graceful drains, heartbeat-loss
evictions, and crash/re-register cycles must

- complete every launched session (certified or cleanly refunded),
- leak zero escrow (token conservation, market balance back to zero),
- never hand a session to a draining/suspected/evicted member, and
- stay byte-identical across same-seed runs (obs exports included).

The last test pins the placement headline: border-router co-location
beats the random baseline at equal budget.
"""

import json

import pytest

from repro.core.fleetmgr import ExecutorState
from repro.core.placement import STRATEGIES, evaluate_strategies, synthetic_candidates
from repro.obs import Observability
from repro.obs.export import to_prometheus
from repro.workloads import LoadgenConfig, build_loadgen, run_loadgen

pytestmark = pytest.mark.fleet

#: The acceptance-scale churn scenario: 8 vantage pairs, 5 of them churned.
CHURN = dict(
    sessions=2000,
    executors=16,
    initiators=16,
    seed=5,
    ramp=20.0,
    duration=0.5,
    exec_time=0.05,
    deadline_margin=45.0,
    churn=True,
    heartbeat_interval=1.0,
    suspect_beats=2,
    evict_beats=4,
    late_pairs=2,
    drain_pairs=1,
    crash_pairs=1,
    lost_pairs=1,
    slot_factor=3.0,
)


def _run(**overrides):
    config = LoadgenConfig(**{**CHURN, **overrides})
    obs = Observability.enabled()
    fleet = build_loadgen(config, obs=obs)
    report = run_loadgen(fleet)
    return fleet, report, obs


@pytest.fixture(scope="module")
def churn_run():
    return _run()


def _ledger_total(ledger) -> int:
    return (
        sum(account.balance for account in ledger.accounts.values())
        + sum(ledger.contract_balances.values())
        + ledger.gas_burned
        + ledger.storage_fund
        + ledger.tokens_slashed
    )


class TestChurnAcceptance:
    def test_every_session_reaches_a_terminal_state(self, churn_run):
        fleet, report, _ = churn_run
        det = report["deterministic"]
        assert det["completed"] == CHURN["sessions"]
        assert det["launch_failures"] == 0
        by_state = det["by_state"]
        # Crash-pair sessions sold during the suspicion window are the
        # only legitimate refunds; everything else certifies.
        assert by_state.get("certified", 0) + by_state.get("refunded", 0) == (
            CHURN["sessions"]
        )
        assert by_state.get("certified", 0) >= 0.9 * CHURN["sessions"]

    def test_zero_escrow_leak(self, churn_run):
        fleet, _, _ = churn_run
        ledger = fleet.ledger
        genesis = sum(amount for _, amount in ledger._genesis_grants)
        assert _ledger_total(ledger) == genesis
        # All escrow settled: paid out to executors or refunded. No stake
        # was posted, and eviction never slashes.
        assert ledger.contract_balances.get("debuglet_market", 0) == 0
        assert ledger.tokens_slashed == 0

    def test_no_session_handed_to_unsellable_member(self, churn_run):
        fleet, report, _ = churn_run
        assert report["deterministic"]["fleet"]["assigned_while_unsellable"] == 0
        assert len(fleet.assignments) == CHURN["sessions"]
        for _, _, client_state, server_state in fleet.assignments:
            assert client_state == ExecutorState.ACTIVE.value
            assert server_state == ExecutorState.ACTIVE.value

    def test_churn_roles_played_out(self, churn_run):
        fleet, report, _ = churn_run
        section = report["deterministic"]["fleet"]
        roles = section["roles"]
        assert [len(roles[name]) for name in
                ("late", "drain", "crash", "lost")] == [2, 1, 1, 1]
        # Drained pair retired; lost pair evicted and stayed out; crashed
        # pair re-registered and finished active alongside the rest.
        assert section["states"].get("retired", 0) == 2 * CHURN["drain_pairs"]
        assert section["states"].get("evicted", 0) == 2 * CHURN["lost_pairs"]
        assert section["states"].get("active", 0) == (
            CHURN["executors"]
            - 2 * CHURN["drain_pairs"]
            - 2 * CHURN["lost_pairs"]
        )
        assert section["registrations"] == (
            CHURN["executors"] + 2 * CHURN["crash_pairs"]
        )
        assert section["skipped_reregistrations"] == 0
        assert section["heartbeats_missed"] > 0
        # Every pair — late ones included — carried sessions.
        spread = section["sessions_per_pair"]
        assert sorted(map(int, spread)) == list(range(CHURN["executors"] // 2))
        assert all(count > 0 for count in spread.values())

    def test_retired_members_are_deregistered_on_chain(self, churn_run):
        fleet, _, _ = churn_run
        manager = fleet.manager
        for member in manager.members_in(ExecutorState.RETIRED):
            asn, interface = member.vantage
            assert fleet.market.executor_address(asn, interface) is None
            assert member.agent._subscription is None
        # Evicted members keep their on-chain registration: eviction is a
        # fleet-level delisting, not deregistration.
        for member in manager.members_in(ExecutorState.EVICTED):
            asn, interface = member.vantage
            assert fleet.market.executor_address(asn, interface) is not None


SMALL = dict(sessions=400, executors=12, initiators=8, ramp=10.0, seed=9,
             late_pairs=1)


class TestChurnDeterminism:
    def test_same_seed_runs_are_byte_identical(self):
        _, first_report, first_obs = _run(**SMALL)
        _, second_report, second_obs = _run(**SMALL)
        assert first_report["deterministic"] == second_report["deterministic"]
        first_text = to_prometheus(first_obs.metrics)
        assert first_text.encode() == to_prometheus(second_obs.metrics).encode()
        for name in ("fleet_lifecycle_transitions_total", "fleet_members",
                     "fleet_heartbeats_total", "fleet_admissions_total"):
            assert name in first_text, f"{name} missing from metrics export"

    def test_fleet_section_is_json_serializable(self, churn_run):
        _, report, _ = churn_run
        assert json.dumps(report["deterministic"]["fleet"])


# ------------------------------------------------------ placement guard


def test_border_placement_beats_random_at_equal_budget():
    """The placement headline (deterministic, no wall clock): border-router
    co-location localizes at least as well (smaller mean suspect set) as
    the random baseline at every budget >= 200 and strictly better at the
    three-hire budget."""
    n_ases = 8
    pool = synthetic_candidates(n_ases)
    for budget in (100, 200, 300, 500):
        plans = evaluate_strategies(n_ases, pool, budget=budget, seed=3)
        assert set(plans) == set(STRATEGIES)
        if budget >= 200:
            assert (
                plans["border"].mean_suspect_set
                <= plans["random"].mean_suspect_set
            ), budget
    # At the three-hire budget the ordering must be strict.
    plans = evaluate_strategies(n_ases, pool, budget=300, seed=3)
    assert plans["border"].mean_suspect_set < plans["random"].mean_suspect_set
