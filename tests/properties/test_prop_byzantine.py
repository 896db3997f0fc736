"""Property tests for the Byzantine audit pipeline.

Two soundness/completeness halves, each quantified over seeds (which
drive network jitter, slot layout, attack RNG, and audit sampling):

* **no false convictions** — honest fleets, with or without real packet
  loss, never lose stake no matter the seed or audit rate;
* **no missed forgeries** — a result-only forger is always convicted at
  full audit rate, its full stake burned exactly once, and token
  conservation plus chain verification hold afterwards.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.workloads.demos import (
    BYZANTINE_VANTAGE,
    STAKE,
    add_forward_loss,
    audit_sessions,
    build_audited_testbed,
    corrupt,
    run_echo_session,
)

from tests.byzantine.helpers import convicted_vantages
from tests.chaos.helpers import assert_escrow_conserved

pytestmark = pytest.mark.byzantine

COMMON = dict(
    max_examples=6,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestNoFalseConvictions:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        audit_rate=st.sampled_from([0.25, 1.0]),
        lossy=st.booleans(),
    )
    @settings(**COMMON)
    def test_honest_executors_keep_their_stake(self, seed, audit_rate, lossy):
        testbed, auditor = build_audited_testbed(
            seed=seed, audit_rate=audit_rate
        )
        if lossy:
            add_forward_loss(testbed, loss=0.2)
        sessions = [
            run_echo_session(testbed, count=5, timeout_us=200_000)
            for _ in range(2)
        ]
        audit_sessions(testbed, auditor, sessions)
        assert auditor.convictions == []
        assert testbed.ledger.tokens_slashed == 0
        assert all(
            stake == STAKE
            for stake in testbed.market.state["stake_map"].values()
        )
        assert_escrow_conserved(testbed)
        testbed.ledger.verify_chain()


class TestNoMissedForgeries:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(**COMMON)
    def test_result_forger_is_always_convicted(self, seed):
        testbed, auditor = build_audited_testbed(seed=seed, audit_rate=1.0)
        corruptor = corrupt(testbed, "forge_values", seed=seed)
        sessions = [run_echo_session(testbed, count=5) for _ in range(2)]
        audit_sessions(testbed, auditor, sessions)
        assert len(corruptor.attacks) == 2
        assert convicted_vantages(auditor.convictions) == {BYZANTINE_VANTAGE}
        assert testbed.ledger.tokens_slashed == STAKE
        assert sum(c["slashed"] for c in auditor.convictions) == STAKE
        assert_escrow_conserved(testbed)
        testbed.ledger.verify_chain()
