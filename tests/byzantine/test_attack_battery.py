"""The adversarial battery: every Byzantine strategy vs its defense.

Each test mounts one seeded attack from :mod:`repro.core.byzantine`
against a staked 3-AS marketplace and asserts the audit pipeline
convicts the right executor by the *designed* mechanism — and only
then. The flip side is tested just as hard: honest executors are never
slashed, even under real packet loss, ledger outages, and crashes that
superficially resemble misbehavior.

Convictions are executed on-chain, so every test also doubles as a
slashing-economics check: stake burns into ``tokens_slashed``, the
evidence hash lands in the conviction map, and escrow conservation and
chain verification still hold afterwards.
"""

import pytest

from repro.chaos import ChaosInjector
from repro.common.errors import SessionStalled, VerificationError
from repro.core.verification import ChainVerifier
from repro.obs import Observability, to_chrome_trace, to_jsonl, to_prometheus
from repro.workloads.demos import (
    BYZANTINE_VANTAGE,
    STAKE,
    add_forward_loss,
    audit_sessions,
    build_audited_testbed,
    corrupt,
    run_echo_session,
    run_support_sessions,
)

from tests.byzantine.helpers import convicted_vantages, market_key, mechanisms
from tests.chaos.helpers import assert_escrow_conserved

pytestmark = pytest.mark.byzantine


def _assert_clean(testbed, auditor) -> None:
    """No convictions, all stake intact, ledger sound."""
    assert auditor.convictions == []
    assert auditor.conviction_failures == []
    assert testbed.ledger.tokens_slashed == 0
    for key, stake in testbed.market.state["stake_map"].items():
        assert stake == STAKE, f"executor {key} lost stake without conviction"
    assert_escrow_conserved(testbed)
    testbed.ledger.verify_chain()


def _assert_byzantine_convicted(testbed, auditor, *, mechanism: str) -> None:
    """The corrupted vantage — and nobody else — lost its stake."""
    assert convicted_vantages(auditor.convictions) == {BYZANTINE_VANTAGE}
    assert mechanism in mechanisms(auditor.convictions)
    # Full stake burned exactly once; repeat convictions burn nothing.
    assert testbed.ledger.tokens_slashed == STAKE
    state = testbed.market.state
    key = market_key(BYZANTINE_VANTAGE)
    assert state["stake_map"].get(key, 0) == 0
    assert sum(c["slashed"] for c in auditor.convictions) == STAKE
    # Evidence recorded on-chain matches what the auditor submitted.
    on_chain = state["conviction_map"][key]
    assert on_chain, "conviction executed but no on-chain record"
    chain_evidence = {record["evidence"] for record in on_chain}
    audit_evidence = {c["evidence_hash"].hex() for c in auditor.convictions}
    assert chain_evidence == audit_evidence
    for record in on_chain:
        assert len(bytes.fromhex(record["evidence"])) == 32
        assert record["reason"] in {
            "replay", "cross-validation", "window", "equivocation",
            "counts", "counts-understated",
        }
    # Honest vantages keep their stake.
    for other_key, stake in state["stake_map"].items():
        if other_key != key:
            assert stake == STAKE
    assert_escrow_conserved(testbed)
    testbed.ledger.verify_chain()


# ------------------------------------------------------------- honesty


class TestHonestExecutorsAreNeverSlashed:
    def test_clean_run_full_audit_rate(self):
        testbed, auditor = build_audited_testbed(seed=1, audit_rate=1.0)
        sessions = [run_echo_session(testbed) for _ in range(3)]
        audit_sessions(testbed, auditor, sessions)
        assert auditor.sessions_audited == 3
        for session in sessions:
            assert session.state.value == "certified"
        _assert_clean(testbed, auditor)

    def test_real_packet_loss_is_not_misbehavior(self):
        # Lossy links make client and server counts genuinely disagree;
        # replay of the true transcript must exonerate both sides.
        testbed, auditor = build_audited_testbed(seed=2, audit_rate=1.0)
        add_forward_loss(testbed, loss=0.25)
        sessions = [
            run_echo_session(testbed, timeout_us=200_000) for _ in range(3)
        ]
        audit_sessions(testbed, auditor, sessions)
        _assert_clean(testbed, auditor)

    def test_cross_validation_quorum_does_not_convict_honest_fleet(self):
        # All four vantage combinations vote; everyone is in the majority.
        testbed, auditor = build_audited_testbed(seed=3, audit_rate=0.25)
        sessions = [run_echo_session(testbed) for _ in range(2)]
        sessions += run_support_sessions(testbed)
        audit_sessions(testbed, auditor, sessions)
        assert len(auditor.cross.samples) >= 5
        _assert_clean(testbed, auditor)

    def test_chaos_composition_yields_no_false_positives(self):
        # A ledger outage mid-purchase plus link loss: sessions retry and
        # recover, and nothing about recovery looks like lying.
        testbed, auditor = build_audited_testbed(seed=4, audit_rate=1.0)
        simulator = testbed.chain.simulator
        injector = ChaosInjector(simulator, testbed.ledger, seed=4)
        injector.fail_transactions(
            start=simulator.now, end=simulator.now + 2.0
        )
        add_forward_loss(testbed, loss=0.15)
        sessions = [
            run_echo_session(testbed, timeout_us=200_000) for _ in range(2)
        ]
        audit_sessions(testbed, auditor, sessions)
        _assert_clean(testbed, auditor)


# ------------------------------------------------------------- attacks


class TestForgedMeasurements:
    def test_result_only_forge_caught_by_replay(self):
        # The liar rewrites published result bytes but not its transcript:
        # the replayed emissions cannot match the publication.
        testbed, auditor = build_audited_testbed(seed=1, audit_rate=1.0)
        corruptor = corrupt(testbed, "forge_values", seed=1)
        sessions = [run_echo_session(testbed) for _ in range(3)]
        audit_sessions(testbed, auditor, sessions)
        assert len(corruptor.attacks) == 3
        _assert_byzantine_convicted(testbed, auditor, mechanism="replay")

    def test_consistent_forge_caught_by_cross_validation(self):
        # forge_log=True keeps transcript, fuel, and result in perfect
        # lockstep — replay audits pass. Only independent vantages can
        # catch it: the reverse path and composed sub-segment votes via
        # AS2 form a quorum the liar's claimed RTT falls outside.
        testbed, auditor = build_audited_testbed(seed=1, audit_rate=1.0)
        corruptor = corrupt(testbed, "forge_values", seed=1, forge_log=True)
        sessions = [run_echo_session(testbed) for _ in range(3)]
        sessions += run_support_sessions(testbed)
        audit_sessions(testbed, auditor, sessions)
        assert len(corruptor.attacks) == 3
        # Replay found nothing (the forge is self-consistent)…
        assert not any(
            c["mechanism"] == "replay" for c in auditor.convictions
        )
        # …but the vote majority did.
        _assert_byzantine_convicted(
            testbed, auditor, mechanism="cross-validation"
        )

    def test_detection_rate_at_quarter_audit_rate(self):
        # Acceptance floor: >=95% of forged-measurement sessions detected
        # at a 25% replay-sampling rate. Cross-validation convicts every
        # forged application regardless of which sessions were sampled,
        # so detection is deterministic, not a sampling lottery.
        testbed, auditor = build_audited_testbed(seed=7, audit_rate=0.25)
        corruptor = corrupt(testbed, "forge_values", seed=7, forge_log=True)
        sessions = [run_echo_session(testbed) for _ in range(4)]
        sessions += run_support_sessions(testbed)
        audit_sessions(testbed, auditor, sessions)
        tampered = len(corruptor.attacks)
        assert tampered == 4
        detected = sum(
            1
            for c in auditor.convictions
            if tuple(c["vantage"]) == BYZANTINE_VANTAGE
        )
        assert detected / tampered >= 0.95
        assert convicted_vantages(auditor.convictions) == {BYZANTINE_VANTAGE}


class TestFaultHiding:
    def test_hidden_losses_caught_by_counts_check(self):
        # Real 25% forward loss; the client fabricates reply pairs for
        # the lost probes. The always-on counts check (client pairs vs
        # server echoes) fires on *every* such session — no sampling —
        # and replay arbitration pins the lie on the client.
        testbed, auditor = build_audited_testbed(seed=5, audit_rate=0.25)
        add_forward_loss(testbed, loss=0.25)
        corruptor = corrupt(testbed, "hide_faults", seed=5)
        sessions = [
            run_echo_session(testbed, timeout_us=200_000) for _ in range(3)
        ]
        audit_sessions(testbed, auditor, sessions)
        tampered = len(corruptor.attacks)
        assert tampered >= 1
        detected = sum(
            1
            for c in auditor.convictions
            if tuple(c["vantage"]) == BYZANTINE_VANTAGE
        )
        assert detected / tampered >= 0.95
        _assert_byzantine_convicted(testbed, auditor, mechanism="counts")


class TestReplayedResults:
    def test_duplicate_publication_caught_by_equivocation(self):
        # Same code hash, same cached result republished under a second
        # application id: the per-vantage result index flags it without
        # any replay audit at all (audit_rate=0).
        testbed, auditor = build_audited_testbed(seed=1, audit_rate=0.0)
        corruptor = corrupt(testbed, "replay_result", seed=1)
        sessions = [run_echo_session(testbed) for _ in range(3)]
        audit_sessions(testbed, auditor, sessions)
        assert len(corruptor.attacks) >= 1
        assert auditor.sessions_audited == 0
        _assert_byzantine_convicted(
            testbed, auditor, mechanism="equivocation"
        )


class TestStaleCertificates:
    def test_reused_certificate_caught_by_window_check(self):
        # The first session's certificate is replayed for later sessions;
        # its timestamps fall outside the later purchased windows.
        testbed, auditor = build_audited_testbed(seed=1, audit_rate=0.0)
        corruptor = corrupt(testbed, "stale_certificate", seed=1)
        sessions = [run_echo_session(testbed) for _ in range(3)]
        audit_sessions(testbed, auditor, sessions)
        assert len(corruptor.attacks) >= 1
        _assert_byzantine_convicted(testbed, auditor, mechanism="window")

    def test_reused_certificate_fails_third_party_verification(self):
        # No auditor needed: anyone holding the ledger refuses the
        # republication, while the honest first run and the honest server
        # side of every session still verify.
        testbed, _ = build_audited_testbed(seed=1, audit_rate=0.0)
        corruptor = corrupt(testbed, "stale_certificate", seed=1)
        first, *later = [run_echo_session(testbed) for _ in range(3)]
        assert len(corruptor.attacks) == len(later)
        verifier = ChainVerifier(testbed.ledger, testbed.market)
        verifier.verify_result(first.outcomes["client"].application_id)
        for session in later:
            verifier.verify_result(session.outcomes["server"].application_id)
            with pytest.raises(
                VerificationError, match="outside the purchased window"
            ):
                verifier.verify_result(session.outcomes["client"].application_id)


# -------------------------------------------------- economics and chain


class TestSlashingEconomics:
    def test_slashed_executor_cannot_publish_afterwards(self):
        # Conviction first, then a new session through the same vantage:
        # result_ready refuses the publication, so the session can never
        # certify a convicted executor's claims (it stalls awaiting a
        # publication the chain will not accept).
        testbed, auditor = build_audited_testbed(seed=1, audit_rate=1.0)
        corrupt(testbed, "forge_values", seed=1)
        audit_sessions(testbed, auditor, [run_echo_session(testbed)])
        assert convicted_vantages(auditor.convictions) == {BYZANTINE_VANTAGE}
        with pytest.raises(SessionStalled):
            run_echo_session(testbed, count=3)
        assert_escrow_conserved(testbed)
        testbed.ledger.verify_chain()

    def test_state_digest_covers_slashing(self):
        # Two same-seed runs agree; a run with a conviction diverges in
        # the ledger digest (slashed tokens are consensus state).
        def digest(attack: bool) -> str:
            testbed, auditor = build_audited_testbed(seed=9, audit_rate=1.0)
            if attack:
                corrupt(testbed, "forge_values", seed=9)
            audit_sessions(testbed, auditor, [run_echo_session(testbed)])
            return testbed.ledger.state_digest().hex()

        assert digest(False) == digest(False)
        assert digest(False) != digest(True)


class TestAuditObservability:
    @staticmethod
    def _exports(obs: Observability) -> tuple[bytes, bytes, bytes]:
        return (
            to_jsonl(obs.tracer).encode("utf-8"),
            to_chrome_trace(obs.tracer, obs.metrics).encode("utf-8"),
            to_prometheus(obs.metrics).encode("utf-8"),
        )

    def _run(self, seed: int) -> Observability:
        obs = Observability.enabled()
        testbed, auditor = build_audited_testbed(
            seed=seed, audit_rate=1.0, obs=obs
        )
        corrupt(testbed, "forge_values", seed=seed)
        audit_sessions(
            testbed, auditor, [run_echo_session(testbed) for _ in range(2)]
        )
        return obs

    def test_same_seed_audited_runs_export_identical_bytes(self):
        assert self._exports(self._run(11)) == self._exports(self._run(11))

    def test_audit_metrics_and_conviction_events_emitted(self):
        obs = self._run(11)
        prom = to_prometheus(obs.metrics)
        assert "audit_sessions_total" in prom
        assert "audit_replays_total" in prom
        assert 'audit_convictions_total{mechanism="replay"' in prom
        jsonl = to_jsonl(obs.tracer)
        assert "audit.replay" in jsonl
        assert "audit.conviction" in jsonl
