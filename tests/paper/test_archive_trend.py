"""§VI-F: age of information — archived history pinpoints fault onset.

Periodic Debuglet measurements of one segment are retained off-chain with
on-chain hash anchors. A delay fault is injected midway through the
observation period; the trend analysis over the (verified) archive finds
the onset time.
"""

from repro.core.archive import (
    ArchiveContract,
    ArchivedMeasurement,
    ResultArchive,
    degradation_onset,
)
from repro.core.probing import SegmentProber
from repro.chain import KeyPair, Ledger, Wallet, sui_to_mist
from repro.netsim import FaultInjector, InterfaceId
from repro.workloads.scenarios import deployed_chain

ROUNDS = 10
PERIOD = 30.0  # one archived measurement every 30 s
FAULT_ROUND = 6


def _run_trend_study():
    scenario, fleet = deployed_chain(3, seed=101, fleet_seed=102)
    prober = SegmentProber(fleet, probes=10, interval_us=5000)
    path = scenario.registry.shortest(1, 3)

    ledger = Ledger(clock=lambda: scenario.simulator.now)
    contract = ledger.register_contract(ArchiveContract())
    keypair = KeyPair.deterministic("archivist")
    ledger.create_account(keypair, balance=sui_to_mist(100))
    archive = ResultArchive(ledger, contract, Wallet(ledger, keypair))

    injector = FaultInjector(scenario.topology)
    fault_time = FAULT_ROUND * PERIOD
    injector.link_delay(
        InterfaceId(2, 2), InterfaceId(3, 1),
        extra_delay=15e-3, start=fault_time, end=1e12,
    )

    segment_key = "1:2|3:1"
    for round_index in range(ROUNDS):
        start = round_index * PERIOD
        measurement = prober.measure_sync(
            (1, 2), (3, 1), path, start_at=max(start, scenario.simulator.now)
        )
        archive.archive(
            ArchivedMeasurement(
                segment_key=segment_key,
                measured_at=measurement.started_at,
                mean_rtt_ms=measurement.mean_rtt_ms(),
                loss_rate=measurement.loss_rate(),
                result=measurement.client_record.result,
            )
        )
    history = archive.history(segment_key)  # verified against anchors
    report = degradation_onset(history, rtt_slack_ms=5.0)
    return history, report, fault_time, ledger


def test_archive_trend():
    history, report, fault_time, ledger = _run_trend_study()

    print("\n=== §VI-F: archived measurement history (one segment) ===")
    for entry in history:
        marker = " <- degraded" if entry.mean_rtt_ms > report.baseline_rtt_ms + 5 else ""
        print(
            f"  t={entry.measured_at:7.1f}s  rtt={entry.mean_rtt_ms:6.2f} ms"
            f"{marker}"
        )
    print(
        f"  fault injected at t={fault_time:.0f}s; onset detected at "
        f"t={report.onset_at:.1f}s (baseline {report.baseline_rtt_ms:.2f} ms)"
    )

    assert len(history) == ROUNDS
    assert report.degradation_detected
    # Onset within one archival period of the true fault time.
    assert abs(report.onset_at - fault_time) <= PERIOD + 1.0
    ledger.verify_chain()
