"""Age of information (§VI-F): when did this path start degrading?

Runs periodic Debuglet measurements of one inter-domain segment, retains
each result off-chain with an on-chain hash anchor, injects a fault
midway, and then answers the paper's motivating question from the
*verified* archive: the time at which the degradation began.

Run:  python examples/historical_trend.py
"""

from repro.chain import KeyPair, Ledger, Wallet, sui_to_mist
from repro.core import (
    ArchiveContract,
    ArchivedMeasurement,
    ResultArchive,
    SegmentProber,
    degradation_onset,
)
from repro.netsim import FaultInjector, InterfaceId
from repro.workloads import deployed_chain

PERIOD = 60.0
ROUNDS = 12
FAULT_ROUND = 8


def main() -> None:
    scenario, fleet = deployed_chain(3, seed=33, fleet_seed=34)
    prober = SegmentProber(fleet, probes=10, interval_us=5000)
    path = scenario.registry.shortest(1, 3)

    ledger = Ledger(clock=lambda: scenario.simulator.now)
    contract = ledger.register_contract(ArchiveContract())
    keypair = KeyPair.deterministic("monitoring-site")
    ledger.create_account(keypair, balance=sui_to_mist(100))
    archive = ResultArchive(ledger, contract, Wallet(ledger, keypair))

    injector = FaultInjector(scenario.topology)
    injector.link_delay(
        InterfaceId(2, 2), InterfaceId(3, 1),
        extra_delay=12e-3, start=FAULT_ROUND * PERIOD, end=1e12,
    )

    print(f"archiving one segment measurement every {PERIOD:.0f}s...")
    for round_index in range(ROUNDS):
        start = max(round_index * PERIOD, scenario.simulator.now)
        measurement = prober.measure_sync((1, 2), (3, 1), path, start_at=start)
        anchor = archive.archive(
            ArchivedMeasurement(
                segment_key="as1-as3-via-as2",
                measured_at=measurement.started_at,
                mean_rtt_ms=measurement.mean_rtt_ms(),
                loss_rate=measurement.loss_rate(),
                result=measurement.client_record.result,
            )
        )
        print(
            f"  t={measurement.started_at:7.1f}s  rtt="
            f"{measurement.mean_rtt_ms():6.2f} ms  anchored as {anchor[:8]}…"
        )

    history = archive.history("as1-as3-via-as2")  # each entry re-verified
    report = degradation_onset(history, rtt_slack_ms=5.0)
    print(
        f"\ntrend analysis over the verified archive: degradation began at "
        f"t={report.onset_at:.0f}s "
        f"(baseline {report.baseline_rtt_ms:.2f} ms -> "
        f"{report.degraded_rtt_ms:.2f} ms)"
    )
    print(f"(ground truth: fault injected at t={FAULT_ROUND * PERIOD:.0f}s)")


if __name__ == "__main__":
    main()
