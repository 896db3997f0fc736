"""Quickstart: one verifiable Debuglet measurement, end to end.

Builds a three-AS topology with executors at every border router, a local
Sui-like ledger running the marketplace contract, then walks the paper's
five-step flow (§IV-A): generate Debuglets, look up and purchase slots,
let the executor agents run them, fetch the certified results, and verify
everything as a third party.

Run:  python examples/quickstart.py
"""

from repro.chain.gas import mist_to_sui
from repro.core import ChainVerifier, EchoMeasurement
from repro.workloads import MarketplaceTestbed

PROBES = 30


def main() -> None:
    # 1. The world: AS1 - AS2 - AS3 with executors, a ledger, a funded
    #    initiator, and executor agents already registered on-chain.
    testbed = MarketplaceTestbed.build(n_ases=3, seed=1)
    path = testbed.chain.registry.shortest(1, 3)
    print(f"measurement path: {path}")

    # 2. Generate the Debuglet pair: the stock UDP echo server at AS3's
    #    ingress and its client at AS1's egress, both pinned to the path.
    client_app, server_app = testbed.echo_pair(count=PROBES)

    # 3. Look up and purchase slots (tokens escrowed with the bytecode).
    session = testbed.initiator.request_measurement(
        client_app, server_app, client_vantage=(1, 2), server_vantage=(3, 1),
        duration=30.0,
    )
    print(
        f"purchased window [{session.window_start:.2f}, {session.window_end:.2f}] "
        f"for {mist_to_sui(session.total_price):.3f} SUI"
    )

    # 4. Run the world until both executors have published results.
    testbed.initiator.run_until_done(session, testbed.chain.simulator)
    print(f"delay-to-measurement: {session.delay_to_measurement:.2f} s")

    # 5. Decode and verify.
    echo = EchoMeasurement.from_result(
        session.client_outcome.result, probes_sent=PROBES
    )
    print(
        f"measured: mean RTT {echo.mean_rtt_ms():.3f} ms, "
        f"std {echo.std_rtt_ms():.3f} ms, loss {echo.loss_rate():.1%}"
    )

    verifier = ChainVerifier(testbed.ledger, testbed.market)
    for label, app_id in (
        ("client", session.client_application),
        ("server", session.server_application),
    ):
        verified = verifier.verify_result(app_id)
        print(
            f"third-party verification of the {label} result: OK "
            f"(vantage {verified.vantage}, checkpoint {verified.checkpoint_index})"
        )
    testbed.ledger.verify_chain()
    print("full chain verification: OK")


if __name__ == "__main__":
    main()
