"""Decentralized executor discovery (§VI-A): no marketplace, no chain.

ASes advertise their executors as route metadata; an initiator learns
about them through path discovery, negotiates price and window
bilaterally, ships the application directly, and gets the certificate-
signed result back directly. Faster and with no single point of failure —
but the result is not *publicly* verifiable.

Run:  python examples/decentralized_discovery.py
"""

from repro.chain.crypto import verify_signature
from repro.core import (
    DebugletApplication,
    DecentralizedDirectory,
    EchoMeasurement,
)
from repro.core.executor import executor_data_address
from repro.netsim import Protocol
from repro.sandbox import echo_client, echo_server
from repro.workloads import deployed_chain

PROBES = 20
PORT = 7870


def main() -> None:
    scenario, fleet = deployed_chain(4, seed=55, fleet_seed=56)

    # ASes announce executors in their routing messages.
    directory = DecentralizedDirectory(scenario.registry)
    for vantage in fleet.vantages():
        directory.advertise(fleet.get(*vantage), price=2_000_000)

    path = scenario.registry.shortest(1, 4)
    on_path = directory.executors_on_path(path)
    print(f"path {path}")
    print(
        "executors learned from route metadata: "
        + ", ".join(f"AS{a.asn}#{a.interface}" for a in on_path)
    )

    # Bilateral negotiation with the two endpoints of the path.
    client_ad = next(a for a in on_path if (a.asn, a.interface) == (1, 2))
    server_ad = next(a for a in on_path if (a.asn, a.interface) == (4, 1))
    server_deal = directory.negotiate(
        server_ad, offer=server_ad.price, window_start=1.0, window_end=30.0
    )
    client_deal = directory.negotiate(
        client_ad, offer=client_ad.price, window_start=1.2, window_end=30.0
    )
    print(
        f"negotiated both executions for "
        f"{(server_deal.price + client_deal.price) / 1e9:.3f} SUI total"
    )

    server_app = DebugletApplication.from_stock(
        "srv", echo_server(Protocol.UDP, max_echoes=PROBES, idle_timeout_us=3_000_000),
        listen_port=PORT, path=path.reversed().as_list(),
    )
    client_app = DebugletApplication.from_stock(
        "cli",
        echo_client(Protocol.UDP, executor_data_address(4, 1),
                    count=PROBES, interval_us=50_000, dst_port=PORT),
        path=path.as_list(),
    )
    records = {}
    directory.execute(server_deal, server_app,
                      on_complete=lambda r: records.__setitem__("server", r))
    directory.execute(client_deal, client_app,
                      on_complete=lambda r: records.__setitem__("client", r))
    scenario.simulator.run_until_idle()

    record = records["client"]
    echo = EchoMeasurement.from_result(record.result, probes_sent=PROBES)
    print(f"direct result: mean RTT {echo.mean_rtt_ms():.2f} ms, loss {echo.loss_rate():.0%}")

    # Not publicly verifiable, but the certificate still binds the result
    # to the executor's key for anyone who knows it out of band.
    certificate = record.certificate
    assert certificate is not None
    ok = verify_signature(
        certificate.executor_public_key,
        certificate.signing_payload(),
        certificate.signature,
    )
    print(f"certificate signature checks out (bilateral trust): {ok}")


if __name__ == "__main__":
    main()
