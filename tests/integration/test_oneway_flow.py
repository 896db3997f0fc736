"""Unidirectional measurements through executors (§III requirement)."""


from repro.core.application import DebugletApplication
from repro.core.executor import executor_data_address
from repro.core.results import OneWayMeasurement
from repro.netsim import FaultInjector, InterfaceId, Protocol
from repro.sandbox.programs import oneway_receiver, oneway_sender
from repro.workloads.scenarios import deployed_chain

COUNT = 12


def _run_oneway(scenario, fleet, src, dst, path, *, port):
    records = {}
    sender_app = DebugletApplication.from_stock(
        "snd",
        oneway_sender(
            Protocol.UDP, executor_data_address(*dst),
            count=COUNT, interval_us=20_000, dst_port=port,
        ),
        path=path.as_list(),
    )
    receiver_app = DebugletApplication.from_stock(
        "rcv",
        oneway_receiver(Protocol.UDP, max_probes=COUNT, idle_timeout_us=2_000_000),
        listen_port=port,
    )
    start = scenario.simulator.now + 0.2
    fleet.get(*dst).submit(receiver_app, start_at=start,
                           on_complete=lambda r: records.__setitem__("rcv", r))
    fleet.get(*src).submit(sender_app, start_at=start + 0.1,
                           on_complete=lambda r: records.__setitem__("snd", r))
    scenario.simulator.run_until_idle()
    assert records["snd"].completed and records["rcv"].completed
    return OneWayMeasurement.combine(records["snd"].result, records["rcv"].result)


class TestOneWayExecution:
    def test_forward_and_backward_measured_independently(self):
        scenario, fleet = deployed_chain(3, seed=13, fleet_seed=14)
        injector = FaultInjector(scenario.topology)
        # Degrade only the AS3->AS2 direction of the 2-3 link.
        injector.link_delay(
            InterfaceId(3, 1), InterfaceId(2, 2),
            extra_delay=30e-3, start=0.0, end=1e12, directions="forward",
        )
        path = scenario.registry.shortest(1, 3)
        forward = _run_oneway(
            scenario, fleet, (1, 2), (3, 1), path, port=9101
        )
        backward = _run_oneway(
            scenario, fleet, (3, 1), (1, 2), path.reversed(), port=9102
        )
        assert forward.received == COUNT
        assert backward.received == COUNT
        # Forward is clean; backward carries the 30 ms fault.
        assert forward.mean_delay_ms() < 15.0
        assert backward.mean_delay_ms() > 35.0

    def test_oneway_loss_isolated_per_direction(self):
        scenario, fleet = deployed_chain(2, seed=15, fleet_seed=16)
        injector = FaultInjector(scenario.topology)
        injector.link_loss(
            InterfaceId(1, 2), InterfaceId(2, 1),
            loss=0.5, start=0.0, end=1e12, directions="forward",
        )
        path = scenario.registry.shortest(1, 2)
        forward = _run_oneway(scenario, fleet, (1, 2), (2, 1), path, port=9103)
        backward = _run_oneway(
            scenario, fleet, (2, 1), (1, 2), path.reversed(), port=9104
        )
        assert forward.loss_rate() > 0.2
        assert backward.loss_rate() == 0.0
