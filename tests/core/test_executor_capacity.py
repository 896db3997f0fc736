"""Executor finite resources: capacity queueing (§IV-C)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.core.application import DebugletApplication
from repro.core.executor import SETUP_TIME, Executor
from repro.netsim import Link, Network, Protocol, Simulator, Topology
from repro.sandbox.programs import echo_server


def _network():
    sim = Simulator()
    topo = Topology()
    topo.make_as(1, seed=1)
    topo.make_as(2, seed=2)
    topo.connect(1, 1, 2, 1, Link.symmetric("x", base_delay=1e-3, seed=3))
    return sim, Network(topo, sim, seed=4)


def _waiter(port: int, seconds: float) -> DebugletApplication:
    """A server that idles for ``seconds`` then finishes."""
    stock = echo_server(
        Protocol.UDP, max_echoes=1, idle_timeout_us=int(seconds * 1e6)
    )
    return DebugletApplication.from_stock(f"wait-{port}", stock, listen_port=port)


class TestCapacity:
    def test_capacity_must_be_positive(self):
        _, net = _network()
        with pytest.raises(ConfigurationError):
            Executor(net, 1, 1, concurrent_capacity=0)

    def test_excess_executions_queue(self):
        sim, net = _network()
        executor = Executor(net, 1, 1, seed=5, concurrent_capacity=2)
        records = [
            executor.submit(_waiter(9000 + i, 2.0), start_at=1.0)
            for i in range(4)
        ]
        sim.run(until=1.2)
        statuses = sorted(record.status for record in records)
        assert statuses.count("running") == 2
        assert statuses.count("queued") == 2
        sim.run_until_idle()
        assert all(record.completed for record in records)

    def test_queued_execution_starts_after_a_slot_frees(self):
        sim, net = _network()
        executor = Executor(net, 1, 1, seed=5, concurrent_capacity=1,
                            setup_jitter=0.0)
        first = executor.submit(_waiter(9100, 1.0), start_at=1.0)
        second = executor.submit(_waiter(9101, 1.0), start_at=1.001)
        sim.run_until_idle()
        assert first.completed and second.completed
        # The second started only once the first had finished (within
        # the modelled CPU-time epsilon folded into finished_at).
        assert second.started_at >= first.finished_at - 1e-4

    def test_fifo_order(self):
        sim, net = _network()
        executor = Executor(net, 1, 1, seed=5, concurrent_capacity=1,
                            setup_jitter=0.0)
        records = [
            executor.submit(_waiter(9200 + i, 0.5), start_at=1.0 + i * 0.001)
            for i in range(3)
        ]
        sim.run_until_idle()
        starts = [record.started_at for record in records]
        assert starts == sorted(starts)

    def test_capacity_does_not_affect_light_load(self):
        sim, net = _network()
        executor = Executor(net, 1, 1, seed=5, concurrent_capacity=8)
        record = executor.submit(_waiter(9300, 0.5), start_at=1.0)
        sim.run_until_idle()
        assert record.completed
        assert record.started_at == pytest.approx(1.0 + SETUP_TIME, abs=2e-3)
