"""How often each stock program crosses the sandbox boundary, counted.

A host call is the expensive part of a probe: the executor schedules it,
logs it, and the audit replays it. So the number per probe is pinned
here, read off the executor's transcript of real runs through two
executors, once over a lossless link and once over a lossy one:

* the echo client makes 5 calls per answered probe (``now_us``,
  ``net_send``, ``net_recv``, ``now_us``, ``sleep_until_us``) and 4 per
  lost one, plus ``now_us`` at start, the drain's final ``net_recv`` and
  the one ``result_bytes`` that publishes its pairs;
* the echo server makes 2 per echo (``net_recv``, ``net_reply``), plus
  one ``result_bytes`` and, when it stops short of ``max_echoes``, the
  ``net_recv`` that timed out;
* the one-way receiver makes 1 per probe, plus its idle ``net_recv`` and
  one ``result_bytes``;
* the one-way sender still makes 5 per probe: the ``result_i64`` of its
  timestamp sits between that ``now_us`` and its ``net_send``.

Nothing is timed.
"""

import pytest

from repro.core.application import DebugletApplication
from repro.core.executor import Executor
from repro.netsim import Link, Network, Protocol, Simulator, Topology
from repro.netsim.treatment import ProtocolTreatment, TreatmentProfile
from repro.sandbox.programs import (
    echo_client,
    echo_server,
    oneway_receiver,
    oneway_sender,
)

COUNT = 40
PORT = 7800

ANSWERED = ["now_us", "net_send", "net_recv", "now_us", "sleep_until_us"]
LOST = ["now_us", "net_send", "net_recv", "sleep_until_us"]


def _run_pair(client_stock, server_stock, *, loss: float, seed: int):
    sim = Simulator()
    topo = Topology()
    topo.make_as(1, seed=seed)
    topo.make_as(2, seed=seed + 1)
    treatment = TreatmentProfile.uniform(ProtocolTreatment(base_drop=loss))
    topo.connect(1, 1, 2, 1, Link.symmetric(
        "1-2", base_delay=8e-3, jitter_std=1e-3, treatment=treatment,
        seed=seed + 2,
    ))
    net = Network(topo, sim, seed=seed + 3)
    ex_client = Executor(net, 1, 1, seed=seed + 4)
    ex_server = Executor(net, 2, 1, seed=seed + 5)
    server = ex_server.submit(
        DebugletApplication.from_stock("srv", server_stock(), listen_port=PORT),
        start_at=0.5,
    )
    client = ex_client.submit(
        DebugletApplication.from_stock("cli", client_stock(ex_server.data_address)),
        start_at=0.6,
    )
    sim.run_until_idle()
    assert client.completed and server.completed, (client.status, server.status)
    return client, server


def _calls(record) -> list[tuple]:
    """``(op, resumed with)`` for every host call, in order."""
    log = record.interaction_log
    return [
        (entry[1], log[index + 1][1])
        for index, entry in enumerate(log)
        if entry[0] == "call"
    ]


def _echo_client(server):
    return echo_client(Protocol.UDP, server, count=COUNT, interval_us=20_000,
                       dst_port=PORT, timeout_us=30_000, drain_us=60_000)


def _echo_server():
    return echo_server(Protocol.UDP, max_echoes=COUNT, idle_timeout_us=300_000)


@pytest.mark.parametrize("loss", [0.0, 0.2], ids=["lossless", "lossy"])
def test_echo_client_crosses_five_times_per_answered_probe(loss):
    client, server = _run_pair(_echo_client, _echo_server, loss=loss, seed=17)
    calls = _calls(client)
    ops = [op for op, _ in calls]

    assert ops[0] == "now_us"  # start
    assert ops[-2:] == ["net_recv", "result_bytes"]  # drain timeout, exit
    assert calls[-2][1] == -1
    probes = ops[1:-2]
    answered = lost = 0
    while probes:
        per_probe = ANSWERED if probes[3] == "now_us" else LOST
        assert probes[:len(per_probe)] == per_probe, probes[:5]
        del probes[:len(per_probe)]
        answered += per_probe is ANSWERED
        lost += per_probe is LOST
    assert answered + lost == COUNT
    assert len(ops) == 5 * answered + 4 * lost + 3
    # every answered probe is one published (seq, rtt) pair
    assert len(client.result) == 16 * answered
    if loss:
        assert answered and lost
    else:
        assert (answered, lost) == (COUNT, 0)

    # the server: net_recv + net_reply per echo, idle net_recv, one publish
    # (the idle net_recv only when it stopped short of max_echoes)
    server_ops = [op for op, _ in _calls(server)]
    echoes = server_ops.count("net_reply")
    idle = ["net_recv"] if echoes < COUNT else []
    assert server_ops == ["net_recv", "net_reply"] * echoes + idle + [
        "result_bytes"
    ]


def test_one_way_pair_crossings():
    sender, receiver = _run_pair(
        lambda server: oneway_sender(Protocol.UDP, server, count=COUNT,
                                     interval_us=20_000, dst_port=PORT),
        lambda: oneway_receiver(Protocol.UDP, max_probes=COUNT,
                                idle_timeout_us=300_000),
        loss=0.2, seed=23,
    )
    assert [op for op, _ in _calls(sender)] == ["now_us"] + [
        "result_i64", "now_us", "result_i64", "net_send", "sleep_until_us",
    ] * COUNT
    received = [op for op, _ in _calls(receiver)]
    arrivals = len(receiver.result) // 16
    assert 0 < arrivals < COUNT
    assert received == ["net_recv"] * (arrivals + 1) + ["result_bytes"]
