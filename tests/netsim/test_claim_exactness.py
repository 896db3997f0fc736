"""Claiming the next event is exact: ``run()`` against a ``step()`` loop.

A callback may go straight on into the event it would otherwise post when
that event is strictly the next one due (``Simulator.claim``: the packet
hop walk and the executor's host-call resumes). ``step()`` never claims, so
each scenario below is driven twice from the same seeds — once by
``run()``, once by ``while sim.step()`` — and the two must agree exactly on
every packet's fate, the clock, ``events_processed`` and every channel's
counters, serializer state and, per kind of draw, values consumed, values
drawn but unread and bit-generator state (``tests/netsim/draws.py``). Each
pair is driven at every one of ``BLOCK_SIZES``, and every size must give
the same fates:

- a probe send and a packet's arrival due at the same float instant, on
  the same channel (the queued send goes first; claiming on a tie would
  swap the two packets' draws and self-queueing);
- an arrival exactly at ``run(until=...)``, and one just past it;
- ``stop()`` while a packet is in the middle of its trail, followed by a
  claim attempt in the stopping callback (refused);
- a simulator recording observability (never claims; same exports);
- one executor echo pair, measured with ``SegmentProber.measure_sync``
  (``run()`` plus ``stop()``) against the step loop it replaced;
- a small §II study.

Mutants that must turn this red (each checked on a copy of the tree): ``<``
against the heap head made ``<=``; ``until`` ignored by ``claim``; claims
still granted after ``stop()``.
"""

from repro.core import SegmentProber
from repro.core.probing import SegmentRequest
from repro.netsim.packet import Protocol
from repro.obs import Observability
from repro.obs.export import to_jsonl, to_prometheus
from repro.workloads import build_chain, deployed_chain
from repro.workloads.wan import WanScenario
from tests.netsim.draws import BLOCK_SIZES, draw_block, draw_state

ALL = tuple(Protocol)


def step_driver(sim, until=None):
    """What ``run`` does, one ``step()`` at a time (no event is claimed).
    No scenario here cancels a handle, so the heap head is live."""
    if until is None:
        while sim.step():
            pass
        return
    while sim._queue and sim._queue[0][0] <= until:
        sim.step()
    sim.run(until=until)  # nothing left at or before ``until``: the clock only


def run_driver(sim, until=None):
    sim.run(until=until)


def channels(topology):
    """Every directed channel of a topology, by name."""
    found = {}
    for link, _, _ in topology._links.values():
        found[link.forward.name] = link.forward
        found[link.reverse.name] = link.reverse
    for asys in topology.ases.values():
        for channel in asys._internal_channels.values():
            found[channel.name] = channel
    return found


def channel_states(topology):
    states = {}
    for name, channel in sorted(channels(topology).items()):
        states[name] = (
            channel.packets_in, channel.packets_dropped,
            dict(channel._busy_until), draw_state(channel),
        )
    return states


class Chain:
    """AS1 - AS2 - AS3. A client in AS1, an echo server in AS3, and a host
    in AS2 at interface 1, whose first channel (AS2's interior, if1 to if2)
    is the one the client's packets cross third."""

    def __init__(self, seed=5):
        scenario = build_chain(3, seed=seed)
        self.sim, self.topology, self.net = (
            scenario.simulator, scenario.topology, scenario.network)
        self.client = self.net.make_host(1, "client")
        self.mid = self.net.make_host(2, "mid", attachment="if1")
        self.server = self.net.make_host(3, "server", echo_protocols=ALL)
        self.fates = []
        self.net.on_drop = lambda p, reason, t: self.fates.append(
            ("drop", p.src.host, p.seq, reason, t))
        self.client_udp = self.client.open_udp(1000)
        self.mid_udp = self.mid.open_udp(1001)
        for sock in (self.client_udp, self.mid_udp):
            sock.on_receive = lambda p, t: self.fates.append(
                ("recv", p.dst.host, p.seq, t, t - p.send_time))

    def send_from(self, sock, seq):
        return lambda: sock.send(self.server.address, dst_port=7, seq=seq)

    def state(self):
        stats = self.net.stats
        return (list(self.fates), self.sim.now, self.sim.events_processed,
                channel_states(self.topology),
                (stats.packets_sent, stats.packets_delivered,
                 dict(stats.drops_by_reason)))


def client_event_times(seed=5):
    """The instants of the events a lone client probe fires, in order."""
    chain = Chain(seed)
    chain.sim.post(0.0, chain.send_from(chain.client_udp, 1))
    times = []
    while chain.sim.step():
        times.append(chain.sim.now)
    return times


def both(scenario, fates=None):
    """``scenario(driver)`` under ``run()`` and under the step loop, at each
    of ``BLOCK_SIZES``: the two must agree at every size, and ``fates`` (a
    function of a result) must read the same at every size. Returns the pair
    at the production size."""
    seen = []
    for size in BLOCK_SIZES:
        with draw_block(size):
            ran, stepped = scenario(run_driver), scenario(step_driver)
        assert ran == stepped, size
        if fates is not None:
            seen.append(fates(ran))
    assert seen[1:] == seen[:-1]
    return ran, stepped


class TestPacketHops:
    def test_send_and_arrival_at_the_same_instant(self):
        # Event 2 of a lone probe is its arrival at AS2's interface 1; a
        # probe from ``mid`` is sent at exactly that instant into the same
        # interior channel, and was queued first.
        tie = client_event_times()[2]

        def scenario(drive):
            chain = Chain()
            chain.sim.post(0.0, chain.send_from(chain.client_udp, 1))
            chain.sim.post(tie, chain.send_from(chain.mid_udp, 2))
            drive(chain.sim)
            return chain.state()

        ran, stepped = both(scenario, fates=lambda state: state[0])
        assert ran == stepped
        assert len(ran[0]) == 2  # both echoes came back

    def test_arrival_at_until_and_past_it(self):
        times = client_event_times()
        bounds = [times[2], (times[3] + times[4]) / 2, times[5], None]

        def scenario(drive):
            chain = Chain()
            chain.sim.post(0.0, chain.send_from(chain.client_udp, 1))
            chain.sim.post(times[1], chain.send_from(chain.mid_udp, 2))
            states = []
            for until in bounds:
                drive(chain.sim, until)
                states.append(chain.state())
            return states

        ran, stepped = both(scenario)
        assert ran == stepped
        assert [state[1] for state in ran[:3]] == bounds[:3]

    def test_stop_in_the_middle_of_a_trail(self):
        times = client_event_times()
        halfway = (times[1] + times[2]) / 2

        def scenario(drive):
            chain = Chain()
            sim = chain.sim
            send_mid = chain.send_from(chain.mid_udp, 2)
            stopped = []

            def stop_then_send():
                # A callback stopping the run may not then claim.
                sim.stop()
                stopped.append(sim.now)
                if sim.claim(halfway):
                    send_mid()
                else:
                    sim.post(halfway, send_mid)

            sim.post(0.0, chain.send_from(chain.client_udp, 1))
            sim.post(halfway, stop_then_send)
            if drive is run_driver:
                sim.run()
            else:
                while not stopped:
                    sim.step()
            at_stop = chain.state()
            drive(sim)
            return at_stop, chain.state()

        ran, stepped = both(scenario)
        assert ran == stepped
        at_stop = ran[0]
        assert at_stop[1] == halfway and at_stop[0] == []

    def test_instrumented_simulator_records_the_same(self):
        def scenario(drive):
            chain = Chain()
            obs = Observability.enabled()
            chain.sim.attach_observability(obs)
            for seq in range(1, 6):
                chain.sim.post(seq * 2e-3, chain.send_from(chain.client_udp, seq))
                chain.sim.post(seq * 2e-3, chain.send_from(chain.mid_udp, seq))
            drive(chain.sim)
            return chain.state(), to_prometheus(obs.metrics), to_jsonl(obs.tracer)

        ran, stepped = both(scenario)
        assert ran == stepped
        assert len(ran[0][0]) == 10


class TestEndToEnd:
    def test_executor_echo_pair(self):
        def scenario(sync):
            chain, fleet = deployed_chain(4, seed=3, fleet_seed=4)
            prober = SegmentProber(fleet, probes=12, interval_us=5000)
            segment = chain.registry.shortest(1, 4)
            requests = [SegmentRequest((1, 2), (4, 1), segment)] * 2
            measurements = []
            sim = chain.simulator
            for request in requests:
                if sync:
                    measurement = prober.measure_sync(
                        request.client, request.server, request.segment)
                else:  # the loop ``measure_sync`` ran before ``stop()``
                    measurement = prober.measure(
                        request.client, request.server, request.segment)
                    while measurement.finished_at == 0.0:
                        assert sim.step()
                measurements.append((
                    measurement.client_record.interaction_log,
                    measurement.server_record.interaction_log,
                    measurement.client_record.result,
                    measurement.client_record.fuel_used,
                    measurement.finished_at, sim.now, sim.events_processed,
                    channel_states(chain.topology),
                ))
            return measurements

        results = []
        for size in BLOCK_SIZES:
            with draw_block(size):
                synced, stepped = scenario(True), scenario(False)
            assert synced == stepped, size
            results.append([m[:7] for m in synced])
        assert results[1:] == results[:-1]
        assert all(m[2] for m in synced)

    def test_protocol_study(self):
        def scenario(drive):
            wan = WanScenario.build(seed=8)
            sim = wan.simulator
            sim.run_until_idle = lambda: drive(sim)
            traces = wan.run_protocol_study(probes_per_protocol=25)
            columns = {
                (city, protocol.name): tuple(c.tobytes() for c in trace.columns)
                for city, cells in traces.items()
                for protocol, trace in cells.items()
            }
            return (columns, sim.now, sim.events_processed,
                    channel_states(wan.topology))

        ran, stepped = both(scenario, fates=lambda state: state[:3])
        assert ran == stepped
