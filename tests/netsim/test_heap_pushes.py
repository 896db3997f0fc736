"""How many events a probe puts on the heap, counted.

A packet hop or a host-call resume that is the next event due is claimed
in place (``Simulator.claim``) instead of going through the heap, so the
number of heap pushes per probe is the event engine's per-packet cost that
claiming removes. It is pinned here, counted at ``post`` and
``schedule_at`` (every push goes through one of them), on:

* the §II study on the packet-level engine (seed 8, 400 probes per cell):
  a probe is 7 events — its send, three hops out, three back — of which
  5.16 reach the heap; the send and each direction's first hop always do
  (``Network.send`` is called mid-callback), the second and third hops
  when nothing else is due before them;
* one sandboxed echo pair of ``dataplane_event`` (6 ASes, 100 probes every
  5 ms): 8.07 pushes per answered probe, down from 33.08 when every hop
  and every resume of both programs was an event.

The event count itself does not move: a claimed event is counted as one.
Nothing is timed. The study's counts were re-pinned once (67 154 events and
49 604 pushes, 5.17 per probe, before) when each channel's draws split
into one stream per kind: other probes are lost, at other hops.
"""

import pytest

from repro.core import SegmentProber
from repro.netsim.engine import Simulator
from repro.workloads import deployed_chain
from repro.workloads.wan import WanScenario


@pytest.fixture
def pushes(monkeypatch):
    """A one-element list counting heap pushes from here on."""
    count = [0]
    schedule_at, post = Simulator.schedule_at, Simulator.post

    def counted_schedule_at(sim, *args):
        count[0] += 1
        return schedule_at(sim, *args)

    def counted_post(sim, *args):
        count[0] += 1
        return post(sim, *args)

    monkeypatch.setattr(Simulator, "schedule_at", counted_schedule_at)
    monkeypatch.setattr(Simulator, "post", counted_post)
    return count


def test_protocol_study_pushes_per_probe(pushes):
    scenario = WanScenario.build(seed=8)
    pushes[0] = 0
    traces = scenario.run_protocol_study(probes_per_protocol=400)
    probes = sum(trace.sent for cells in traces.values() for trace in cells.values())
    assert probes == 9_600
    assert scenario.simulator.events_processed == 67_161  # 7 per probe
    assert pushes[0] == 49_564  # 5.16 per probe


def test_echo_pair_pushes_per_answered_probe(pushes):
    chain, fleet = deployed_chain(6, seed=1, fleet_seed=2)
    prober = SegmentProber(fleet, probes=100, interval_us=5000)
    pushes[0] = 0
    measurement = prober.measure_sync((1, 2), (6, 1), chain.registry.shortest(1, 6))
    assert measurement.ok and measurement.loss_rate() == 0.0
    assert chain.simulator.events_processed == 3_106
    assert pushes[0] == 807  # 8.07 per answered probe
