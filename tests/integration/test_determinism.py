"""Repo-wide determinism regression: same seed ⇒ same everything.

Two independent guards:

* a full marketplace lifecycle (request → purchase → execute → certify)
  run twice from the same seed must produce identical ledger state
  digests, event streams, and session outcomes;
* the §II WAN protocol study run serially and with ``workers=2`` must
  produce bit-identical probe traces — process fan-out is purely a
  wall-clock decision.
"""

from repro.netsim.packet import Protocol
from repro.workloads.wan import WanScenario
from tests.netsim.probe_records import probe_records

from tests.chaos.helpers import build_testbed


def _run_marketplace_once(seed: int):
    testbed = build_testbed(seed=seed)
    session = testbed.request_echo(deadline_margin=10.0)
    testbed.initiator.run_until_done(session, testbed.chain.simulator)
    testbed.chain.simulator.run()
    return {
        "digest": testbed.ledger.state_digest().hex(),
        "states": session.state_names,
        "history": [(t, s.value) for t, s in session.state_history],
        "events": [
            (e.name, e.sequence, e.emitted_at)
            for e in testbed.ledger.events.history
        ],
        "outcomes": {
            role: (o.status, o.result.hex())
            for role, o in session.outcomes.items()
        },
        "checkpoints": len(testbed.ledger.checkpoints),
    }


def test_marketplace_end_to_end_is_seed_deterministic():
    first = _run_marketplace_once(seed=5)
    second = _run_marketplace_once(seed=5)
    assert first == second
    different = _run_marketplace_once(seed=6)
    assert different["digest"] != first["digest"]


def test_wan_study_serial_equals_workers_two():
    def fingerprint(results):
        return {
            (city, protocol.name): [
                (r.seq, r.send_time, r.rtt) for r in probe_records(trace)
            ]
            for city, by_protocol in results.items()
            for protocol, trace in by_protocol.items()
        }

    scenario_serial = WanScenario.build(seed=3, cities=["frankfurt", "newyork"])
    serial = scenario_serial.run_protocol_study(
        probes_per_protocol=200, fast=True
    )
    scenario_parallel = WanScenario.build(seed=3, cities=["frankfurt", "newyork"])
    parallel = scenario_parallel.run_protocol_study(
        probes_per_protocol=200, fast=True, workers=2
    )
    assert fingerprint(serial) == fingerprint(parallel)
    for city in ("frankfurt", "newyork"):
        for protocol in Protocol:
            assert probe_records(serial[city][protocol]), (
                f"no probes recorded for {city}/{protocol.name}"
            )
