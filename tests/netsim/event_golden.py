"""Golden packet fates of the event engine, and the script behind them.

``event_golden.json`` was recorded at the parent of the compiled forwarding
plan — with the ``DirectedChannel.transit`` that
``tests/netsim/transit_reference.py`` keeps, before ``netsim/conduit.py``,
``congestion.py`` or ``network.py`` were touched. It holds:

- ``table1/<seed>/<probes>``: for each of the 24 (city, protocol) cells of
  the §II study on the packet-level engine, ``sha256(send_times ‖ rtts)``
  (first 16 hex digits, a lost probe's RTT as NaN) and ``[sent, lost]`` —
  natural bursts, churn with protocol filters, weighted per-packet ECMP,
  priority classes and ``base_drop > 0``, all on one shared channel pair
  per city, so one packet drawing out of turn moves every later cell;
- ``localize/<seed>``: one ``dataplane_event``-shaped localization (6-AS
  chain, a ``link_delay`` overlay, sandboxed echo pairs on pinned paths):
  suspects, measurements used, every measurement's ``mean_rtt_ms`` (exact
  ``float.hex``) and the total ``fuel_used``.

``fuel_used`` counts the sandboxed programs' instructions, so it was
re-recorded once when the stock programs began publishing one output
region instead of a ``result_i64`` call per word; every other entry was
unchanged. Everything was re-recorded once more when each channel's draws
split from one stream into one stream per kind (``ChannelDraws``): every
``table1`` cell and the localization's ``mean_rtt_ms`` moved, its suspects,
measurements used and ``fuel_used`` did not.

Check: ``python -m tests.netsim.event_golden --check`` (exit 1 and the names
that moved). Regenerate only if a numpy release changes its ``Generator``
streams: ``python -m tests.netsim.event_golden`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.core import FaultLocalizer, SegmentProber
from repro.netsim import FaultInjector, InterfaceId
from repro.workloads import deployed_chain
from repro.workloads.wan import WanScenario
from tests.netsim.cell_golden import array_hash

GOLDEN_PATH = Path(__file__).with_name("event_golden.json")
TABLE1_SEEDS = (8, 15)
TABLE1_PROBES = (60, 400)
LOCALIZE_SEED = 5
LOCALIZE_ASES = 6
LOCALIZE_PROBES = 40


def table1_cells(seed: int, probes: int) -> dict[str, dict]:
    """``city/PROTOCOL`` -> hash and counts for the event-driven study."""
    study = WanScenario.build(seed=seed).run_protocol_study(
        probes_per_protocol=probes, fast=False
    )
    cells = {}
    for city, traces in study.items():
        for protocol, trace in traces.items():
            cells[f"{city}/{protocol.name}"] = {
                "rtts": array_hash(*trace.columns),
                "sent_lost": [trace.sent, trace.lost],
            }
    return cells


def localization(seed: int = LOCALIZE_SEED) -> dict:
    """What one iteration of the bench's ``dataplane_event`` outputs."""
    scenario, fleet = deployed_chain(LOCALIZE_ASES, seed=seed, fleet_seed=seed + 1)
    FaultInjector(scenario.topology).link_delay(
        InterfaceId(3, 2), InterfaceId(4, 1), extra_delay=20e-3, start=0.0, end=1e12
    )
    prober = SegmentProber(fleet, probes=LOCALIZE_PROBES, interval_us=5000)
    report = FaultLocalizer(prober).localize(
        scenario.registry.shortest(1, LOCALIZE_ASES), strategy="binary"
    )
    measurements = [verdict.measurement for verdict in report.verdicts]
    return {
        "suspects": [str(suspect) for suspect in report.suspects],
        "measurements_used": report.measurements_used,
        "mean_rtt_ms": [m.mean_rtt_ms().hex() for m in measurements],
        "fuel_used": sum(m.client_record.fuel_used for m in measurements),
    }


def generate() -> dict:
    golden = {
        f"table1/{seed}/{probes}": table1_cells(seed, probes)
        for seed in TABLE1_SEEDS
        for probes in TABLE1_PROBES
    }
    golden[f"localize/{LOCALIZE_SEED}"] = localization()
    return golden


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def moved(actual: dict, expected: dict) -> list[str]:
    """Names whose value differs from the golden, one level down."""
    assert sorted(actual) == sorted(expected)
    return [name for name in expected if actual[name] != expected[name]]


def main(argv: list[str]) -> int:
    if argv == ["--check"]:
        golden, now = load(), generate()
        changed = [
            f"{section}: {name}"
            for section in golden
            for name in moved(now[section], golden[section])
        ]
        print("\n".join(changed) if changed else "event golden: every fate identical")
        return 1 if changed else 0
    GOLDEN_PATH.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
