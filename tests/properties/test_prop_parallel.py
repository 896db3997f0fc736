"""Property tests: process-parallel cell execution equals serial exactly.

Each :class:`ProbeCell` carries its own derived seed, so ``simulate_cell``
is a pure function of the cell and fanning cells over worker processes is
purely a wall-clock decision — the traces must be bit-identical to a
serial run, in input order, for any worker count.
"""

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.netsim.fastpath import cell_seed, extract_probe_cell
from repro.netsim.packet import Protocol
from repro.perf import parallel
from repro.perf.parallel import map_cells
from repro.workloads.wan import WanScenario
from repro.workloads.wanbench import build_continent, run_campaign, small_config


def _fingerprint(traces):
    return [
        (
            trace.label,
            trace.protocol.name,
            tuple((r.seq, r.send_time, r.rtt) for r in trace.records),
        )
        for trace in traces
    ]


def _make_cells(count=300):
    scenario = WanScenario.build(seed=7, cities=["frankfurt", "newyork"])
    cells = []
    for name, host in scenario.city_hosts.items():
        for index, protocol in enumerate(
            (Protocol.ICMP, Protocol.RAW_IP, Protocol.UDP, Protocol.TCP)
        ):
            in_band = protocol in (Protocol.UDP, Protocol.TCP)
            cells.append(
                extract_probe_cell(
                    scenario.network,
                    host,
                    scenario.london.address,
                    protocol,
                    count=count,
                    interval=1.0,
                    start=index * 0.01,
                    src_port=40000 + index if in_band else 0,
                    dst_port=7 if in_band else 0,
                    seed=cell_seed(7, name, protocol.name),
                    label=f"{name}/{protocol.name}",
                )
            )
    return cells


@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_is_bit_identical_to_serial(workers):
    cells = _make_cells()
    serial = map_cells(cells)
    parallel = map_cells(cells, workers=workers)
    assert _fingerprint(serial) == _fingerprint(parallel)


def test_cell_results_are_order_independent():
    cells = _make_cells(count=150)
    forward = map_cells(cells)
    backward = map_cells(list(reversed(cells)))
    assert _fingerprint(forward) == _fingerprint(list(reversed(backward)))


def test_scenario_level_parallel_matches_serial():
    scenario = WanScenario.build(seed=7, cities=["frankfurt"])
    serial = scenario.run_protocol_study(
        probes_per_protocol=400, fast=True
    )
    parallel = scenario.run_protocol_study(
        probes_per_protocol=400, fast=True, workers=2
    )
    for protocol in Protocol:
        a = serial["frankfurt"][protocol].records
        b = parallel["frankfurt"][protocol].records
        assert [(r.seq, r.send_time, r.rtt) for r in a] == [
            (r.seq, r.send_time, r.rtt) for r in b
        ]


# ------------------------------------------------------------ degraded mode


def _refuse_to_spawn(*args, **kwargs):
    raise OSError("cannot allocate a worker process")


class BreaksAfter:
    """An inline stand-in for the process pool: ``healthy`` tasks complete,
    every later one finds the pool broken."""

    healthy = 1

    def __init__(self, max_workers=None):
        self.submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        future = Future()
        if self.submitted <= self.healthy:
            future.set_result(fn(*args))
        else:
            future.set_exception(BrokenProcessPool("a worker died"))
        return future

    def shutdown(self, wait=True):
        pass


def _run_study(workers):
    traces = map_cells(_make_cells(count=100), workers=workers)
    return _fingerprint(traces), None


def _run_campaign(workers):
    scenario = build_continent(small_config(episodes=4))
    outcome = run_campaign(scenario, workers=workers)
    # Neither broken pool below completes a batch, so no worker did the work.
    assert outcome.workers == 0
    return outcome.digest, outcome.fallbacks  # CampaignResult.fallbacks


@pytest.mark.parametrize(
    "broken_pool", [_refuse_to_spawn, BreaksAfter],
    ids=["spawn-fails", "breaks-mid-batch"],
)
@pytest.mark.parametrize(
    "run", [_run_study, _run_campaign], ids=["map_cells", "run_campaign"]
)
def test_pool_failure_degrades_to_serial_and_says_so(monkeypatch, run, broken_pool):
    expected, undisturbed = run(0)
    assert not undisturbed
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", broken_pool)
    before = parallel.fallback_serial_total
    result, reported = run(2)  # no exception escapes
    assert result == expected
    assert parallel.fallback_serial_total == before + 1
    assert reported in (None, 1)
