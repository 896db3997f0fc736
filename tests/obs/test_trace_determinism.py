"""The determinism contract: same seed => bit-identical exports.

Two fully independent chaos-marketplace runs with the same seed must
produce byte-for-byte identical JSONL event logs, Chrome traces, and
Prometheus snapshots (DESIGN.md §9). This doubles as a determinism
regression oracle for the whole stack: any nondeterminism in the engine,
VM, ledger, or chaos layer shows up here as a byte diff.
"""

import pytest

from repro.chaos import ChaosInjector
from repro.core import DebugletApplication
from repro.core.executor import executor_data_address
from repro.netsim import Protocol
from repro.obs import Observability, to_chrome_trace, to_jsonl, to_prometheus
from repro.sandbox import echo_client, echo_server
from repro.workloads import MarketplaceTestbed, WanScenario

pytestmark = pytest.mark.obs


def run_chaos_scenario(seed: int) -> Observability:
    """One marketplace measurement through a ledger outage, instrumented."""
    obs = Observability.enabled()
    testbed = MarketplaceTestbed.build(n_ases=3, seed=seed, obs=obs)
    simulator = testbed.chain.simulator
    injector = ChaosInjector(simulator, testbed.ledger, seed=seed)
    injector.fail_transactions(start=simulator.now, end=simulator.now + 3.0)
    injector.crash_executor(
        testbed.agents[(1, 2)].executor, at=6.0, restart_at=8.0
    )

    path = testbed.chain.registry.shortest(1, 3)
    count = 10
    server_app = DebugletApplication.from_stock(
        "srv",
        echo_server(Protocol.UDP, max_echoes=count, idle_timeout_us=3_000_000),
        listen_port=7801,
        path=path.reversed().as_list(),
    )
    client_app = DebugletApplication.from_stock(
        "cli",
        echo_client(Protocol.UDP, executor_data_address(3, 1),
                    count=count, interval_us=50_000, dst_port=7801),
        path=path.as_list(),
    )
    session = testbed.initiator.request_measurement(
        client_app, server_app, (1, 2), (3, 1), duration=30.0,
        deadline_margin=10.0, max_attempts=2,
    )
    testbed.initiator.run_until_done(session, simulator, timeout=900.0)
    return obs


def exports(obs: Observability) -> tuple[bytes, bytes, bytes]:
    return (
        to_jsonl(obs.tracer).encode("utf-8"),
        to_chrome_trace(obs.tracer, obs.metrics).encode("utf-8"),
        to_prometheus(obs.metrics).encode("utf-8"),
    )


def test_same_seed_chaos_runs_emit_identical_bytes():
    first = exports(run_chaos_scenario(seed=5))
    second = exports(run_chaos_scenario(seed=5))
    assert first[0] == second[0]  # JSONL event log
    assert first[1] == second[1]  # Chrome trace
    assert first[2] == second[2]  # Prometheus snapshot
    assert len(first[0]) > 0 and len(first[2]) > 0


def test_different_seeds_diverge():
    a = exports(run_chaos_scenario(seed=5))
    b = exports(run_chaos_scenario(seed=6))
    assert a[0] != b[0]


def test_same_seed_table1_fast_runs_emit_identical_bytes():
    def run() -> Observability:
        obs = Observability.enabled()
        scenario = WanScenario.build(seed=11, cities=["frankfurt"], obs=obs)
        scenario.run_protocol_study(probes_per_protocol=50, fast=True)
        return obs

    assert exports(run()) == exports(run())


def test_same_seed_exports_are_identical_across_processes(tmp_path):
    """Inside one process the compile cache is warm for the second run, so
    the in-process checks above cannot see a wall-clock figure that was
    measured once and replayed. Two interpreters can: the export must
    hold functions of the seed and the modules only."""
    import os
    import subprocess
    import sys

    def run(tag: str) -> tuple[bytes, bytes]:
        events, metrics = tmp_path / f"{tag}.jsonl", tmp_path / f"{tag}.prom"
        subprocess.run(
            [sys.executable, "-m", "repro", "quickstart", "--probes", "10",
             "--events-out", str(events), "--metrics-out", str(metrics)],
            capture_output=True, timeout=110, check=True,
            env=os.environ
            | {"PYTHONPATH": os.pathsep.join(filter(None, sys.path))},
        )
        return events.read_bytes(), metrics.read_bytes()

    first, second = run("a"), run("b")
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert b"vm_compile_instructions_sum" in first[1]
