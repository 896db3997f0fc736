"""Differential audit replay: both VM tiers, all four stock programs.

A replay audit re-drives transcripts on the *reference* interpreter, so
its verdicts are only sound if the compiled tier is observationally
identical — same emitted result bytes, same fuel, same return value —
for every program an executor might run. These tests pin that contract
end-to-end: the same seeded scenario is executed once per tier (flipping
:data:`repro.sandbox.program.DEFAULT_TIER`, as ``tests/core/hostop_golden.py``
does), and every execution record must replay bit-for-bit regardless of
which tier produced the transcript.

Also pins the executor-restart contract the audit trail depends on: the
process-wide analysis cache, compiled forms included, stays warm across
a crash/restart, so re-admitted modules recompile zero times and
re-execute identically.
"""

import pytest

import repro.sandbox.compile as compile_ns
import repro.sandbox.program as program_mod
from repro.core.application import DebugletApplication
from repro.core.audit import audit_record
from repro.core.executor import executor_data_address
from repro.netsim import Protocol
from repro.sandbox.programs import (
    echo_client,
    echo_server,
    oneway_receiver,
    oneway_sender,
)
from repro.sandbox.verifier.analysis import ModuleAnalysis
from repro.workloads.scenarios import deployed_chain

pytestmark = pytest.mark.byzantine

COUNT = 6
TIERS = ("reference", "auto")


@pytest.fixture
def tier_flip():
    """Flip the process-wide default tier for one scenario run."""
    previous = program_mod.DEFAULT_TIER

    def flip(tier: str) -> None:
        program_mod.DEFAULT_TIER = tier

    yield flip
    program_mod.DEFAULT_TIER = previous


def _echo_records(seed: int) -> dict:
    """Run echo_client/echo_server through real executors; return records."""
    scenario, fleet = deployed_chain(3, seed=seed, fleet_seed=seed)
    records = {}
    path = scenario.registry.shortest(1, 3)
    server_app = DebugletApplication.from_stock(
        "srv",
        echo_server(Protocol.UDP, max_echoes=COUNT, idle_timeout_us=2_000_000),
        listen_port=7801,
        path=path.reversed().as_list(),
    )
    client_app = DebugletApplication.from_stock(
        "cli",
        echo_client(Protocol.UDP, executor_data_address(3, 1),
                    count=COUNT, interval_us=20_000, dst_port=7801),
        path=path.as_list(),
    )
    start = scenario.simulator.now + 0.2
    fleet.get(3, 1).submit(server_app, start_at=start,
                           on_complete=lambda r: records.__setitem__("srv", r))
    fleet.get(1, 2).submit(client_app, start_at=start + 0.1,
                           on_complete=lambda r: records.__setitem__("cli", r))
    scenario.simulator.run_until_idle()
    assert records["srv"].completed and records["cli"].completed
    return records


def _oneway_records(seed: int) -> dict:
    scenario, fleet = deployed_chain(3, seed=seed, fleet_seed=seed)
    records = {}
    path = scenario.registry.shortest(1, 3)
    receiver_app = DebugletApplication.from_stock(
        "rcv",
        oneway_receiver(Protocol.UDP, max_probes=COUNT,
                        idle_timeout_us=2_000_000),
        listen_port=9101,
    )
    sender_app = DebugletApplication.from_stock(
        "snd",
        oneway_sender(Protocol.UDP, executor_data_address(3, 1),
                      count=COUNT, interval_us=20_000, dst_port=9101),
        path=path.as_list(),
    )
    start = scenario.simulator.now + 0.2
    fleet.get(3, 1).submit(receiver_app, start_at=start,
                           on_complete=lambda r: records.__setitem__("rcv", r))
    fleet.get(1, 2).submit(sender_app, start_at=start + 0.1,
                           on_complete=lambda r: records.__setitem__("snd", r))
    scenario.simulator.run_until_idle()
    assert records["snd"].completed and records["rcv"].completed
    return records


def _fingerprint(record) -> tuple:
    return (record.result, record.fuel_used, len(record.interaction_log))


class TestTierDifferentialReplay:
    @pytest.mark.parametrize("runner", [_echo_records, _oneway_records],
                             ids=["echo", "oneway"])
    def test_tiers_agree_and_both_transcripts_replay(self, tier_flip, runner):
        by_tier = {}
        for tier in TIERS:
            tier_flip(tier)
            by_tier[tier] = runner(seed=21)
        roles = sorted(by_tier[TIERS[0]])
        for role in roles:
            reference = by_tier["reference"][role]
            compiled = by_tier["auto"][role]
            # The tiers are observationally identical under live traffic.
            assert _fingerprint(reference) == _fingerprint(compiled), role
            # And each tier's transcript replays bit-for-bit: published
            # result, fuel, and every boundary crossing reproduced.
            for tier, record in (("reference", reference), ("auto", compiled)):
                ok, findings, report = audit_record(record)
                assert ok, f"{role}@{tier}: {findings}"
                assert report.result == record.result
                assert report.fuel_used == record.fuel_used

    def test_forged_byte_fails_replay_on_both_tiers(self, tier_flip):
        # Sanity for the oracle: the differential harness is not vacuous.
        for tier in TIERS:
            tier_flip(tier)
            record = _echo_records(seed=22)["cli"]
            forged = bytearray(record.result)
            forged[-1] ^= 0x01
            ok, findings, _ = audit_record(
                record, published_result=bytes(forged)
            )
            assert not ok
            assert any("does not match" in f for f in findings)


class TestRestartKeepsCompileCacheWarm:
    def test_readmitted_module_recompiles_nothing(self, monkeypatch):
        # Crash the client executor mid-life, restart it, and run the
        # same application again: the second run must be pure hits on the
        # modules' analyses (zero new compiles) and still complete
        # identically.
        counts = {"compiles": 0, "lookups": 0}
        compile_module, lookup = compile_ns.compile_module, compile_ns.get_compiled

        def counting_compile(module):
            counts["compiles"] += 1
            return compile_module(module)

        def counting_lookup(module, obs=None):
            counts["lookups"] += 1
            return lookup(module, obs=obs)

        monkeypatch.setattr(compile_ns, "compile_module", counting_compile)
        monkeypatch.setattr(compile_ns, "get_compiled", counting_lookup)
        with ModuleAnalysis._lock:
            ModuleAnalysis._shared.clear()
        scenario, fleet = deployed_chain(3, seed=23, fleet_seed=23)
        path = scenario.registry.shortest(1, 3)

        def run_once() -> object:
            records = {}
            server_app = DebugletApplication.from_stock(
                "srv",
                echo_server(Protocol.UDP, max_echoes=COUNT,
                            idle_timeout_us=2_000_000),
                listen_port=7801,
                path=path.reversed().as_list(),
            )
            client_app = DebugletApplication.from_stock(
                "cli",
                echo_client(Protocol.UDP, executor_data_address(3, 1),
                            count=COUNT, interval_us=20_000, dst_port=7801),
                path=path.as_list(),
            )
            start = scenario.simulator.now + 0.2
            fleet.get(3, 1).submit(
                server_app, start_at=start,
                on_complete=lambda r: records.__setitem__("srv", r),
            )
            fleet.get(1, 2).submit(
                client_app, start_at=start + 0.1,
                on_complete=lambda r: records.__setitem__("cli", r),
            )
            scenario.simulator.run_until_idle()
            return records["cli"]

        first = run_once()
        assert first.completed
        warm = dict(counts)
        assert warm["compiles"] > 0

        executor = fleet.get(1, 2)
        executor.crash()
        assert executor.crashed
        executor.restart()
        assert not executor.crashed

        second = run_once()
        assert second.completed
        assert counts["compiles"] == warm["compiles"], (
            "restart must not cold-start the compiled forms"
        )
        assert counts["lookups"] > warm["lookups"]
        # Warm-cache execution is just as auditable: the post-restart
        # transcript replays bit-for-bit (RTT values differ across runs
        # — later simulated time — so only the shape is comparable).
        assert len(second.result) == len(first.result)
        ok, findings, report = audit_record(second)
        assert ok, findings
        assert report.result == second.result
