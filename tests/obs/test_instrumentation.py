"""Integration tests: the instrumented seams actually record.

Covers engine dispatch accounting, VM fuel/trap/host-op metrics, ledger
tx accounting, marketplace session lifecycle spans/transitions, chaos
fault events, and the :class:`SessionStalled` diagnostics that ride on
the engine's recent-dispatch ring.
"""

import pytest

from repro.chaos import ChaosInjector
from repro.common.errors import FuelExhausted, SessionStalled
from repro.netsim import Simulator
from repro.obs import Observability
from repro.sandbox.assembler import assemble
from repro.sandbox.vm import VM, Done
from repro.workloads import MarketplaceTestbed

pytestmark = pytest.mark.obs


def counter_value(obs, name, **labels) -> int:
    return obs.metrics.counter(name, **labels).value


class TestEngineInstrumentation:
    def test_dispatch_and_cancellation_counters(self):
        simulator = Simulator()
        obs = Observability.enabled()
        simulator.attach_observability(obs)
        fired = []
        for index in range(10):
            simulator.schedule(index * 0.1, fired.append, index)
        handle = simulator.schedule(0.55, fired.append, 99)
        handle.cancel()
        simulator.run_until_idle()
        assert fired == list(range(10))
        assert counter_value(obs, "engine_events_total") == 10
        assert counter_value(obs, "engine_events_cancelled_total") == 1
        lead = obs.metrics.histogram("engine_event_lead_seconds")
        assert lead.total == 11  # every schedule observed its lead time

    def test_recent_event_ring_for_diagnostics(self):
        simulator = Simulator()
        simulator.attach_observability(Observability.enabled())
        simulator.schedule(0.5, lambda: None)
        simulator.run_until_idle()
        lines = simulator.recent_event_lines()
        assert len(lines) == 1
        assert lines[0].startswith("t=0.500000s")

    def test_detached_simulator_has_no_ring(self):
        simulator = Simulator()
        simulator.schedule(0.1, lambda: None)
        simulator.run_until_idle()
        assert simulator.recent_event_lines() == []


class TestVmInstrumentation:
    SOURCE = (
        ".memory 4096\n.func run_debuglet 0 0\n"
        "push 1\npush 2\nadd\nret\n.end"
    )

    LOOP = (
        ".memory 4096\n.func run_debuglet 0 0\n"
        "loop:\njmp loop\n.end"
    )

    def test_completion_records_fuel(self):
        obs = Observability.enabled()
        vm = VM(assemble(self.SOURCE), obs=obs)
        step = vm.start()
        assert isinstance(step, Done)
        assert counter_value(obs, "vm_runs_completed_total") == 1
        assert obs.metrics.histogram("vm_fuel_used").total == 1

    def test_trap_records_kind(self):
        obs = Observability.enabled()
        vm = VM(assemble(self.LOOP), fuel_limit=100, obs=obs)
        with pytest.raises(FuelExhausted):
            vm.start()
        assert counter_value(obs, "vm_traps_total", kind="FuelExhausted") == 1

    def test_uninstrumented_vm_still_runs(self):
        vm = VM(assemble(self.SOURCE))
        assert isinstance(vm.start(), Done)


def build_quickstart(obs=None) -> MarketplaceTestbed:
    return MarketplaceTestbed.build(n_ases=3, seed=1, obs=obs)


class TestMarketplaceInstrumentation:
    def test_certified_session_records_lifecycle(self):
        obs = Observability.enabled()
        testbed = build_quickstart(obs=obs)
        session = testbed.request_echo()
        testbed.initiator.run_until_done(session, testbed.chain.simulator)

        # One session span, opened at request and closed at certification.
        spans = [s for s in obs.tracer.spans if s.name == "marketplace.session"]
        assert len(spans) == 1
        assert spans[0].attributes["state"] == "certified"
        assert spans[0].corr == "session:1"

        # The two executions correlate back to their applications.
        executions = [
            s for s in obs.tracer.spans if s.name == "executor.execution"
        ]
        assert len(executions) == 2
        assert {s.attributes["status"] for s in executions} == {"completed"}
        assert all(s.attributes["fuel_used"] > 0 for s in executions
                   if s.attributes["sandboxed"])

        # State machine counters walked pending->purchased->running->certified.
        for state in ("pending", "purchased", "running", "certified"):
            assert counter_value(
                obs, "marketplace_session_transitions_total", state=state
            ) == 1

        # Ledger accounting saw successful transactions, none reverted/gated.
        transitions = [
            e for e in obs.tracer.events if e.name == "marketplace.session_state"
        ]
        assert [e.attributes["to_state"] for e in transitions] == [
            "pending", "purchased", "running", "certified",
        ]
        assert counter_value(
            obs, "marketplace_publications_total", status="published"
        ) == 2

    def test_ledger_tx_accounting(self):
        obs = Observability.enabled()
        testbed = build_quickstart(obs=obs)
        session = testbed.request_echo()
        testbed.initiator.run_until_done(session, testbed.chain.simulator)
        success = sum(
            metric.value
            for kind, name, labels, metric in obs.metrics.snapshot()
            if name == "ledger_tx_total" and ("status", "success") in labels
        )
        assert success == len(testbed.ledger.transactions)
        tx_events = [e for e in obs.tracer.events if e.name == "chain.tx"]
        assert len(tx_events) == len(testbed.ledger.transactions)

    def test_chaos_outage_records_retries_and_fault_events(self):
        obs = Observability.enabled()
        testbed = build_quickstart(obs=obs)
        simulator = testbed.chain.simulator
        injector = ChaosInjector(simulator, testbed.ledger, seed=1)
        injector.fail_transactions(start=simulator.now, end=simulator.now + 3.0)
        session = testbed.request_echo(deadline_margin=10.0)
        testbed.initiator.run_until_done(session, simulator, timeout=900.0)
        assert counter_value(
            obs, "marketplace_retries_total", kind="purchase"
        ) == session.purchase_retries > 0
        assert counter_value(
            obs, "chaos_faults_injected_total", kind="tx-failure"
        ) == 1
        # The outage's first refused call is the initiator's lookup_slot,
        # a ledger read: the gate refuses reads as it refuses writes.
        assert counter_value(
            obs, "ledger_reads_total", status="gated", function="lookup_slot"
        ) >= 1
        gated = [e for e in obs.tracer.events if e.name == "chain.read_gated"]
        assert gated and "chaos window" in gated[0].attributes["reason"]
        assert gated[0].attributes["function"] == "lookup_slot"
        windows = [s for s in obs.tracer.spans if s.component == "chaos"]
        assert len(windows) == 1
        assert windows[0].name == "chaos.tx-failure"

    def test_crash_fault_fires_and_revokes(self):
        obs = Observability.enabled()
        testbed = build_quickstart(obs=obs)
        simulator = testbed.chain.simulator
        injector = ChaosInjector(simulator, testbed.ledger, seed=1)
        fault = injector.crash_executor(
            testbed.agents[(1, 2)].executor, at=1.0, restart_at=2.0
        )
        simulator.run(until=1.5)
        assert counter_value(
            obs, "chaos_faults_fired_total", kind="executor-crash"
        ) == 1
        assert counter_value(obs, "executor_crashes_total", vantage="1:2") == 1
        fault.revoke()
        assert counter_value(
            obs, "chaos_faults_revoked_total", kind="executor-crash"
        ) == 1
        restarts = [e for e in obs.tracer.events if e.name == "executor.restart"]
        assert len(restarts) == 1


class TestSessionStalledDiagnostics:
    @staticmethod
    def _stall(testbed):
        """Results certified but never published, no deadline: the session
        stays RUNNING until the simulator goes idle."""
        simulator = testbed.chain.simulator
        injector = ChaosInjector(simulator, testbed.ledger, seed=1)
        injector.drop_publications(testbed.agents[(1, 2)], start=0.0, end=1e12)
        injector.drop_publications(testbed.agents[(3, 1)], start=0.0, end=1e12)
        session = testbed.request_echo()
        with pytest.raises(SessionStalled) as excinfo:
            testbed.initiator.run_until_done(session, simulator, timeout=900.0)
        return excinfo

    def test_stall_message_carries_history_and_engine_events(self):
        obs = Observability.enabled()
        excinfo = self._stall(build_quickstart(obs=obs))
        message = str(excinfo.value)
        assert "session state: running" in message
        assert "history:" in message and "pending@" in message
        assert "running@" in message
        assert "last engine events:" in message
        assert "t=" in message.split("last engine events:")[1]
        assert excinfo.value.events  # structured copy for tooling

    def test_stall_without_observability_still_reports_state(self):
        excinfo = self._stall(build_quickstart())
        message = str(excinfo.value)
        assert "session state: running" in message
        assert "last engine events" not in message
        assert excinfo.value.events == []
