"""The executor: sandbox bridging, manifest enforcement, certification."""

import pytest

from repro.chain.crypto import sha256, verify_signature
from repro.common.errors import ManifestError
from repro.core.application import DebugletApplication
from repro.core.executor import SETUP_TIME, Executor, executor_data_address
from repro.core.results import EchoMeasurement, ServerReport
from repro.netsim.packet import Address, Protocol
from repro.sandbox.manifest import ExecutorPolicy, Manifest
from repro.sandbox.programs import echo_client, echo_server
from repro.sandbox.programs_native import native_echo_client, native_echo_server
from repro.sandbox.assembler import assemble


def _executors(two_as_network):
    sim, topo, net, _, _ = two_as_network
    return sim, Executor(net, 1, 1, seed=1), Executor(net, 2, 1, seed=2)


def _run_pair(sim, ex_client, ex_server, client_app, server_app):
    records = {}
    start = sim.now + 0.5
    ex_server.submit(server_app, start_at=start,
                     on_complete=lambda r: records.__setitem__("server", r))
    ex_client.submit(client_app, start_at=start + 0.1,
                     on_complete=lambda r: records.__setitem__("client", r))
    sim.run_until_idle()
    return records


def _echo_pair(server_addr, count=10, protocol=Protocol.UDP, port=7001):
    server_app = DebugletApplication.from_stock(
        "srv",
        echo_server(protocol, max_echoes=count, idle_timeout_us=2_000_000),
        listen_port=port,
    )
    client_app = DebugletApplication.from_stock(
        "cli",
        echo_client(protocol, server_addr, count=count, interval_us=50_000,
                    dst_port=port),
    )
    return client_app, server_app


class TestBasicExecution:
    def test_d2d_echo_measurement_completes(self, two_as_network):
        sim, ex_a, ex_b = _executors(two_as_network)
        client_app, server_app = _echo_pair(ex_b.data_address)
        records = _run_pair(sim, ex_a, ex_b, client_app, server_app)
        assert records["client"].completed
        assert records["server"].completed
        echo = EchoMeasurement.from_result(records["client"].result, probes_sent=10)
        assert echo.received == 10
        assert ServerReport.from_result(records["server"].result).echoes == 10

    def test_all_protocols_work(self, two_as_network):
        sim, ex_a, ex_b = _executors(two_as_network)
        all_records = {}
        for index, protocol in enumerate(Protocol):
            client_app, server_app = _echo_pair(
                ex_b.data_address, count=3, protocol=protocol, port=7100 + index
            )
            all_records[protocol] = _run_pair(sim, ex_a, ex_b, client_app, server_app)
        for protocol, records in all_records.items():
            assert records["client"].completed, protocol
            echo = EchoMeasurement.from_result(records["client"].result, probes_sent=3)
            assert echo.received == 3, protocol

    def test_setup_time_delays_sandboxed_start(self, two_as_network):
        sim, ex_a, _ = _executors(two_as_network)
        app, _ = _echo_pair(executor_data_address(2, 1), count=1)
        record = ex_a.submit(app, start_at=1.0)
        sim.run_until_idle()
        assert record.started_at >= 1.0 + SETUP_TIME * 0.9

    def test_native_program_starts_without_setup(self, two_as_network):
        sim, ex_a, ex_b = _executors(two_as_network)
        app = DebugletApplication(
            "native",
            echo_server(Protocol.UDP, max_echoes=1, idle_timeout_us=1000).manifest,
            native_factory=lambda: native_echo_server(
                Protocol.UDP, max_echoes=1, idle_timeout_us=1000
            ),
            listen_port=7300,
        )
        record = ex_b.submit(app, start_at=1.0)
        sim.run_until_idle()
        assert record.started_at == pytest.approx(1.0)

    def test_fuel_used_recorded(self, two_as_network):
        sim, ex_a, ex_b = _executors(two_as_network)
        client_app, server_app = _echo_pair(ex_b.data_address, count=2)
        records = _run_pair(sim, ex_a, ex_b, client_app, server_app)
        assert records["client"].fuel_used > 0


class TestSandboxOverhead:
    def test_d2d_minus_a2a_is_about_300us(self, two_as_network):
        sim, ex_a, ex_b = _executors(two_as_network)
        count = 20
        # Sandboxed pair.
        client_app, server_app = _echo_pair(ex_b.data_address, count=count, port=7401)
        d2d = _run_pair(sim, ex_a, ex_b, client_app, server_app)
        # Native pair.
        native_server = DebugletApplication(
            "nsrv",
            echo_server(Protocol.UDP, max_echoes=count, idle_timeout_us=2_000_000).manifest,
            native_factory=lambda: native_echo_server(
                Protocol.UDP, max_echoes=count, idle_timeout_us=2_000_000
            ),
            listen_port=7402,
        )
        native_client = DebugletApplication(
            "ncli",
            echo_client(
                Protocol.UDP, ex_b.data_address, count=count, interval_us=50_000,
                dst_port=7402,
            ).manifest,
            native_factory=lambda: native_echo_client(
                Protocol.UDP, count=count, interval_us=50_000, dst_port=7402
            ),
        )
        a2a = _run_pair(sim, ex_a, ex_b, native_client, native_server)
        d2d_mean = EchoMeasurement.from_result(
            d2d["client"].result, probes_sent=count
        ).mean_rtt_ms()
        a2a_mean = EchoMeasurement.from_result(
            a2a["client"].result, probes_sent=count
        ).mean_rtt_ms()
        overhead_us = (d2d_mean - a2a_mean) * 1e3
        assert 200 < overhead_us < 400  # the paper's ~300 us


class TestManifestEnforcement:
    def test_policy_rejects_at_admission(self, two_as_network):
        _, ex_a, ex_b = _executors(two_as_network)
        ex_a.policy = ExecutorPolicy(max_packets_sent=1)
        client_app, _ = _echo_pair(ex_b.data_address, count=10)
        with pytest.raises(ManifestError):
            ex_a.submit(client_app)

    def test_undeclared_contact_aborts_execution(self, two_as_network):
        sim, ex_a, _ = _executors(two_as_network)
        # Client program sends to contact 0, but the manifest declares none.
        stock = echo_client(Protocol.UDP, executor_data_address(2, 1), count=1)
        manifest = Manifest(
            max_instructions=stock.manifest.max_instructions,
            max_duration=stock.manifest.max_duration,
            max_memory_bytes=stock.manifest.max_memory_bytes,
            max_packets_sent=10,
            max_packets_received=10,
            contacts=(),  # nothing declared
            capabilities=("udp",),
        )
        app = DebugletApplication(
            "cli", manifest, module=stock.module, args=stock.args
        )
        record = ex_a.submit(app)
        sim.run_until_idle()
        assert record.failed
        assert "contact" in record.status

    def test_undeclared_capability_rejected_at_construction(self, two_as_network):
        # The protocol is a static constant, so capability inference
        # catches the mismatch before the application even exists.
        stock = echo_client(Protocol.UDP, executor_data_address(2, 1), count=1)
        manifest = Manifest(
            max_instructions=stock.manifest.max_instructions,
            max_duration=stock.manifest.max_duration,
            max_memory_bytes=stock.manifest.max_memory_bytes,
            max_packets_sent=10,
            max_packets_received=10,
            contacts=stock.manifest.contacts,
            capabilities=("tcp",),  # program uses UDP
        )
        with pytest.raises(ManifestError, match="capabilities"):
            DebugletApplication("cli", manifest, module=stock.module)

    def test_capability_enforced_at_runtime(self, two_as_network):
        # The protocol arrives as an argument — statically Top — so the
        # verifier cannot prove misuse and runtime enforcement is the gate.
        sim, ex_a, _ = _executors(two_as_network)
        source = """
        .memory 4096
        .buffer send_buffer 0 64
        .func run_debuglet 1 0      ; param 0: protocol number
            local_get 0
            push 0
            push 7
            push 0
            push 8
            host net_send
            drop
            push 0
            ret
        .end
        """
        manifest = Manifest(
            max_instructions=1000, max_duration=10.0, max_memory_bytes=4096,
            max_packets_sent=10, max_packets_received=10,
            contacts=(executor_data_address(2, 1),),
            capabilities=("udp",),
        )
        app = DebugletApplication(
            "dyn", manifest, module=assemble(source),
            args=(Protocol.TCP.wire_number,),  # undeclared at run time
        )
        record = ex_a.submit(app)
        sim.run_until_idle()
        assert record.failed
        assert "capability" in record.status

    def test_send_budget_enforced(self, two_as_network):
        sim, ex_a, ex_b = _executors(two_as_network)
        stock = echo_client(
            Protocol.UDP, ex_b.data_address, count=10, interval_us=1000,
            timeout_us=100, drain_us=100,
        )
        manifest = Manifest(
            max_instructions=stock.manifest.max_instructions,
            max_duration=stock.manifest.max_duration,
            max_memory_bytes=stock.manifest.max_memory_bytes,
            max_packets_sent=3,  # fewer than the program will try
            max_packets_received=10,
            contacts=stock.manifest.contacts,
            capabilities=("udp",),
        )
        app = DebugletApplication(
            "cli", manifest, module=stock.module, args=stock.args
        )
        record = ex_a.submit(app)
        sim.run_until_idle()
        assert record.failed
        assert "send budget" in record.status
        assert record.packets_sent == 3

    def test_duration_limit_kills_long_run(self, two_as_network):
        sim, ex_a, _ = _executors(two_as_network)
        # Server that waits 100 s for probes that never come, with a 1 s cap.
        stock = echo_server(Protocol.UDP, max_echoes=5, idle_timeout_us=100_000_000)
        manifest = Manifest(
            max_instructions=stock.manifest.max_instructions,
            max_duration=1.0,
            max_memory_bytes=stock.manifest.max_memory_bytes,
            max_packets_sent=5,
            max_packets_received=5,
            contacts=(),
            capabilities=("udp",),
        )
        app = DebugletApplication("srv", manifest, module=stock.module,
                                  listen_port=7500)
        record = ex_a.submit(app)
        sim.run_until_idle()
        assert record.failed
        assert "duration" in record.status

    def test_result_size_limit(self, two_as_network):
        sim, ex_a, _ = _executors(two_as_network)
        source = """
        .memory 4096
        .func run_debuglet 0 1
        loop:
            local_get 0
            push 100
            ges
            jnz done
            local_get 0
            host result_i64
            drop
            local_get 0
            push 1
            add
            local_set 0
            jmp loop
        done:
            push 0
            ret
        .end
        """
        # 100 results x 8 bytes blows the 64-byte cap at run time; the
        # loop itself is statically bounded, so verification admits it.
        manifest = Manifest(
            max_instructions=10**7, max_duration=10.0, max_memory_bytes=4096,
            max_packets_sent=0, max_packets_received=0,
            capabilities=(), max_result_bytes=64,
        )
        app = DebugletApplication("big", manifest, module=assemble(source))
        record = ex_a.submit(app)
        sim.run_until_idle()
        assert record.failed
        assert "result exceeds" in record.status

    def test_fuel_exhaustion_fails_execution(self):
        # A spin loop fails verification (V302), so no executor admits it
        # (next test); the runtime fuel trap that backstops the verifier
        # is driven on the program itself, on both tiers.
        from repro.common.errors import FuelExhausted
        from repro.sandbox.program import VMProgram

        source = ".memory 4096\n.func run_debuglet 0 0\nloop:\njmp loop\n.end"
        spent = set()
        for tier in ("reference", "auto"):
            program = VMProgram(assemble(source), fuel_limit=1000, tier=tier)
            with pytest.raises(FuelExhausted, match="fuel"):
                program.begin([])
            spent.add(program.fuel_used)
        assert spent == {1001}  # the instruction past the limit traps

    def test_unverifiable_program_rejected_in_strict_mode(self, two_as_network):
        from repro.common.errors import PolicyViolation

        sim, ex_a, _ = _executors(two_as_network)
        source = ".memory 4096\n.func run_debuglet 0 0\nloop:\njmp loop\n.end"
        manifest = Manifest(
            max_instructions=1000, max_duration=10.0, max_memory_bytes=4096,
            max_packets_sent=0, max_packets_received=0, capabilities=(),
        )
        app = DebugletApplication("spin", manifest, module=assemble(source))
        with pytest.raises(PolicyViolation, match="V302"):
            ex_a.submit(app)


class TestCertification:
    def test_certificate_signed_and_binding(self, two_as_network):
        sim, ex_a, ex_b = _executors(two_as_network)
        client_app, server_app = _echo_pair(ex_b.data_address, count=3)
        records = _run_pair(sim, ex_a, ex_b, client_app, server_app)
        certificate = records["client"].certificate
        assert certificate is not None
        assert certificate.asn == 1 and certificate.interface == 1
        assert certificate.code_hash == client_app.code_hash()
        assert certificate.result_hash == sha256(records["client"].result)
        assert verify_signature(
            certificate.executor_public_key,
            certificate.signing_payload(),
            certificate.signature,
        )

    def test_executor_host_colocated_with_interface(self, two_as_network):
        _, ex_a, _ = _executors(two_as_network)
        assert ex_a.host.attachment == "if1"
        assert ex_a.data_address == Address(1, "exec1")
