"""The Debuglet executor: policy-constrained remote code execution (§IV-B).

An executor is a small service co-located with one border router
(``<AS, interface>``). It admits applications against its policy, runs
them inside the sandbox (or natively, for baselines), bridges their host
calls to real sockets on the simulated network, enforces the manifest at
run time (packet budgets, duration, contact allow-list, result size), and
finally *certifies* the result with its Ed25519 key so third parties can
verify what was measured.

Timing model: module constants, the costs the paper measured (§V-B,
Fig 8):

- :data:`SETUP_TIME` (10 ms, plus ``|N(0, setup_jitter)|``): sandbox
  instantiation before the first instruction runs — the "execution
  environment setup time";
- :data:`HOST_CALL_OVERHEAD` (60 µs): simulated cost of each
  sandbox/host boundary crossing. This is what makes D2D measurements
  read ~300 µs above A2A in Fig 8 (3 crossings on the client's timing
  path, 2 on the server's). Native programs pay neither.
- :data:`INSTRUCTION_TIME` (2 ns): CPU time per unit of fuel, folded
  into the moment results become available.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.common.errors import (
    ConfigurationError,
    PolicyViolation,
    SandboxError,
)
from repro.common.rng import derive_rng
from repro.common.serialize import canonical_encode
from repro.chain.crypto import KeyPair, sha256
from repro.core.application import DebugletApplication
from repro.netsim.endhost import Socket
from repro.netsim.engine import EventHandle
from repro.netsim.network import Network
from repro.netsim.packet import Address, IcmpType, Packet, Protocol
from repro.sandbox.hostops import HOST_OPS, output_bytes, protocol_from_number
from repro.sandbox.manifest import ExecutorPolicy
from repro.sandbox.verifier import verify_module
from repro.sandbox.program import ReceivedData, RunnableProgram
from repro.sandbox.vm import Done, HostCall


def executor_host_name(interface: int) -> str:
    """Data-plane host name of the executor at ``interface``."""
    return f"exec{interface}"


def executor_data_address(asn: int, interface: int) -> Address:
    """The address Debuglet contacts use to reach that executor."""
    return Address(asn, executor_host_name(interface))


@dataclass
class ExecutionRecord:
    """Outcome of one Debuglet execution.

    ``interaction_log`` is the executor's transcript of every sandbox
    boundary crossing — ``("begin", args)``, ``("call", op, args,
    payload)``, ``("resume", result, received)`` and ``("trap", message)``
    entries, in order. Replaying the begin/resume inputs against a fresh
    reference interpreter must reproduce every call/done output and the
    result bytes bit-for-bit (the §11 challenge–response audit,
    :func:`repro.core.audit.replay_interaction_log`). ``tampered`` is
    ground truth for tests: the Byzantine strategy that corrupted this
    record, or ``""`` for honest executions — nothing in the defense
    pipeline reads it.
    """

    application: DebugletApplication
    status: str = "pending"  # pending | running | completed | failed: <reason>
    result: bytes = b""
    return_value: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0
    fuel_used: int = 0
    packets_sent: int = 0
    packets_received: int = 0
    logs: list[int] = field(default_factory=list)
    interaction_log: list[tuple] = field(default_factory=list)
    tampered: str = ""
    certificate: "ResultCertificate | None" = None

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    @property
    def failed(self) -> bool:
        return self.status.startswith("failed")


#: Grace (seconds) around a purchased window for certificate timestamps:
#: what the Auditor convicts on and what third-party verification accepts.
WINDOW_SLACK = 5.0

#: Sandbox instantiation before a sandboxed program's first instruction (s).
SETUP_TIME = 10e-3
#: Cost of one sandbox/host boundary crossing (s).
HOST_CALL_OVERHEAD = 60e-6
#: CPU time per unit of fuel (s).
INSTRUCTION_TIME = 2e-9


@dataclass(frozen=True)
class ResultCertificate:
    """The executor's signed statement about an execution (§IV-B).

    Binds the code hash, the result bytes, the vantage point, and the
    execution window under the executor's key. Verified by
    :mod:`repro.core.verification`.
    """

    asn: int
    interface: int
    code_hash: bytes
    result_hash: bytes
    started_at: float
    finished_at: float
    executor_public_key: bytes
    signature: bytes

    def signing_payload(self) -> bytes:
        return canonical_encode(
            {
                "asn": self.asn,
                "interface": self.interface,
                "code_hash": self.code_hash,
                "result_hash": self.result_hash,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "public_key": self.executor_public_key,
            }
        )

    def within_window(
        self, start: float, end: float, slack: float = WINDOW_SLACK
    ) -> bool:
        """Whether the certified interval sits inside ``[start - slack,
        end + slack]`` — the defence against stale-certificate reuse
        (DESIGN.md §11): a certificate republished for a later purchase
        carries the earlier window's timestamps."""
        return self.started_at >= start - slack and self.finished_at <= end + slack


def issue_certificate(
    keypair: KeyPair, asn: int, interface: int, record: ExecutionRecord
) -> ResultCertificate:
    """The certificate the executor at ``<asn, interface>`` signs over
    ``record``'s code, result bytes and execution interval."""
    unsigned = ResultCertificate(
        asn=asn,
        interface=interface,
        code_hash=record.application.code_hash(),
        result_hash=sha256(record.result),
        started_at=record.started_at,
        finished_at=record.finished_at,
        executor_public_key=keypair.public,
        signature=b"",
    )
    return replace(unsigned, signature=keypair.sign(unsigned.signing_payload()))


class _Execution:
    """Book-keeping for one running program."""

    def __init__(
        self,
        executor: "Executor",
        application: DebugletApplication,
        program: RunnableProgram,
        on_complete: Callable[[ExecutionRecord], None] | None,
    ) -> None:
        self.executor = executor
        self.application = application
        self.program = program
        self.record = ExecutionRecord(application=application)
        self.on_complete = on_complete
        self.sockets: dict[Protocol, Socket] = {}
        self.recv_queues: dict[Protocol, list[tuple[Packet, float]]] = {}
        self.last_received: dict[Protocol, Packet] = {}
        self.pending_recv: tuple[Protocol, EventHandle] | None = None
        self.deadline_handle: EventHandle | None = None
        self.port_by_protocol: dict[Protocol, int] = {}
        self.done = False
        self.span = None  # open obs span while the execution runs


class Executor:
    """A Debuglet executor co-located with one border router."""

    def __init__(
        self,
        network: Network,
        asn: int,
        interface: int,
        *,
        setup_jitter: float = 0.3e-3,
        concurrent_capacity: int = 8,
        seed: int = 0,
    ) -> None:
        self.network = network
        self.asn = asn
        self.interface = interface
        self.keypair = KeyPair.deterministic(f"executor-{asn}-{interface}")
        #: the AS's admission policy; an operator replaces it whole
        self.policy = ExecutorPolicy()
        self.setup_jitter = setup_jitter
        if concurrent_capacity < 1:
            raise ConfigurationError("concurrent_capacity must be >= 1")
        self.concurrent_capacity = concurrent_capacity
        self._rng = derive_rng(seed, "executor", asn, interface)
        self._port_counter = 45000 + (asn * 131 + interface * 17) % 1000
        self.executions: list[ExecutionRecord] = []
        # Byzantine hook (repro.core.byzantine): when set, the corruptor's
        # before_certify/after_certify run around certification in
        # _finish. None for honest executors.
        self.corruptor = None
        self._running = 0
        self._waiting: list[_Execution] = []
        # Failure-model state (§IV-C robustness; see repro.chaos): a crashed
        # executor silently aborts everything in flight and accepts nothing
        # new until restart() — it never certifies or publishes.
        self.crashed = False
        self.crash_count = 0
        self._pending_starts: list[tuple[EventHandle, _Execution]] = []
        self._live: list[_Execution] = []

        address = executor_data_address(asn, interface)
        if address in network.hosts:
            self.host = network.hosts[address]
        else:
            self.host = network.make_host(
                asn, executor_host_name(interface), attachment=f"if{interface}"
            )
        # Executors never auto-echo: programs decide how to respond.
        self.host.echo_protocols = set()

    @property
    def data_address(self) -> Address:
        return self.host.address

    @property
    def simulator(self):
        return self.network.simulator

    @property
    def obs(self):
        """The attached observability bundle, or None (see repro.obs)."""
        return self.network.simulator.obs

    @property
    def _vantage(self) -> str:
        return f"{self.asn}:{self.interface}"

    # ---------------------------------------------------------- admission

    def admit(self, application: DebugletApplication) -> None:
        """Policy + manifest admission (raises on rejection).

        Sandboxed bytecode is additionally re-verified ahead of time —
        the executor never trusts that the marketplace (or anyone else)
        already ran the verifier — and any verification error, or an
        argument the module does not admit, is a :class:`PolicyViolation`.
        Nothing that fails either check runs.
        """
        self.policy.admit(application.manifest)
        if application.module is not None:
            application.manifest.validate_module(application.module)
            report = verify_module(
                application.module, application.manifest, self.policy
            )
            if not report.ok:
                raise PolicyViolation(
                    "bytecode failed ahead-of-time verification: "
                    + "; ".join(diag.render() for diag in report.errors)
                )
            refusal = application.module.argument_error(list(application.args))
            if refusal is not None:
                raise PolicyViolation(f"arguments refused: {refusal}")
            # Compile at admission so every session VM for this module
            # starts from a hash lookup: the compiled form, or why there
            # is none, is kept in the module's shared analysis.
            from repro.sandbox.compile import get_compiled

            get_compiled(application.module, obs=self.obs)

    # ---------------------------------------------------------- execution

    def submit(
        self,
        application: DebugletApplication,
        *,
        start_at: float | None = None,
        on_complete: Callable[[ExecutionRecord], None] | None = None,
    ) -> ExecutionRecord:
        """Admit and schedule ``application``; returns its (live) record.

        Execution begins at ``start_at`` (default: now) plus the sandbox
        setup time for sandboxed programs.
        """
        if self.crashed:
            raise ConfigurationError(
                f"executor {self.asn}:{self.interface} is down"
            )
        self.admit(application)
        program = application.instantiate(obs=self.obs)
        execution = _Execution(self, application, program, on_complete)
        self.executions.append(execution.record)

        start = self.simulator.now if start_at is None else start_at
        if start < self.simulator.now:
            raise ConfigurationError("cannot schedule execution in the past")
        setup = 0.0
        if program.is_sandboxed:
            setup = SETUP_TIME + abs(
                float(self._rng.normal(0.0, self.setup_jitter))
            )
        handle = self.simulator.schedule_at(start + setup, self._begin, execution)
        self._pending_starts.append((handle, execution))
        return execution.record

    def _begin(self, execution: _Execution) -> None:
        self._pending_starts = [
            (h, e) for h, e in self._pending_starts if e is not execution
        ]
        if self.crashed:
            self._kill(execution, "executor crashed before start")
            return
        # Finite resources (§IV-C): beyond capacity, executions queue and
        # start as earlier ones finish.
        if self._running >= self.concurrent_capacity:
            execution.record.status = "queued"
            self._waiting.append(execution)
            return
        self._running += 1
        self._live.append(execution)
        record = execution.record
        record.status = "running"
        record.started_at = self.simulator.now
        obs = self.obs
        if obs is not None:
            execution.span = obs.tracer.begin(
                "executor.execution",
                component="executor",
                corr=f"app:{execution.application.name}",
                vantage=self._vantage,
                application=execution.application.name,
                sandboxed=execution.program.is_sandboxed,
            )
        # Pre-bind listen sockets so early probes are not dropped.
        listen_port = execution.application.listen_port
        if listen_port is not None:
            try:
                for capability in execution.application.manifest.capabilities:
                    protocol = Protocol[capability.upper()]
                    self._bind_socket(execution, protocol, listen_port)
            except ConfigurationError as exc:
                self._finish_failed(execution, f"cannot bind sockets: {exc}")
                return
        deadline = record.started_at + execution.application.manifest.max_duration
        execution.deadline_handle = self.simulator.schedule_at(
            deadline, self._abort, execution, "duration limit exceeded"
        )
        try:
            step = self._program_begin(execution)
        except SandboxError as exc:
            self._finish_failed(execution, f"trap at start: {exc}")
            return
        self._dispatch(execution, step)

    # Every begin/resume of the program funnels through the two helpers
    # below so the interaction log is a complete transcript: the inputs
    # the executor fed the sandbox (begin args, resume results, received
    # data) and the outputs the sandbox produced (host calls, completion,
    # traps). Auditors replay the inputs on a fresh reference interpreter
    # and diff the outputs bit-for-bit (repro.core.audit).

    def _program_begin(self, execution: _Execution):
        args = list(execution.application.args)
        execution.record.interaction_log.append(("begin", tuple(args)))
        try:
            step = execution.program.begin(args)
        except SandboxError as exc:
            execution.record.interaction_log.append(("trap", str(exc)))
            raise
        self._log_step(execution, step)
        return step

    def _program_resume(
        self, execution: _Execution, result: int, data: ReceivedData | None
    ):
        received = None
        if data is not None:
            received = (
                data.contact_index,
                data.src_port,
                data.seq,
                data.recv_time_us,
                data.payload,
            )
        execution.record.interaction_log.append(("resume", int(result), received))
        try:
            step = execution.program.resume(result, data)
        except SandboxError as exc:
            execution.record.interaction_log.append(("trap", str(exc)))
            raise
        self._log_step(execution, step)
        return step

    @staticmethod
    def _log_step(execution: _Execution, step) -> None:
        if isinstance(step, Done):
            execution.record.interaction_log.append(("done", step.value))
        else:
            execution.record.interaction_log.append(
                ("call", step.name, tuple(step.args), step.payload)
            )

    # The dispatch loop: handle steps until the program blocks or finishes.

    def _dispatch(self, execution: _Execution, step) -> None:
        while not execution.done:
            if isinstance(step, Done):
                self._finish_completed(execution, step.value)
                return
            assert isinstance(step, HostCall)
            try:
                resumed = self._perform(execution, step)
            except (PolicyViolation, SandboxError, ConfigurationError) as exc:
                self._finish_failed(execution, str(exc))
                return
            if resumed.__class__ is tuple:
                # A claimed resume (:meth:`_resume_at`): the event it would
                # have been, run here — outside the ``try`` above, as
                # :meth:`_resume` runs it.
                resumed = self._resumed(execution, *resumed)
            if resumed is None:
                return  # blocked: a scheduled event will continue us
            step = resumed

    def _resume(self, execution: _Execution, result: int, data: ReceivedData | None) -> None:
        step = self._resumed(execution, result, data)
        if step is not None:
            self._dispatch(execution, step)

    def _resumed(self, execution: _Execution, result: int, data: ReceivedData | None):
        """The program's next step after a scheduled resume, or None when
        the execution is over (already, or by this resume trapping)."""
        if execution.done:
            return None
        try:
            return self._program_resume(execution, result, data)
        except SandboxError as exc:
            self._finish_failed(execution, f"trap: {exc}")
            return None

    def _overhead(self, execution: _Execution) -> float:
        if execution.program.is_sandboxed:
            return HOST_CALL_OVERHEAD
        return 0.0

    def _resume_after(
        self, execution: _Execution, delay: float, result: int,
        data: ReceivedData | None = None,
    ):
        """Resume after the host-switch cost, or immediately when free."""
        if delay > 0:
            return self._resume_at(execution, self.simulator.now + delay, result, data)
        return self._program_resume(execution, result, data)

    def _resume_at(
        self, execution: _Execution, at: float, result: int,
        data: ReceivedData | None,
    ):
        """Resume the program at ``at``. When that instant is the next event
        due it is claimed (:meth:`Simulator.claim`) and ``(result, data)``
        comes back for :meth:`_dispatch`'s loop to resume with, so a
        measurement's thousands of crossings never nest; otherwise it is
        posted (resumes are never cancelled) and None comes back."""
        sim = self.simulator
        if sim.claim(at):
            return (result, data)
        sim.post(at, self._resume, execution, result, data)
        return None

    # ------------------------------------------------------- host ops

    def _perform(self, execution: _Execution, call: HostCall):
        """Perform one host op: one lookup into the handlers built from
        :data:`~repro.sandbox.hostops.HOST_OPS`. Returns the next step,
        or None if blocked."""
        op = call.name
        obs = self.simulator.obs
        if obs is not None:
            obs.metrics.counter("executor_host_ops_total", op=op).inc()
        handler = _HOST_HANDLERS.get(op)
        if handler is None:
            raise PolicyViolation(f"host op {op!r} not available")
        overhead = HOST_CALL_OVERHEAD if execution.program.is_sandboxed else 0.0
        return handler(self, execution, call, overhead)

    def _op_now_us(self, execution: _Execution, call: HostCall, overhead: float):
        return self._resume_after(
            execution, overhead, int(round((self.simulator.now + overhead) * 1e6))
        )

    def _op_sleep_until_us(
        self, execution: _Execution, call: HostCall, overhead: float
    ):
        wake = max(call.args[0] / 1e6, self.simulator.now) + overhead
        return self._resume_at(execution, wake, 0, None)

    def _append_result(
        self, execution: _Execution, call: HostCall, overhead: float
    ):
        record = execution.record
        data = output_bytes(call.name, call.args, call.payload)
        limit = execution.application.manifest.max_result_bytes
        if len(record.result) + len(data) > limit:
            raise PolicyViolation(f"result exceeds declared {limit} bytes")
        record.result += data
        return self._resume_after(execution, overhead, 0)

    _op_result_i64 = _op_result_bytes = _append_result

    def _op_log_i64(self, execution: _Execution, call: HostCall, overhead: float):
        execution.record.logs.append(call.args[0])
        return self._resume_after(execution, overhead, 0)

    def _op_rand_u32(self, execution: _Execution, call: HostCall, overhead: float):
        return self._resume_after(
            execution, overhead, int(self._rng.integers(0, 2**32))
        )

    def _op_net_send(self, execution: _Execution, call: HostCall, overhead: float):
        proto_num, contact_idx, dst_port, seq, size = call.args
        protocol = protocol_from_number(proto_num)
        manifest = execution.application.manifest
        if not manifest.allows_protocol(protocol):
            raise PolicyViolation(f"manifest lacks {protocol.name.lower()} capability")
        if not 0 <= contact_idx < len(manifest.contacts):
            raise PolicyViolation(f"contact index {contact_idx} not in manifest")
        if execution.record.packets_sent >= manifest.max_packets_sent:
            raise PolicyViolation("send budget exhausted")
        execution.record.packets_sent += 1

        dst = manifest.contacts[contact_idx]
        socket = self._socket_for(execution, protocol)
        icmp_type = IcmpType.ECHO_REQUEST if protocol is Protocol.ICMP else None
        # The packet leaves once the host switch completes.
        send_delay = overhead

        def do_send() -> None:
            if execution.done:
                return
            socket.send(
                dst,
                dst_port=dst_port,
                size=max(int(size), 1),
                seq=int(seq),
                payload=call.payload,
                path=execution.application.path,
                icmp_type=icmp_type,
            )

        if send_delay > 0:
            self.simulator.post(self.simulator.now + send_delay, do_send)
        else:
            do_send()
        return self._resume_after(execution, send_delay, 1)

    def _op_net_recv(self, execution: _Execution, call: HostCall, overhead: float):
        proto_num, timeout_us = call.args
        protocol = protocol_from_number(proto_num)
        manifest = execution.application.manifest
        if not manifest.allows_protocol(protocol):
            raise PolicyViolation(f"manifest lacks {protocol.name.lower()} capability")
        self._socket_for(execution, protocol)  # ensure bound
        queue = execution.recv_queues.setdefault(protocol, [])
        if queue:
            packet, arrival = queue.pop(0)
            data = self._to_received(execution, packet, arrival)
            return self._resume_after(execution, overhead, len(data.payload), data)
        if execution.pending_recv is not None:
            raise PolicyViolation("overlapping net_recv calls")
        timeout_at = self.simulator.now + max(timeout_us, 0) / 1e6
        handle = self.simulator.schedule_at(
            timeout_at, self._recv_timeout, execution
        )
        execution.pending_recv = (protocol, handle)
        return None

    def _recv_timeout(self, execution: _Execution) -> None:
        if execution.done or execution.pending_recv is None:
            return
        execution.pending_recv = None
        self._resume(execution, -1, None)

    def _op_net_reply(self, execution: _Execution, call: HostCall, overhead: float):
        proto_num, seq, size = call.args
        protocol = protocol_from_number(proto_num)
        manifest = execution.application.manifest
        last = execution.last_received.get(protocol)
        if last is None:
            return self._resume_after(execution, overhead, 0)
        if execution.record.packets_sent >= manifest.max_packets_sent:
            raise PolicyViolation("send budget exhausted")
        execution.record.packets_sent += 1
        socket = self._socket_for(execution, protocol)
        icmp_type = IcmpType.ECHO_REPLY if protocol is Protocol.ICMP else None
        reply_path = execution.application.path

        def do_reply() -> None:
            if execution.done:
                return
            socket.send(
                last.src,
                dst_port=last.src_port,
                size=max(int(size), 1),
                seq=int(seq),
                payload=last.payload,
                path=reply_path,
                icmp_type=icmp_type,
            )

        if overhead > 0:
            self.simulator.post(self.simulator.now + overhead, do_reply)
        else:
            do_reply()
        return self._resume_after(execution, overhead, 1)

    # ------------------------------------------------------- sockets

    def _socket_for(self, execution: _Execution, protocol: Protocol) -> Socket:
        socket = execution.sockets.get(protocol)
        if socket is not None:
            return socket
        port = execution.application.listen_port
        if protocol in (Protocol.UDP, Protocol.TCP):
            if port is None:
                port = self._alloc_port()
        else:
            port = 0
        return self._bind_socket(execution, protocol, port)

    def _bind_socket(
        self, execution: _Execution, protocol: Protocol, port: int
    ) -> Socket:
        if protocol in execution.sockets:
            return execution.sockets[protocol]
        if protocol in (Protocol.ICMP, Protocol.RAW_IP):
            port = 0
        socket = self.host.open_socket(protocol, port)
        socket.on_receive = lambda packet, t: self._on_packet(
            execution, protocol, packet, t
        )
        execution.sockets[protocol] = socket
        execution.port_by_protocol[protocol] = port
        execution.recv_queues.setdefault(protocol, [])
        return socket

    def _alloc_port(self) -> int:
        self._port_counter += 1
        return self._port_counter

    def _on_packet(
        self, execution: _Execution, protocol: Protocol, packet: Packet, t: float
    ) -> None:
        if execution.done:
            return
        record = execution.record
        manifest = execution.application.manifest
        if record.packets_received >= manifest.max_packets_received:
            return  # budget exhausted: excess packets are dropped silently
        record.packets_received += 1
        execution.last_received[protocol] = packet
        if (
            execution.pending_recv is not None
            and execution.pending_recv[0] is protocol
        ):
            _, handle = execution.pending_recv
            handle.cancel()
            execution.pending_recv = None
            data = self._to_received(execution, packet, t)
            delay = self._overhead(execution)
            if delay > 0:
                # The packet's arrival event ends here, so this resume may
                # be claimed like any other.
                claimed = self._resume_at(
                    execution, self.simulator.now + delay, len(data.payload), data
                )
                if claimed is None:
                    return  # posted
            self._resume(execution, len(data.payload), data)
        else:
            execution.recv_queues.setdefault(protocol, []).append((packet, t))

    def _to_received(
        self, execution: _Execution, packet: Packet, arrival: float
    ) -> ReceivedData:
        contacts = execution.application.manifest.contacts
        try:
            contact_index = contacts.index(packet.src)
        except ValueError:
            contact_index = -1
        payload = packet.payload if isinstance(packet.payload, bytes) else bytes(packet.size)
        return ReceivedData(
            contact_index=contact_index,
            src_port=packet.src_port,
            seq=packet.seq,
            recv_time_us=int(round((arrival + self._overhead(execution)) * 1e6)),
            payload=payload,
        )

    # ------------------------------------------------------ completion

    def _abort(self, execution: _Execution, reason: str) -> None:
        if not execution.done:
            self._finish_failed(execution, reason)

    def _finish_completed(self, execution: _Execution, value: int) -> None:
        execution.record.return_value = value
        self._finish(execution, "completed")

    def _finish_failed(self, execution: _Execution, reason: str) -> None:
        self._finish(execution, f"failed: {reason}")

    def _finish(self, execution: _Execution, status: str) -> None:
        execution.done = True
        record = execution.record
        record.status = status
        record.fuel_used = execution.program.fuel_used
        cpu_time = record.fuel_used * INSTRUCTION_TIME
        record.finished_at = self.simulator.now + cpu_time
        if execution.deadline_handle is not None:
            execution.deadline_handle.cancel()
        if execution.pending_recv is not None:
            execution.pending_recv[1].cancel()
            execution.pending_recv = None
        for socket in execution.sockets.values():
            socket.close()
        if self.corruptor is not None:
            self.corruptor.before_certify(self, record)
        record.certificate = self.certify(record)
        if self.corruptor is not None:
            self.corruptor.after_certify(self, record)
        obs = self.obs
        if obs is not None:
            outcome = "completed" if status == "completed" else "failed"
            obs.metrics.counter(
                "executor_executions_total",
                status=outcome,
                vantage=self._vantage,
            ).inc()
            obs.metrics.histogram("executor_execution_seconds").observe(
                max(record.finished_at - record.started_at, 0.0)
            )
            if execution.span is not None:
                obs.tracer.finish(
                    execution.span,
                    status=status,
                    fuel_used=record.fuel_used,
                    packets_sent=record.packets_sent,
                    packets_received=record.packets_received,
                )
                execution.span = None
        self._live = [e for e in self._live if e is not execution]
        self._running -= 1
        if self._waiting:
            queued = self._waiting.pop(0)
            self.simulator.schedule(0.0, self._begin, queued)
        if execution.on_complete is not None:
            execution.on_complete(record)

    # ------------------------------------------------------ failure model

    def _kill(self, execution: _Execution, reason: str) -> None:
        """Abort one execution *silently*: no certificate, no completion
        callback, no publication — the behaviour of a process that died."""
        if execution.done:
            return
        execution.done = True
        execution.record.status = f"failed: {reason}"
        execution.record.finished_at = self.simulator.now
        obs = self.obs
        if obs is not None:
            obs.metrics.counter(
                "executor_executions_total",
                status="killed",
                vantage=self._vantage,
            ).inc()
            if execution.span is not None:
                obs.tracer.finish(execution.span, status=f"killed: {reason}")
                execution.span = None
        if execution.deadline_handle is not None:
            execution.deadline_handle.cancel()
            execution.deadline_handle = None
        if execution.pending_recv is not None:
            execution.pending_recv[1].cancel()
            execution.pending_recv = None
        for socket in execution.sockets.values():
            socket.close()

    def crash(self, reason: str = "executor crashed") -> None:
        """Crash the executor: every scheduled, queued, and running
        execution is silently aborted and new submissions are rejected
        until :meth:`restart`. Idempotent while down."""
        if self.crashed:
            return
        self.crashed = True
        self.crash_count += 1
        obs = self.obs
        if obs is not None:
            obs.metrics.counter(
                "executor_crashes_total", vantage=self._vantage
            ).inc()
            obs.tracer.event(
                "executor.crash", component="executor",
                vantage=self._vantage, reason=reason,
            )
        for handle, execution in self._pending_starts:
            handle.cancel()
            self._kill(execution, f"{reason} (never started)")
        self._pending_starts.clear()
        for execution in self._waiting:
            self._kill(execution, f"{reason} (queued)")
        self._waiting.clear()
        for execution in list(self._live):
            self._kill(execution, reason)
        self._live.clear()
        self._running = 0

    def restart(self) -> None:
        """Bring a crashed executor back up, with empty run queues.

        Work lost to the crash stays lost — the control plane's deadlines,
        refunds, and failover are what recover the *session*.

        The process-wide analysis cache, compiled forms included
        (repro.sandbox.verifier.analysis), is deliberately NOT invalidated
        across restart: entries are keyed by ``Module.code_hash()`` and
        analysis and translation are pure functions of the bytecode, so a
        warm entry is exactly as trustworthy after a crash as before it —
        re-admitting a previously-seen module after restart hits the cache
        and re-executes bit-identically. What a
        crash *does* lose is everything execution-scoped: run queues,
        sockets, in-flight program state, uncertified results.
        """
        if self.crashed:
            obs = self.obs
            if obs is not None:
                obs.tracer.event(
                    "executor.restart", component="executor",
                    vantage=self._vantage,
                )
        self.crashed = False

    def cancel_pending(self, reason: str = "slot expired") -> None:
        """Silently abort executions that have not started yet (scheduled
        or capacity-queued), leaving running ones untouched. Models an
        ISP reneging on sold-but-unstarted slots (early slot expiry)."""
        for handle, execution in self._pending_starts:
            handle.cancel()
            self._kill(execution, reason)
        self._pending_starts.clear()
        for execution in self._waiting:
            self._kill(execution, reason)
        self._waiting.clear()

    # ---------------------------------------------------- certification

    def certify(self, record: ExecutionRecord) -> ResultCertificate:
        """Sign the execution outcome (only completed runs get results)."""
        return issue_certificate(self.keypair, self.asn, self.interface, record)


#: host op name -> ``Executor._op_<name>``, built once from the table: a
#: row with no handler fails here, at import.
_HOST_HANDLERS = {name: getattr(Executor, f"_op_{name}") for name in HOST_OPS}
