"""Differential fuzz: the compiled tier is bit-identical to the reference.

Random — but structurally valid — modules are generated from composable
expression templates (arithmetic, possibly-trapping division, dynamic and
constant memory accesses of both widths, globals, ``dup``/``swap``/
``local_tee``/``eqz``/``nop``, host calls — among them ``net_send`` and
``net_recv`` over the declared buffers and ``result_bytes`` over a memory
range — counted loops of both shapes,
branches, and calls into three helpers — one of which calls another
that makes a host call, so a suspension crosses nested frames — with
operands left live below the call's arguments), then run to completion
on both tiers under random fuel limits, host-result scripts, and
embedder memory writes; where a script answers a ``net_recv`` with a
size, the host writes a receive header (with a scripted sequence number)
and payload into the receive buffer, as the executor does. Immediates
include the i64 sign and wrap boundaries. The *entire observable session*
must match: the host-call sequence (names, arguments, ``fuel_used`` at
every suspension, and the bytes a ``net_send`` or ``result_bytes`` reads
out of linear memory), the
final ``Done`` value or trap type+message, final ``fuel_used``, final
linear memory, and final globals (DESIGN.md §7). The threaded tier the
generator replaced (``tests/sandbox/compile_reference.py``) runs the same
sessions.

Small fuel limits matter most: they force traps at arbitrary points —
mid-block, at host boundaries, inside loops — which is exactly where the
compiled tier's block-level fuel accounting and bail-to-replay fallback
must reproduce the reference interpreter's behaviour precisely. And a
bail that a session did not need would hide a compiler bug behind the
replay, so whenever the reference completes without a trap the compiled
VM must never have bailed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SandboxError
from repro.netsim.packet import Address, Protocol
from repro.sandbox.assembler import assemble
from repro.sandbox.hostops import protocol_from_number
from repro.sandbox.programs import decode_result_pairs, echo_client, echo_server
from repro.sandbox.vm import VM, HostCall
from tests.sandbox.compile_reference import ThreadedVM

#: the generated modules' declared buffers (protocol 17, UDP)
SEND_OFF, SEND_SIZE = 0, 64
RECV_OFF, RECV_SIZE = 64, 96


class _Ctx:
    """Fresh labels and local slots while rendering one program."""

    def __init__(self) -> None:
        self.labels = 0
        self.next_local = 0

    def label(self) -> str:
        self.labels += 1
        return f"L{self.labels}"

    def locals_pair(self) -> tuple[int, int]:
        pair = (self.next_local, self.next_local + 1)
        self.next_local += 2
        return pair


class Lit:
    def __init__(self, value: int) -> None:
        self.value = value

    def render(self, ctx: _Ctx) -> list[str]:
        return [f"push {self.value}"]


class Bin:
    def __init__(self, op: str, left, right) -> None:
        self.op, self.left, self.right = op, left, right

    def render(self, ctx: _Ctx) -> list[str]:
        return self.left.render(ctx) + self.right.render(ctx) + [self.op]


class Mem:
    """Store ``value`` at ``addr``, load it back. A constant in-range
    address exercises check elision; a constant out-of-range or dynamic
    address exercises the runtime check / bail path."""

    def __init__(self, addr: int, value) -> None:
        self.addr, self.value = addr, value

    def render(self, ctx: _Ctx) -> list[str]:
        return (
            [f"push {self.addr}"]
            + self.value.render(ctx)
            + ["store64", f"push {self.addr}", "load64"]
        )


class Mem8:
    """``store8``/``load8`` round trip: the byte the store kept."""

    def __init__(self, addr: int, value) -> None:
        self.addr, self.value = addr, value

    def render(self, ctx: _Ctx) -> list[str]:
        return (
            [f"push {self.addr}"]
            + self.value.render(ctx)
            + ["store8", f"push {self.addr}", "load8"]
        )


class Glob:
    """Write a global, read it back (``g`` also starts at 2^64 - 1)."""

    def __init__(self, value) -> None:
        self.value = value

    def render(self, ctx: _Ctx) -> list[str]:
        return self.value.render(ctx) + ["global_set g", "global_get g",
                                         "global_get h", "add"]


class Stack:
    """``dup``, ``swap``, ``local_tee``, ``eqz`` and ``nop`` on operands."""

    def __init__(self, kind: str, op: str, left, right) -> None:
        self.kind, self.op, self.left, self.right = kind, op, left, right

    def render(self, ctx: _Ctx) -> list[str]:
        left = self.left.render(ctx)
        if self.kind == "dup":
            return left + ["dup", self.op]
        if self.kind == "swap":
            return left + self.right.render(ctx) + ["swap", self.op]
        if self.kind == "tee":
            slot, _ = ctx.locals_pair()
            return left + [f"local_tee {slot}", f"local_get {slot}", self.op]
        if self.kind == "eqz":
            return left + ["eqz", "nop"]
        return left + ["nop"]


class Select:
    """``cond ? then : else`` with forward jumps."""

    def __init__(self, cond, then, other) -> None:
        self.cond, self.then, self.other = cond, then, other

    def render(self, ctx: _Ctx) -> list[str]:
        other, end = ctx.label(), ctx.label()
        return (
            self.cond.render(ctx) + [f"jz {other}"] + self.then.render(ctx)
            + [f"jmp {end}", f"{other}:"] + self.other.render(ctx)
            + [f"{end}:", "nop"]
        )


class Host:
    def __init__(self, op: str, arg) -> None:
        self.op, self.arg = op, arg

    def render(self, ctx: _Ctx) -> list[str]:
        prefix = self.arg.render(ctx) if self.arg is not None else []
        return prefix + [f"host {self.op}"]


class Net:
    """A host op that moves bytes: ``net_send`` of the send buffer's first
    ``size`` bytes, ``net_recv`` with a timeout, plus the sequence number
    the host wrote into the receive header, or ``result_bytes`` of
    ``size`` bytes of memory at ``offset``."""

    def __init__(self, op: str, offset: int, size: int, arg) -> None:
        self.op, self.offset, self.size, self.arg = op, offset, size, arg

    def render(self, ctx: _Ctx) -> list[str]:
        if self.op == "net_send":
            return (["push 17", "push 0", "push 7"] + self.arg.render(ctx)
                    + [f"push {self.size}", "host net_send"])
        if self.op == "net_recv":
            return (["push 17"] + self.arg.render(ctx)
                    + ["host net_recv", f"push {RECV_OFF + 16}", "load64", "add"])
        return [f"push {self.offset}", f"push {self.size}", "host result_bytes"]


class Loop:
    """acc = sum of ``body`` over ``count`` iterations (counted loop)."""

    def __init__(self, count: int, body) -> None:
        self.count, self.body = count, body

    def render(self, ctx: _Ctx) -> list[str]:
        i, acc = ctx.locals_pair()
        head, end = ctx.label(), ctx.label()
        return (
            ["push 0", f"local_set {acc}", f"push {self.count}",
             f"local_set {i}", f"{head}:", f"local_get {i}", f"jz {end}"]
            + self.body.render(ctx)
            + [f"local_get {acc}", "add", f"local_set {acc}",
               f"local_get {i}", "push 1", "sub", f"local_set {i}",
               f"jmp {head}", f"{end}:", f"local_get {acc}"]
        )


class DoLoop:
    """acc = sum of ``body`` over ``count`` >= 1 iterations, tested at the
    bottom: the back edge is the loop's last instruction."""

    def __init__(self, count: int, body) -> None:
        self.count, self.body = count, body

    def render(self, ctx: _Ctx) -> list[str]:
        i, acc = ctx.locals_pair()
        head = ctx.label()
        return (
            ["push 0", f"local_set {acc}", f"push {self.count}",
             f"local_set {i}", f"{head}:"]
            + self.body.render(ctx)
            + [f"local_get {acc}", "add", f"local_set {acc}",
               f"local_get {i}", "push 1", "sub", f"local_tee {i}",
               f"jnz {head}", f"local_get {acc}"]
        )


class Call:
    def __init__(self, left, right, callee: str = "helper") -> None:
        self.left, self.right, self.callee = left, right, callee

    def render(self, ctx: _Ctx) -> list[str]:
        return (self.left.render(ctx) + self.right.render(ctx)
                + [f"call {self.callee}"])


_BIN_OPS = ("add", "sub", "mul", "divs", "rems", "and", "or", "xor",
            "shl", "shru", "eq", "ne", "lts", "gts", "les", "ges")

#: immediates: small, ±2^40, and the i64 sign and wrap boundaries
_leaf = st.one_of(
    st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    st.sampled_from((0, 1, -1, 2 ** 63 - 1, 2 ** 63, -(2 ** 63),
                     -(2 ** 63) - 1, 2 ** 64 - 1, 2 ** 64)),
).map(Lit)

_CALLEES = ("helper", "hostly", "nested")

_address = st.one_of(
    st.integers(min_value=0, max_value=4088),
    st.integers(min_value=4089, max_value=5000),
    st.integers(min_value=-64, max_value=-1),
)

_flat = st.recursive(
    _leaf,
    lambda children: st.one_of(
        st.tuples(st.sampled_from(_BIN_OPS), children, children).map(
            lambda t: Bin(*t)
        ),
        # mostly in-range constant addresses, occasionally OOB (traps)
        st.tuples(_address, children).map(lambda t: Mem(*t)),
        st.tuples(
            st.one_of(_address, st.integers(min_value=4090, max_value=4096)),
            children,
        ).map(lambda t: Mem8(*t)),
        children.map(Glob),
        st.tuples(
            st.sampled_from(("dup", "swap", "tee", "eqz", "nop")),
            st.sampled_from(_BIN_OPS), children, children,
        ).map(lambda t: Stack(*t)),
        st.tuples(children, children, children).map(lambda t: Select(*t)),
        st.tuples(
            st.sampled_from(("log_i64", "now_us", "rand_u32")), children
        ).map(lambda t: Host(t[0], t[1] if t[0] == "log_i64" else None)),
        st.tuples(
            st.sampled_from(("net_send", "net_recv", "result_bytes")),
            st.integers(min_value=0, max_value=4096),
            st.integers(min_value=0, max_value=SEND_SIZE),
            children,
        ).map(lambda t: Net(*t)),
        st.tuples(children, children, st.sampled_from(_CALLEES)).map(
            lambda t: Call(*t)
        ),
        # an operand stays live below the call's arguments
        st.tuples(
            st.sampled_from(_BIN_OPS), children, children, children,
            st.sampled_from(_CALLEES),
        ).map(lambda t: Bin(t[0], t[1], Call(t[2], t[3], t[4]))),
    ),
    max_leaves=10,
)

_expr = st.one_of(
    _flat,
    st.tuples(st.integers(min_value=0, max_value=12), _flat).map(
        lambda t: Loop(*t)
    ),
    st.tuples(st.integers(min_value=1, max_value=12), _flat).map(
        lambda t: DoLoop(*t)
    ),
)

_program = st.lists(_expr, min_size=1, max_size=3)

_fuel = st.sampled_from((3, 17, 64, 257, 4_000, 1_000_000))

_host_results = st.lists(
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    min_size=1, max_size=4,
)

#: sequence numbers the host writes into receive headers, in turn
_recv_seqs = st.lists(
    st.one_of(st.integers(min_value=-2, max_value=8),
              st.sampled_from((2 ** 63 - 1, -(2 ** 63)))),
    min_size=1, max_size=4,
)

_writes = st.lists(
    st.one_of(
        st.none(),
        st.tuples(
            st.integers(min_value=0, max_value=4000),
            st.binary(min_size=1, max_size=16),
        ),
    ),
    max_size=4,
)


def _build_module(exprs) -> "Module":  # noqa: F821 - doc only
    ctx = _Ctx()
    lines: list[str] = []
    for position, expr in enumerate(exprs):
        lines.extend(expr.render(ctx))
        if position:
            lines.append("add")
    body = "\n".join(lines)
    n_locals = max(ctx.next_local, 1)
    source = (
        ".memory 4096\n"
        f".buffer udp_send_buffer {SEND_OFF} {SEND_SIZE}\n"
        f".buffer udp_recv_buffer {RECV_OFF} {RECV_SIZE}\n"
        ".global g 18446744073709551615\n"
        ".global h 9223372036854775808\n"
        f".func run_debuglet 0 {n_locals}\n{body}\nret\n.end\n"
        ".func helper 2 0\n"
        "local_get 0\nlocal_get 1\nxor\npush 7\nadd\nret\n.end\n"
        ".func hostly 2 0\n"
        "local_get 0\nhost log_i64\nlocal_get 1\nadd\nret\n.end\n"
        ".func nested 2 1\n"
        "push 3\nlocal_get 0\nlocal_get 1\ncall hostly\nlocal_tee 2\n"
        "local_get 1\ncall helper\nadd\nlocal_get 2\nsub\nret\n.end\n"
    )
    return assemble(source)


def _run_session(module, tier, fuel, host_results, writes, recv_seqs=(0,)):
    """One full session as a comparable trace of every observable."""
    return _session(VM(module, fuel_limit=fuel, tier=tier), tier,
                    host_results, writes, recv_seqs)


def _payload(vm, step) -> bytes | None:
    """The bytes the executor's program wrapper would read for ``step``."""
    if step.name == "result_bytes":
        return vm.read_memory(*step.args)
    if step.name == "net_send":
        return vm.read_memory(SEND_OFF, min(max(step.args[-1], 0), SEND_SIZE))
    return None


def _deliver(vm, step, size: int, seq: int) -> None:
    """A ``net_recv`` answered with ``size``: write the receive header and
    ``size`` payload bytes (clipped to the buffer) as the executor does."""
    protocol = protocol_from_number(step.args[0]).name.lower()
    recv = vm.module.buffer(f"{protocol}_recv_buffer")
    payload = bytes(range(min(size, recv.size - 32) % 256))
    header = b"".join(
        (value & (2 ** 64 - 1)).to_bytes(8, "little")
        for value in (0, 7, seq, 1_000 + seq)
    )
    vm.write_memory(recv.offset, header + payload)


def _session(vm, tier, host_results, writes, recv_seqs=(0,)):
    trace: list = [("tier", vm.tier)] if tier == "reference" else []
    try:
        step = vm.start([])
        calls = replies = 0
        while isinstance(step, HostCall):
            trace.append(("host", step.name, step.args, vm.fuel_used,
                          _payload(vm, step)))
            if calls < len(writes) and writes[calls] is not None:
                offset, data = writes[calls]
                vm.write_memory(offset, data)
            result = host_results[calls % len(host_results)]
            if step.name == "net_recv" and result >= 0:
                _deliver(vm, step, result, recv_seqs[replies % len(recv_seqs)])
                replies += 1
            calls += 1
            if calls > 400:  # host-heavy programs: bound the session
                break
            step = vm.resume([result])
        else:
            trace.append(("done", step.value))
    except SandboxError as exc:
        trace.append(("trap", type(exc).__name__, str(exc)))
    trace.append(("fuel", vm.fuel_used))
    trace.append(("finished", vm.finished))
    trace.append(("memory", bytes(vm.memory)))
    trace.append(("globals", sorted(vm.globals.items())))
    return trace


class TestTierEquivalence:
    @given(_program, _fuel, _host_results, _writes, _recv_seqs)
    @settings(max_examples=200, deadline=None)
    def test_sessions_are_bit_identical(
        self, exprs, fuel, host_results, writes, recv_seqs,
    ):
        module = _build_module(exprs)
        reference = _run_session(module, "reference", fuel, host_results,
                                 writes, recv_seqs)
        # Generated programs are valid by construction, so "auto" must
        # actually select the compiled tier — otherwise this test would
        # silently compare the reference tier with itself.
        fast_vm = VM(module, fuel_limit=fuel, tier="auto")
        assert fast_vm.tier == "compiled"
        compiled = _session(fast_vm, "auto", host_results, writes, recv_seqs)
        assert reference[1:] == compiled, (reference, compiled)
        if not any(row[0] == "trap" for row in reference):
            # nothing trapped, so nothing may have been replayed
            assert fast_vm._delegate is None, reference
        threaded = _session(ThreadedVM(module, fuel_limit=fuel), "compiled",
                            host_results, writes, recv_seqs)
        assert threaded == compiled


class TestStockPrograms:
    """The echo pair, driven by scripted hosts, never trap and so must
    never bail."""

    def test_echo_programs_never_bail(self):
        stocks = (
            echo_client(Protocol.UDP, Address(20, 2), count=4, interval_us=1_000),
            echo_server(Protocol.TCP, max_echoes=4, idle_timeout_us=5_000),
        )
        for stock in stocks:
            for host_results in ([64], [-1], [7, 64, -1, 0]):
                reference = _run_session(stock.module, "reference", 1_000_000,
                                         host_results, [])
                assert not any(row[0] == "trap" for row in reference)
                vm = VM(stock.module, fuel_limit=1_000_000, tier="auto")
                assert vm.tier == "compiled"
                assert _session(vm, "auto", host_results, []) == reference[1:]
                assert vm._delegate is None

    def test_client_output_region_survives_excess_replies(self):
        """A host that delivers more replies than probes, some with
        sequence numbers the client never sent: no trap, no bail, and the
        published region holds at most one pair per probe, in the order
        the replies came."""
        count = 4
        stock = echo_client(Protocol.UDP, Address(20, 2), count=count,
                            interval_us=1_000)
        # the probe loop's replies, then 20 late ones before the drain ends
        host_results = [0] * (1 + count * 4) + [8] * 20 + [-1]
        for recv_seqs in ([0, 1, 2, 3], [3, -1, 2 ** 63 - 1, -(2 ** 63), 9]):
            reference = _run_session(stock.module, "reference", 1_000_000,
                                     host_results, [], recv_seqs)
            assert not any(row[0] == "trap" for row in reference)
            vm = VM(stock.module, fuel_limit=1_000_000, tier="auto")
            assert vm.tier == "compiled"
            compiled = _session(vm, "auto", host_results, [], recv_seqs)
            assert compiled == reference[1:]
            assert vm._delegate is None
            [published] = [row[4] for row in compiled
                           if row[:2] == ("host", "result_bytes")]
            pairs = decode_result_pairs(published)
            assert len(pairs) == count
            assert [seq for seq, _ in pairs] == recv_seqs[:count]
