"""Differential fuzz: the compiled tier is bit-identical to the reference.

Random — but structurally valid — modules are generated from composable
expression templates (arithmetic, possibly-trapping division, dynamic and
constant memory accesses, host calls, counted loops, helper calls), then
run to completion on both tiers under random fuel limits, host-result
scripts, and embedder memory writes. The *entire observable session* must
match: the host-call sequence (names, arguments, ``fuel_used`` at every
suspension), the final ``Done`` value or trap type+message, final
``fuel_used``, final linear memory, and final globals (DESIGN.md §7).

Small fuel limits matter most: they force traps at arbitrary points —
mid-block, at host boundaries, inside loops — which is exactly where the
compiled tier's block-level fuel accounting and bail-to-replay fallback
must reproduce the reference interpreter's behaviour precisely.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SandboxError
from repro.sandbox.assembler import assemble
from repro.sandbox.vm import VM, HostCall


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


class Host:
    def __init__(self, op: str, arg) -> None:
        self.op, self.arg = op, arg

    def render(self, ctx: _Ctx) -> list[str]:
        prefix = self.arg.render(ctx) if self.arg is not None else []
        return prefix + [f"host {self.op}"]


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


class Call:
    def __init__(self, left, right) -> None:
        self.left, self.right = left, right

    def render(self, ctx: _Ctx) -> list[str]:
        return self.left.render(ctx) + self.right.render(ctx) + ["call helper"]


_BIN_OPS = ("add", "sub", "mul", "divs", "rems", "and", "or", "xor",
            "shl", "shru", "eq", "ne", "lts", "gts", "les", "ges")

_leaf = st.integers(min_value=-(2 ** 40), max_value=2 ** 40).map(Lit)

_flat = st.recursive(
    _leaf,
    lambda children: st.one_of(
        st.tuples(st.sampled_from(_BIN_OPS), children, children).map(
            lambda t: Bin(*t)
        ),
        # mostly in-range constant addresses, occasionally OOB (traps)
        st.tuples(
            st.one_of(
                st.integers(min_value=0, max_value=4088),
                st.integers(min_value=4089, max_value=5000),
                st.integers(min_value=-64, max_value=-1),
            ),
            children,
        ).map(lambda t: Mem(*t)),
        st.tuples(
            st.sampled_from(("log_i64", "now_us", "rand_u32")), children
        ).map(lambda t: Host(t[0], t[1] if t[0] == "log_i64" else None)),
        st.tuples(children, children).map(lambda t: Call(*t)),
    ),
    max_leaves=10,
)

_expr = st.one_of(
    _flat,
    st.tuples(st.integers(min_value=0, max_value=12), _flat).map(
        lambda t: Loop(*t)
    ),
)

_program = st.lists(_expr, min_size=1, max_size=3)

_fuel = st.sampled_from((3, 17, 64, 257, 4_000, 1_000_000))

_host_results = st.lists(
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
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
        f".func run_debuglet 0 {n_locals}\n{body}\nret\n.end\n"
        ".func helper 2 0\n"
        "local_get 0\nlocal_get 1\nxor\npush 7\nadd\nret\n.end\n"
    )
    return assemble(source)


def _run_session(module, tier, fuel, host_results, writes):
    """One full session as a comparable trace of every observable."""
    vm = VM(module, fuel_limit=fuel, tier=tier)
    trace: list = [("tier", vm.tier)] if tier == "reference" else []
    try:
        step = vm.start([])
        calls = 0
        while isinstance(step, HostCall):
            trace.append(("host", step.name, step.args, vm.fuel_used))
            if calls < len(writes) and writes[calls] is not None:
                offset, data = writes[calls]
                vm.write_memory(offset, data)
            result = host_results[calls % len(host_results)]
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
    @given(_program, _fuel, _host_results, _writes)
    @settings(max_examples=120, deadline=None)
    def test_sessions_are_bit_identical(self, exprs, fuel, host_results, writes):
        module = _build_module(exprs)
        reference = _run_session(module, "reference", fuel, host_results, writes)
        compiled = _run_session(module, "auto", fuel, host_results, writes)
        # Generated programs are valid by construction, so "auto" must
        # actually select the compiled tier — otherwise this test would
        # silently compare the reference tier with itself.
        fast_vm = VM(module, tier="auto")
        assert fast_vm.tier == "compiled"
        assert reference[1:] == compiled, (reference, compiled)
