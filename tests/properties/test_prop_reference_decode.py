"""Differential fuzz: the decoded reference tier equals the old interpreter.

``VM`` on the reference tier dispatches on a per-module table of
``(handler, arg, fuel)`` rows; ``tests/sandbox/vm_reference.py`` keeps the
``if/elif`` loop it replaced. Both run the same sessions here, on random
instruction sequences that pass ``Module.validate`` but not necessarily
the verifier: stack underflow, bad local indices, addresses out of range
or negative, division and remainder by zero, unknown host operations,
recursion to the frame ceiling, falling off the end, globals outside
64 bits, and fuel limits as small as 1. A few hand-built modules add what
random code cannot reach cheaply: the value stack overflowing along a call
chain, on ``dup``, on a return and on a resume.

The whole observable session must match: every host call with
``fuel_used`` at the suspension, the ``Done`` value or the exception's type
and message, and afterwards ``fuel_used``, memory, globals, the value
stack and each frame's ``(function_name, pc, locals, stack_floor)``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sandbox.hostops import HOST_OPS
from repro.sandbox.isa import Instruction, Op
from repro.sandbox.module import Function, Module
from repro.sandbox.verifier.stackcheck import _FIXED_EFFECTS
from repro.sandbox.vm import VM, HostCall
from tests.sandbox.test_verifier import operand_chain
from tests.sandbox.vm_reference import ReferenceVM

_NAMES = ("run_debuglet", "f1", "f2")
_HOST_NAMES = tuple(sorted(HOST_OPS)) + ("no_such_op",)
_LOCAL_OPS = (Op.LOCAL_GET, Op.LOCAL_SET, Op.LOCAL_TEE)
_JUMP_OPS = (Op.JMP, Op.JZ, Op.JNZ)
_MAX_RESUMES = 12

#: immediates: addresses in and around a small memory (and negative ones),
#: zero divisors, shift counts past 63, the sign boundary, anything 64-bit.
_immediate = st.one_of(
    st.integers(min_value=-70, max_value=140),
    st.sampled_from((0, 1, -1, 64, 2**63 - 1, 2**63, 2**64 - 1, 2**64, -(2**63))),
    st.integers(min_value=-(2**64), max_value=2**65),
)

#: the address operand of a load or store: mostly inside a 16- or 64-byte
#: memory, sometimes just outside it or negative.
_address = st.one_of(
    st.integers(min_value=0, max_value=56), st.integers(min_value=-9, max_value=72)
)
_MEMORY_OPS = (Op.LOAD8, Op.STORE8, Op.LOAD64, Op.STORE64)

#: globals are not range-checked by ``Module.validate``.
_global_value = st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.sampled_from((-1, -(2**63), 2**64, 2**70)),
)


#: every opcode, host calls four times as often (most programs trap first)
_OPS = list(Op) + [Op.HOST] * 3


@st.composite
def _code(draw, n_slots: int, params: dict[str, int]) -> list[Instruction]:
    """Any opcodes, each after pushes for its operands: usually all of
    them, sometimes one or two fewer."""
    ops: list[Op] = []
    args: list = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        op = draw(st.sampled_from(_OPS))
        if op is Op.PUSH:
            arg = draw(_immediate)
        elif op in _LOCAL_OPS:  # mostly in range, so programs run on
            arg = draw(st.sampled_from(list(range(n_slots)) * 4 + [-1, n_slots]))
        elif op in (Op.GLOBAL_GET, Op.GLOBAL_SET):
            arg = draw(st.sampled_from(("g0", "g1")))
        elif op is Op.CALL:
            arg = draw(st.sampled_from(sorted(params)))
        elif op is Op.HOST:
            arg = draw(st.sampled_from(_HOST_NAMES))
        else:
            arg = None  # jump targets are drawn once the length is known
        if op is Op.CALL:
            needed = params[arg]
        elif op is Op.HOST:
            needed = HOST_OPS.get(arg, (2, 1))[0]
        else:
            needed = _FIXED_EFFECTS[op][0]
        short = draw(st.sampled_from((0, 0, 0, 0, 0, 0, 0, 0, 1, 2)))
        for position in range(max(0, needed - short)):
            ops.append(Op.PUSH)
            address = position == 0 and op in _MEMORY_OPS
            args.append(draw(_address if address else _immediate))
        ops.append(op)
        args.append(arg)
    return [
        Instruction(op, draw(st.integers(min_value=0, max_value=len(ops) - 1))
                    if op in _JUMP_OPS else arg)
        for op, arg in zip(ops, args)
    ]


@st.composite
def _modules(draw) -> Module:
    names = _NAMES[: draw(st.integers(min_value=1, max_value=len(_NAMES)))]
    params = {name: draw(st.integers(min_value=0, max_value=2)) for name in names}
    functions = {}
    for name in names:
        n_locals = draw(st.integers(min_value=0, max_value=2))
        code = draw(_code(params[name] + n_locals, params))
        functions[name] = Function(name, params[name], n_locals, code)
    module = Module(
        functions=functions,
        memory_size=draw(st.sampled_from((16, 64))),
        globals={"g0": draw(_global_value), "g1": draw(_global_value)},
    )
    module.validate()
    return module


#: largest first: Hypothesis leans towards the first element
_fuel = st.sampled_from((5_000, 300, 64, 17, 8, 5, 3, 2, 1))

_results = st.lists(
    st.lists(st.integers(min_value=-(2**64), max_value=2**65), max_size=2),
    min_size=1, max_size=4,
)


def _state(vm: VM) -> tuple:
    return (
        vm.fuel_used,
        vm.finished,
        bytes(vm.memory),
        sorted(vm.globals.items()),
        list(vm._stack),
        vm._floor,
        [(f.function_name, f.pc, list(f.locals), f.stack_floor)
         for f in vm._frames],
    )


def _session(cls, module: Module, fuel: int, args: list[int],
             results: list[list[int]]) -> list:
    """One session as a comparable trace of every observable."""
    vm = cls(module, fuel_limit=fuel)
    trace: list = []
    try:
        step = vm.start(args)
        resumes = 0
        while isinstance(step, HostCall) and resumes < _MAX_RESUMES:
            trace.append(("host", step.name, step.args, vm.fuel_used))
            step = vm.resume(results[resumes % len(results)])
            resumes += 1
        trace.append(("step", step))
    except Exception as exc:  # noqa: BLE001 - globals outside 64 bits raise OverflowError
        trace.append(("raised", type(exc).__name__, str(exc)))
    trace.append(("state", _state(vm)))
    return trace


def _assert_same(module, fuel, args, results):
    expected = _session(ReferenceVM, module, fuel, args, results)
    actual = _session(VM, module, fuel, args, results)
    assert actual == expected


class TestDecodedReferenceTier:
    @given(_modules(), _fuel, st.data(), _results)
    @settings(max_examples=400, deadline=None)
    def test_sessions_match_the_old_interpreter(self, module, fuel, data, results):
        n_params = module.functions["run_debuglet"].n_params
        args = data.draw(st.lists(_immediate, min_size=n_params, max_size=n_params))
        _assert_same(module, fuel, args, results)


def _straight(code, *, extra=None, n_locals=0) -> Module:
    functions = {"run_debuglet": Function("run_debuglet", 0, n_locals, code)}
    functions.update(extra or {})
    return Module(functions=functions, memory_size=64)


_CEILING = [Instruction(Op.PUSH, 0)] * VM.MAX_VALUE_STACK

_EDGES = {
    # the V203 regression module: overflow on a push, 255 frames deep
    "chain_overflow": operand_chain(VM.MAX_STACK_DEPTH - 1, 258),
    "chain_at_ceiling": operand_chain(VM.MAX_STACK_DEPTH - 1, 257),
    "dup_at_ceiling": _straight(_CEILING + [Instruction(Op.DUP)]),
    "local_get_at_ceiling": _straight(
        _CEILING + [Instruction(Op.LOCAL_GET, 0)], n_locals=1
    ),
    "global_get_at_ceiling": Module(
        functions={"run_debuglet": Function(
            "run_debuglet", 0, 0, _CEILING + [Instruction(Op.GLOBAL_GET, "g")]
        )},
        memory_size=64, globals={"g": 3},
    ),
    # a zero-parameter callee falls off its end; its implicit 0 overflows
    # the caller's full stack after the frame is gone
    "return_at_ceiling": _straight(
        _CEILING + [Instruction(Op.CALL, "empty")],
        extra={"empty": Function("empty", 0, 0, [])},
    ),
    "resume_at_ceiling": _straight(
        _CEILING[1:] + [Instruction(Op.HOST, "now_us")]
    ),
    "self_recursion": _straight(
        [Instruction(Op.PUSH, 1), Instruction(Op.CALL, "run_debuglet")]
    ),
    "empty_entry": _straight([]),
}


@pytest.mark.parametrize("name", sorted(_EDGES))
@pytest.mark.parametrize("fuel", (-1, 0, 1, 200_000))
def test_edge_modules_match_the_old_interpreter(name, fuel):
    _assert_same(_EDGES[name], fuel, [], [[7, 8]])


_ARGS = {Op.LOCAL_GET: 0, Op.LOCAL_SET: 0, Op.LOCAL_TEE: 0, Op.JMP: 0,
         Op.JZ: 0, Op.JNZ: 0, Op.GLOBAL_GET: "g", Op.GLOBAL_SET: "g",
         Op.CALL: "two", Op.HOST: "net_recv"}


def _short_of_operands(op: Op, have: int, nested: bool) -> Module:
    """``op`` with ``have`` operands, fewer than it pops (a call and a host
    op here pop two), run at the entry or in a callee whose caller holds
    three operands under the callee's floor."""
    body = [Instruction(Op.PUSH, 9)] * have + [Instruction(op, _ARGS.get(op))]
    functions = {
        "inner": Function("inner", 0, 1, body),
        "two": Function("two", 2, 0, [Instruction(Op.PUSH, 1)]),
    }
    if nested:
        functions["run_debuglet"] = Function(
            "run_debuglet", 0, 0,
            [Instruction(Op.PUSH, 5)] * 3 + [Instruction(Op.CALL, "inner")],
        )
    else:
        functions["run_debuglet"] = Function("run_debuglet", 0, 1, body)
    return Module(functions=functions, memory_size=64, globals={"g": 3})


_POPPING = [
    (op, have)
    for op in Op
    for have in range(_FIXED_EFFECTS.get(op, (2, 1))[0])
]


@pytest.mark.parametrize("nested", (False, True))
@pytest.mark.parametrize(("op", "have"), _POPPING,
                         ids=[f"{op.value}-{have}" for op, have in _POPPING])
def test_every_underflow_matches_the_old_interpreter(op, have, nested):
    _assert_same(_short_of_operands(op, have, nested), 1_000, [], [[1]])


_EDGE_VALUES = (0, 1, 2, 7, 63, 64, 65, 2**63 - 1, 2**63, 2**64 - 7, 2**64 - 2,
                2**64 - 1, -7, -(2**63), 2**64 + 3)
_BINARY = [op for op in Op if _FIXED_EFFECTS.get(op) == (2, 1)]


@pytest.mark.parametrize("op", _BINARY, ids=[op.value for op in _BINARY])
def test_every_operator_matches_on_edge_operands(op):
    """Each binary operator on every pair of edge values (no zero divisor),
    results left on the stack, globals outside 64 bits included."""
    code = []
    for a in _EDGE_VALUES:
        for b in _EDGE_VALUES:
            if op in (Op.DIVS, Op.REMS) and b % 2**64 == 0:
                continue
            code += [Instruction(Op.PUSH, a), Instruction(Op.PUSH, b),
                     Instruction(op)]
    code += [Instruction(Op.GLOBAL_GET, "big"), Instruction(Op.GLOBAL_GET, "neg"),
             Instruction(op)]
    module = Module(
        functions={"run_debuglet": Function("run_debuglet", 0, 0, code)},
        memory_size=64, globals={"big": 2**64 + 5, "neg": -3},
    )
    _assert_same(module, 10_000, [], [[1]])
