"""The compiled tier's arithmetic templates, operand by operand.

``ADD``, ``SUB`` and ``MUL`` are emitted as compare-and-correct forms and
the four signed comparisons compare ``x - 2**64 if x >= 2**63 else x``
(``repro.sandbox.compile._PURE``). Each form is exact only for operands
in [0, 2^64), and only if its boundary test is exactly right, so every
template runs here on both tiers over **every** ordered pair of the edge
words below (not a sample), plus random words, against an oracle written
without the VM. The module compares its result with the oracle's by
``eq``, so a result outside [0, 2^64) cannot hide behind the wrap of
``Done``. Each module runs plain (operands are names), nested (operands
are expressions, so the templates bind ``_t`` inside one another) and,
for the comparisons, as a branch test.

Mutants this catches (each checked on a scratch copy): ``> MASK`` →
``>= MASK`` in ``ADD`` (0 + (2^64 − 1)), ``< 0`` → ``<= 0`` in ``SUB``
(0 − 0), and ``>= 2**63`` → ``> 2**63`` in a comparison (2^63 read as
positive).
"""

import random

import pytest

from repro.sandbox.assembler import assemble
from repro.sandbox.compile import compile_module
from repro.sandbox.vm import VM, Done

EDGES = (0, 1, 2 ** 63 - 2, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1,
         2 ** 64 - 2, 2 ** 64 - 1)


def _signed(x: int) -> int:
    return int.from_bytes(x.to_bytes(8, "little"), "little", signed=True)


#: op -> what it computes on two words, written without the VM
ORACLE = {
    "add": lambda a, b: (a + b) % 2 ** 64,
    "sub": lambda a, b: (a - b) % 2 ** 64,
    "mul": lambda a, b: (a * b) % 2 ** 64,
    "lts": lambda a, b: int(_signed(a) < _signed(b)),
    "gts": lambda a, b: int(_signed(a) > _signed(b)),
    "les": lambda a, b: int(_signed(a) <= _signed(b)),
    "ges": lambda a, b: int(_signed(a) >= _signed(b)),
}
COMPARES = ("lts", "gts", "les", "ges")


def _pairs() -> list[tuple[int, int]]:
    rng = random.Random(20260)
    words = [rng.getrandbits(64) for _ in range(24)]
    words += [rng.getrandbits(rng.choice((1, 8, 32, 63))) for _ in range(8)]
    extra = [(rng.choice(words), rng.choice(words)) for _ in range(64)]
    extra += [(rng.choice(EDGES), rng.choice(words)) for _ in range(32)]
    return [(a, b) for a in EDGES for b in EDGES] + extra


PAIRS = _pairs()

#: each operand re-derived through both corrections: (x + 2^63) - 2^63
_NESTED = "push 9223372036854775808\nadd\npush 9223372036854775808\nsub\n"


def _module(op: str, shape: str):
    """``run_debuglet(a, b, want)``: 1 when ``op`` on ``a``, ``b`` is
    ``want``. ``eq`` compares the raw ints, so a result outside [0, 2^64)
    shows even where the VM's final wrap of ``Done`` would hide it."""
    if shape == "plain":
        body = f"local_get 0\nlocal_get 1\n{op}\nlocal_get 2\neq\nret\n"
    elif shape == "nested":
        body = (f"local_get 0\n{_NESTED}local_get 1\n{_NESTED}{op}\n"
                "local_get 2\neq\nret\n")
    else:  # the comparison as a branch's test
        body = (f"local_get 0\nlocal_get 1\n{op}\njnz yes\npush 0\n"
                "local_get 2\neq\nret\nyes:\npush 1\nlocal_get 2\neq\nret\n")
    return assemble(f".memory 8\n.func run_debuglet 3 0\n{body}.end\n")


CASES = [(op, shape) for op in ORACLE
         for shape in ("plain", "nested", "branch")
         if shape != "branch" or op in COMPARES]


@pytest.mark.parametrize("op,shape", CASES,
                         ids=[f"{op}-{shape}" for op, shape in CASES])
def test_template_is_exact_on_both_tiers(op, shape):
    module = _module(op, shape)
    compiled = compile_module(module)
    for a, b in PAIRS:
        args = [a, b, ORACLE[op](a, b)]
        fast = VM(module, tier="compiled", compiled=compiled)
        reference = VM(module)
        assert reference.start(args) == Done(1), (op, a, b)
        assert fast.start(args) == Done(1), (op, a, b)
        assert fast.fuel_used == reference.fuel_used
        assert fast.bail_reason is None and fast._delegate is None
