"""Execution-tier workloads: four single-VM programs and the loop that runs them.

Each program isolates one place where the compiled tier
(:mod:`repro.sandbox.compile`) can and cannot win over the reference
interpreter:

- ``tight_loop`` — pure dispatch + fuel accounting; the interpreter-bound
  case, where the loop body is a handful of Python statements on locals
  with one fuel charge per block;
- ``memory_heavy`` — dynamic (runtime-checked) and constant (elided)
  loads/stores per iteration;
- ``call_heavy`` — frame push/pop cost via a helper called per iteration;
  the helper never suspends, so it is a plain Python call;
- ``host_heavy`` — one host call per iteration; the embedder's
  suspend/resume round trip, not interpretation, is the bottleneck here,
  so the two tiers are closest.

Nothing here reads a clock. The ``vm_tiers`` workload of ``bench/`` times
these programs on both tiers (``primary_per_s`` / ``secondary_per_s``, and
per program with ``--trace 1``).
"""

from __future__ import annotations

from repro.sandbox.assembler import assemble
from repro.sandbox.module import Module
from repro.sandbox.vm import VM, Done, HostCall

#: name -> (baseline iteration count, assembly template)
_WORKLOADS: dict[str, tuple[int, str]] = {
    "tight_loop": (200_000, """
.memory 4096
.func run_debuglet 1 1
    push 0
    local_set 1
loop:
    local_get 1
    push 1
    add
    local_set 1
    local_get 1
    local_get 0
    lts
    jnz loop
    local_get 1
    ret
.end
"""),
    "memory_heavy": (50_000, """
.memory 65536
.func run_debuglet 1 2
    push 0
    local_set 1
loop:
    ; dynamic address: mem64[(i & 511) * 8] = i  (runtime-checked)
    local_get 1
    push 511
    and
    push 8
    mul
    local_get 1
    store64
    ; read it back and accumulate
    local_get 1
    push 511
    and
    push 8
    mul
    load64
    local_get 2
    add
    local_set 2
    ; constant address: mem64[8192] = acc  (bounds check elided)
    push 8192
    local_get 2
    store64
    push 8192
    load64
    drop
    local_get 1
    push 1
    add
    local_set 1
    local_get 1
    local_get 0
    lts
    jnz loop
    local_get 2
    ret
.end
"""),
    "call_heavy": (100_000, """
.memory 4096
.func run_debuglet 1 2
    push 0
    local_set 1
loop:
    local_get 2
    local_get 1
    call accumulate
    local_set 2
    local_get 1
    push 1
    add
    local_set 1
    local_get 1
    local_get 0
    lts
    jnz loop
    local_get 2
    ret
.end
.func accumulate 2 0
    local_get 0
    local_get 1
    add
    push 3
    add
    ret
.end
"""),
    "host_heavy": (20_000, """
.memory 4096
.func run_debuglet 1 1
    push 0
    local_set 1
loop:
    local_get 1
    host log_i64
    drop
    local_get 1
    push 1
    add
    local_set 1
    local_get 1
    local_get 0
    lts
    jnz loop
    local_get 1
    ret
.end
"""),
}

WORKLOAD_NAMES = tuple(_WORKLOADS)


def workload_module(name: str) -> tuple[Module, int]:
    """Assembled module and baseline iteration count for ``name``."""
    iterations, source = _WORKLOADS[name]
    return assemble(source), iterations


def drive(vm: VM, args: list[int]) -> tuple[Done, int]:
    """Run a VM to completion, answering every host call with ``[0]``."""
    step = vm.start(args)
    host_calls = 0
    while isinstance(step, HostCall):
        host_calls += 1
        step = vm.resume([0])
    return step, host_calls
