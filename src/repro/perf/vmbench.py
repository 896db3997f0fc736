"""Execution-tier microbenchmarks: reference interpreter vs generated code.

Four single-VM workloads isolate where the compiled tier
(:mod:`repro.sandbox.compile`) can and cannot win:

- ``tight_loop`` — pure dispatch + fuel accounting; the interpreter-bound
  case, where the loop body is a handful of Python statements on locals
  with one fuel charge per block (≈12–18x the decoded reference tier);
- ``memory_heavy`` — dynamic (runtime-checked) and constant (elided)
  loads/stores per iteration (≈5–7x);
- ``call_heavy`` — frame push/pop cost via a helper called per iteration;
  the helper never suspends, so it is a plain Python call (≈13–18x);
- ``host_heavy`` — one host call per iteration; the embedder's
  suspend/resume round trip, not interpretation, is the bottleneck here,
  so the two tiers are closest (≈3x).

``run_localization`` additionally times an end-to-end fault-localization
scenario (simulator + fleet + sandboxed probers) per tier, which bounds
how much of a full-scenario wall clock the VM actually is.

All timings are min-of-N wall seconds; results feed ``repro vmbench``
and the ``vm_tiers`` workload of ``bench/``.
"""

from __future__ import annotations

import time

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
TIERS = ("reference", "compiled")


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


def run_workload(
    name: str, tier: str, *, scale: float = 1.0, repeats: int = 3
) -> dict:
    """Min-of-``repeats`` timing of one workload on one tier.

    Also checks the equivalence contract on the way: result and
    ``fuel_used`` must not depend on the tier, so they are recorded and
    comparable across rows.
    """
    module, baseline = workload_module(name)
    iterations = max(1, int(baseline * scale))
    best = float("inf")
    result = fuel = host_calls = 0
    for _ in range(repeats):
        vm = VM(module, fuel_limit=10**12, tier=tier)
        started = time.perf_counter()
        done, host_calls = drive(vm, [iterations])
        best = min(best, time.perf_counter() - started)
        result, fuel = done.value, vm.fuel_used
    row = {
        "name": name,
        "tier": tier,
        "seconds": round(best, 6),
        "iterations": iterations,
        "fuel_used": fuel,
        "result": result,
        "host_calls": host_calls,
        "repeats": repeats,
    }
    if tier == "compiled":
        from repro.sandbox.compile import get_compiled

        compiled = get_compiled(module)
        if compiled is not None:
            row["elided_checks"] = compiled.elided_checks
            row["elided_const"] = compiled.elided_const
            row["elided_ranged"] = compiled.elided_ranged
    return row


def run_suite(
    tiers: tuple[str, ...] = TIERS,
    *,
    scale: float = 1.0,
    repeats: int = 3,
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
) -> list[dict]:
    """All requested workloads on all requested tiers, with speedups.

    When both tiers run, each compiled row gains a ``speedup`` key
    (reference seconds / compiled seconds) and the tier-invariant fields
    are asserted equal — a benchmark that quietly diverged would be
    measuring two different programs.
    """
    rows: list[dict] = []
    for name in workloads:
        per_tier: dict[str, dict] = {}
        for tier in tiers:
            row = run_workload(name, tier, scale=scale, repeats=repeats)
            per_tier[tier] = row
            rows.append(row)
        if "reference" in per_tier and "compiled" in per_tier:
            ref, fast = per_tier["reference"], per_tier["compiled"]
            for key in ("fuel_used", "result", "host_calls"):
                if ref[key] != fast[key]:
                    raise AssertionError(
                        f"{name}: tiers diverged on {key}: "
                        f"{ref[key]} != {fast[key]}"
                    )
            fast["speedup"] = round(ref["seconds"] / fast["seconds"], 2) \
                if fast["seconds"] else float("inf")
    return rows


def run_localization(
    tier: str, *, ases: int = 6, probes: int = 8, seed: int = 3
) -> dict:
    """End-to-end fault localization with every session VM on ``tier``.

    Flips :data:`repro.sandbox.program.DEFAULT_TIER` for the duration so
    the fleet's probers — built deep inside the scenario — pick the tier
    up, then restores it.
    """
    import repro.sandbox.program as program_mod
    from repro.workloads.demos import run_localize

    previous = program_mod.DEFAULT_TIER
    program_mod.DEFAULT_TIER = tier
    try:
        started = time.perf_counter()
        run = run_localize(ases, strategy="binary", probes=probes, seed=seed)
        seconds = time.perf_counter() - started
        return {
            "name": "localize_e2e",
            "tier": tier,
            "seconds": round(seconds, 6),
            "ases": ases,
            "probes": probes,
            "correct": run.correct,
            "measurements": run.report.measurements_used,
        }
    finally:
        program_mod.DEFAULT_TIER = previous
