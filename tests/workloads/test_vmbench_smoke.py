"""The vmbench programs run on the compiled tier, and both tiers agree.

What this guards is the compiled tier quietly falling back to the
reference interpreter — at construction, or by a bail-to-replay in the
middle of a run — asked of the VM itself rather than read off a
wall-clock ratio (compiled over reference is ≈12–18x on ``tight_loop``
but ≈3x on ``host_heavy``, where the embedder's resume dominates; a
ratio bound would be either loose or flaky). How fast either tier is, and by
how much one beats the other, is ``vm_tiers`` in ``bench/``
(``primary_per_s`` and ``secondary_per_s``).
"""

from repro.perf.vmbench import WORKLOAD_NAMES, drive, workload_module
from repro.sandbox.vm import VM


def _run(name: str, tier: str) -> dict:
    """One vmbench program at 5 % of its baseline iterations on ``tier``."""
    module, baseline = workload_module(name)
    iterations = max(1, int(baseline * 0.05))
    vm = VM(module, fuel_limit=10**12, tier=tier)
    done, host_calls = drive(vm, [iterations])
    return {"iterations": iterations, "result": done.value,
            "fuel_used": vm.fuel_used, "host_calls": host_calls}


def test_compiled_tier_speedup_and_host_call_parity():
    """Every vmbench program is provable, so ``tier="auto"`` compiles it,
    and both tiers return the same result, fuel and host-call count."""
    for name in WORKLOAD_NAMES:
        module, _ = workload_module(name)
        vm = VM(module, tier="auto")
        assert vm.tier == "compiled", name
        drive(vm, [50])
        assert vm.finished and vm._delegate is None, name  # never replayed

    for name in WORKLOAD_NAMES:
        reference, compiled = _run(name, "reference"), _run(name, "compiled")
        for key in ("fuel_used", "result", "host_calls"):
            assert reference[key] == compiled[key], (name, key)
        assert reference["fuel_used"] > reference["iterations"]
        if name == "host_heavy":
            assert compiled["host_calls"] == compiled["iterations"]
