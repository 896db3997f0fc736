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

from repro.perf.vmbench import WORKLOAD_NAMES, drive, run_suite, workload_module
from repro.sandbox.vm import VM


def test_compiled_tier_speedup_and_host_call_parity():
    """Every vmbench program is provable, so ``tier="auto"`` compiles it,
    and both tiers return the same result, fuel and host-call count."""
    for name in WORKLOAD_NAMES:
        module, _ = workload_module(name)
        vm = VM(module, tier="auto")
        assert vm.tier == "compiled", name
        drive(vm, [50])
        assert vm.finished and vm._delegate is None, name  # never replayed

    rows = run_suite(scale=0.05, repeats=1)
    by_key = {(row["name"], row["tier"]): row for row in rows}
    for name in WORKLOAD_NAMES:
        reference, compiled = by_key[(name, "reference")], by_key[(name, "compiled")]
        for key in ("fuel_used", "result", "host_calls"):
            assert reference[key] == compiled[key], (name, key)
        assert reference["fuel_used"] > reference["iterations"]
    assert by_key[("host_heavy", "compiled")]["host_calls"] == \
        by_key[("host_heavy", "compiled")]["iterations"]
