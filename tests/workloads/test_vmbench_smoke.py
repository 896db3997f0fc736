"""VM execution-tier perf smoke checks (ISSUE 5 satellites 4 & 6).

Cheap guards that run inside the tier-1 suite (selectable with
``-m perf_smoke``), mirroring ``test_perf_smoke``:

- the compiled tier must clearly beat the reference interpreter on the
  interpreter-bound tight loop (loose 2x smoke bound; the full-scale
  number is ``sandbox.compile.speedup_geomean`` of ``vm_tiers`` in
  ``bench/``);
- on the host-call-dominated workload — where interpretation is *not*
  the bottleneck — the compiled tier must stay within 1% of the
  reference (plus a small absolute floor against timer jitter), so the
  fast tier never taxes workloads it cannot help.
"""

import pytest

from repro.perf.vmbench import run_suite

pytestmark = pytest.mark.perf_smoke


def test_compiled_tier_speedup_and_host_call_parity():
    """One measured pass over both guard workloads. Small scale keeps
    this inside tier-1 budget; min-of-N timing (inside ``run_suite``)
    absorbs scheduler noise."""
    rows = run_suite(
        scale=0.2, repeats=3, workloads=("tight_loop", "host_heavy")
    )
    by_key = {(row["name"], row["tier"]): row for row in rows}

    # Interpreter-bound: loose 2x smoke bound (full-scale bench shows
    # >=5x; 2x here guards against the tier quietly falling back to the
    # interpreter while staying robust to CI noise).
    tight_ref = by_key[("tight_loop", "reference")]["seconds"]
    tight_fast = by_key[("tight_loop", "compiled")]["seconds"]
    assert tight_fast * 2 < tight_ref, (tight_ref, tight_fast)

    # Host-call-dominated: within 1% + 10 ms jitter floor (satellite 6).
    host_ref = by_key[("host_heavy", "reference")]["seconds"]
    host_fast = by_key[("host_heavy", "compiled")]["seconds"]
    assert host_fast <= host_ref * 1.01 + 0.010, (host_ref, host_fast)

    # run_suite already asserts fuel/result/host_calls equality across
    # tiers; spot-check the invariants made it into the returned rows.
    assert by_key[("tight_loop", "reference")]["fuel_used"] == \
        by_key[("tight_loop", "compiled")]["fuel_used"]
    assert by_key[("host_heavy", "compiled")]["host_calls"] > 0
