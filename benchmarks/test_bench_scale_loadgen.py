"""Fleet-scale control-plane bench: batched+sharded ledger vs serial.

Runs the ``repro loadgen`` fleet (DESIGN.md §11) in both ledger modes and
asserts the batched-over-serial sessions/sec ratio (absolute sessions/sec
is ``market_batched`` in ``bench/``). The default scale keeps CI
fast; ``DEBUGLET_FULL=1`` runs the paper-scale 12 000-session fleet, where
one checkpoint seal and shard-root fold per transaction dominate the
serial baseline and the batched ledger is ~5x sessions/sec (5.1x and 5.7x
in two runs with OpenSSL signatures; the floor asserted stays 5x). The gap
grows with state size: with signature cost out of the way (DESIGN.md §11)
it is ~1.6x at the reduced 1 200 sessions and ~1.3x at the 600-session
smoke.

The two modes must agree on every deterministic observable (state digest,
session outcomes, latencies) — only wall-clock and checkpoint grouping may
differ. Runs are strictly sequential: concurrent fleets would contend for
CPU and corrupt both wall-clock numbers.
"""

from benchmarks.conftest import FULL_SCALE, run_once

from repro.workloads import LoadgenConfig, build_loadgen, run_loadgen

SESSIONS = 12_000 if FULL_SCALE else 1_200
EXECUTORS = 64 if FULL_SCALE else 32
INITIATORS = 64 if FULL_SCALE else 32
RAMP = 30.0 if FULL_SCALE else 8.0
MIN_SPEEDUP = 5.0 if FULL_SCALE else 1.2


def _run(mode: str) -> dict:
    config = LoadgenConfig(
        sessions=SESSIONS,
        executors=EXECUTORS,
        initiators=INITIATORS,
        ledger_mode=mode,
        ramp=RAMP,
        seed=0,
    )
    return run_loadgen(build_loadgen(config))


def test_bench_scale_loadgen(benchmark):
    def runner():
        serial = _run("serial")
        batched = _run("batched")
        return serial, batched

    serial, batched = run_once(benchmark, runner)

    det_b, det_s = batched["deterministic"], serial["deterministic"]
    assert det_b["state_digest"] == det_s["state_digest"]
    assert det_b["certified"] == det_s["certified"] == SESSIONS
    assert det_b["peak_active_sessions"] == SESSIONS

    speedup = batched["sessions_per_sec"] / serial["sessions_per_sec"]
    tier = "full" if FULL_SCALE else "reduced"
    print(
        f"\nscale bench ({tier}, {SESSIONS} sessions): "
        f"serial {serial['wall_seconds']:.1f}s "
        f"({serial['sessions_per_sec']:.1f}/s), "
        f"batched {batched['wall_seconds']:.1f}s "
        f"({batched['sessions_per_sec']:.1f}/s) — x{speedup:.2f}"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batched ledger only x{speedup:.2f} over serial at "
        f"{SESSIONS} sessions (floor x{MIN_SPEEDUP})"
    )
