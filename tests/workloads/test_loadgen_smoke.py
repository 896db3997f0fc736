"""Loadgen smoke checks (DESIGN.md §10).

Cheap guards that the fleet-scale bench stays healthy inside the tier-1
suite: the fleet certifies everything it launches, sustains full
concurrency, runs deterministically (byte-identical observability exports
for the same seed), and the batched ledger seals a small fraction of the
serial baseline's checkpoints. The timed comparison is ``market_batched``
vs ``market_serial_verify`` in ``bench/``; the full-scale (~5x) one is
``repro loadgen [--ledger serial]`` (README).
"""

import math

import pytest

from repro.obs import Observability
from repro.obs.export import to_prometheus
from repro.workloads import LoadgenConfig, build_loadgen, run_loadgen

SMOKE = dict(sessions=150, executors=8, initiators=8, ramp=4.0, seed=1)


def _run(**overrides):
    config = LoadgenConfig(**{**SMOKE, **overrides})
    obs = Observability.enabled()
    fleet = build_loadgen(config, obs=obs)
    report = run_loadgen(fleet)
    return fleet, report, obs


def test_loadgen_certifies_full_fleet_at_peak_concurrency():
    fleet, report, _ = _run()
    det = report["deterministic"]
    assert det["certified"] == SMOKE["sessions"]
    assert det["launch_failures"] == 0
    # Every session shares one execution epoch (earliest = windows_open),
    # so the whole fleet is concurrently active at the top of the ramp —
    # the property that scales to the >=10k-session acceptance run.
    assert det["peak_active_sessions"] == SMOKE["sessions"]
    assert det["latency_p50_s"] > 0
    assert det["latency_p99_s"] >= det["latency_p50_s"]


def test_loadgen_batched_matches_serial_outcome():
    _, batched, _ = _run(ledger_mode="batched")
    _, serial, _ = _run(ledger_mode="serial")
    assert batched["deterministic"]["state_digest"] == (
        serial["deterministic"]["state_digest"]
    )
    det_b = dict(batched["deterministic"])
    det_s = dict(serial["deterministic"])
    # Checkpoint grouping is the one allowed difference.
    assert det_b.pop("blocks_sealed") > det_s.pop("blocks_sealed") == 0
    assert det_b.pop("checkpoints") < det_s.pop("checkpoints")
    assert det_b == det_s


def test_loadgen_same_seed_obs_exports_are_byte_identical():
    _, first_report, first_obs = _run()
    _, second_report, second_obs = _run()
    assert first_report["deterministic"] == second_report["deterministic"]
    first_text = to_prometheus(first_obs.metrics)
    second_text = to_prometheus(second_obs.metrics)
    assert first_text.encode() == second_text.encode()
    # The batching/fleet metrics are present in the export.
    for name in ("ledger_batch_size", "ledger_apply_seconds",
                 "sessions_active", "fleet_sessions_total",
                 "ledger_blocks_total"):
        assert name in first_text, f"{name} missing from metrics export"


def test_loadgen_chain_verifies():
    config = LoadgenConfig(**{**SMOKE, "sessions": 60, "verify_chain": True})
    report = run_loadgen(build_loadgen(config))
    assert "verify_chain_seconds" in report


# ----------------------------------------------------------- perf guard


def test_batched_ledger_beats_serial_on_small_fleet():
    """Smoke-scale guard for the scale bench, asserted on what the batched
    ledger saves rather than on wall clock: the serial ledger seals one
    checkpoint (a state-root fold) per transaction, the batched one per
    block window, and both end in the same state. At a few hundred
    sessions the wall-clock gap (~1.2x) is inside one timed pair's noise;
    the timed comparison is the bench's (``market_batched`` vs
    ``market_serial_verify``), and at 12k sessions it reads ~5x."""
    scale = dict(sessions=600, executors=16, initiators=16, ramp=6.0, seed=2)
    serial = _run(ledger_mode="serial", **scale)[1]["deterministic"]
    batched = _run(ledger_mode="batched", **scale)[1]["deterministic"]
    assert batched == {
        **serial,
        "blocks_sealed": batched["blocks_sealed"],
        "checkpoints": batched["checkpoints"],
    }
    assert serial["checkpoints"] == serial["ledger_txs"]
    assert serial["blocks_sealed"] == 0
    assert batched["checkpoints"] == batched["blocks_sealed"] > 0
    assert batched["checkpoints"] * 100 <= serial["checkpoints"], (
        batched["checkpoints"], serial["checkpoints"],
    )


#: The sampling band's two-sided false-failure rate, at any seed.
SAMPLING_ALPHA = 1e-3


def binomial_band(n: int, p: float, alpha: float) -> tuple[int, int]:
    """The central ``[lo, hi]`` of Binomial(n, p): at most ``alpha / 2`` of
    the mass lies below ``lo`` and at most ``alpha / 2`` above ``hi``."""
    pmf = [math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)]
    lo, below = 0, 0.0
    while below + pmf[lo] <= alpha / 2:
        below += pmf[lo]
        lo += 1
    hi, above = n, 0.0
    while above + pmf[hi] <= alpha / 2:
        above += pmf[hi]
        hi -= 1
    return lo, hi


def test_binomial_band():
    assert binomial_band(100, 0.25, SAMPLING_ALPHA) == (12, 40)
    assert binomial_band(10, 0.5, 0.0) == (0, 10)


def test_loadgen_audit_mode_observes_and_samples():
    fleet, report, _ = _run(sessions=100, audit_rate=0.25)
    audit = report["deterministic"]["audit"]
    assert audit["sessions_observed"] == 100
    # Each observed session is sampled by its own seeded uniform draw, so
    # the count is Binomial(100, 0.25); outside this band with probability
    # at most SAMPLING_ALPHA whatever the seed.
    lo, hi = binomial_band(100, 0.25, SAMPLING_ALPHA)
    assert lo <= audit["sessions_sampled"] <= hi
    assert audit["certificates_checked"] == 2 * audit["sessions_sampled"]
    assert audit["window_violations"] == 0
    assert audit["signature_failures"] == 0
    assert report["audit_rate"] == 0.25


def test_audit_verifies_only_the_sampled_certificates_in_one_batch(monkeypatch):
    """What auditing adds to a fleet run, counted rather than timed: the
    two certificates of each sampled session, no others, checked in one
    batch call at drain; nothing at all on a run without an auditor. (The
    wall-clock cost of that work is a bench-pair question, not tier-1's.)"""
    from repro.workloads import loadgen

    batches = []
    verify = loadgen.ed25519_batch_verify

    def counted(items):
        batches.append(list(items))
        return verify(items)

    monkeypatch.setattr(loadgen, "ed25519_batch_verify", counted)

    plain = _run()[1]["deterministic"]
    assert batches == [] and "audit" not in plain

    audited = _run(audit_rate=0.25)[1]["deterministic"]
    audit = audited["audit"]
    assert audited["certified"] == plain["certified"] == SMOKE["sessions"]
    assert 0 < audit["sessions_sampled"] < audit["sessions_observed"]
    assert audit["certificates_checked"] == 2 * audit["sessions_sampled"]
    assert len(batches) == 1
    assert len(batches[0]) == audit["certificates_checked"]
    assert len({signature for _, _, signature in batches[0]}) == len(batches[0])
    assert audit["window_violations"] == 0
    assert audit["signature_failures"] == 0
