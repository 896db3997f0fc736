"""Names, units, bounds and predictions of the benchmark, in one place.

``BENCHMARK.json`` at the repository root repeats the workload and metric
lists (the driver reads that file, not this one); ``--selfcheck`` asserts
the two agree. What ``BENCHMARK.json`` has no key for lives only here:
what one unit of primary / secondary work is on each workload, and which
end-to-end metric on which workload each per-layer metric is predicted to
move (``moves``) or to leave alone (``unmoved``).
"""

from __future__ import annotations

#: workload -> (why it exists, unit of primary work, unit of secondary work).
WORKLOADS: dict[str, tuple[str, str, str]] = {
    "market_batched": (
        "Control plane, batch path: 200-session loadgen windows on the batched "
        "ledger (deferred batch verify, one seal per window), then verify_chain; "
        "synthetic executors, no sandbox, no netsim.",
        "certified sessions (loadgen.run, ledger_mode=batched)",
        "ledger txs re-verified (Ledger.verify_chain, one checkpoint per window)",
    ),
    "market_serial_verify": (
        "Same chain layers the other way: 60-session windows with per-tx verify "
        "and one checkpoint per tx, then a third party's verify_chain over one "
        "checkpoint per tx.",
        "certified sessions (loadgen.run, ledger_mode=serial)",
        "ledger txs re-verified (Ledger.verify_chain, one checkpoint per tx)",
    ),
    "session_fullstack": (
        "The paper's headline flow with every real layer: purchase, wire fetch, "
        "admission, VM on packet-level netsim, certify, publish, then "
        "verify_result; closed loop, one session in flight.",
        "sessions, request_measurement -> certified",
        "published results checked (ChainVerifier.verify_result)",
    ),
    "wan_build": (
        "What every wanbench user pays first: build_continent at 1000 ASes "
        "(topology + Gao-Rexford route trees + gravity traffic), then 100 "
        "policy-path queries to destinations with no cached tree.",
        "ASes built (build_continent)",
        "policy-path queries answered (policy_segment_asns + is_valley_free)",
    ),
    "wan_campaign": (
        "Vectorized localization, many tiny cells: 80 episodes x 10 probes on "
        "fresh 400-AS continents through both plan drivers, CampaignEngine then "
        "FaultLocalizer per episode; route trees untimed.",
        "segment measurements, run_campaign(workers=0)",
        "segment measurements, FaultLocalizer over FastSegmentProber, per episode",
    ),
    "dataplane_event": (
        "Event-driven data plane with long probe trains: one 6-AS localization "
        "of 100-probe sandboxed echo pairs per iteration, then a reference-tier "
        "audit replay of every client transcript.",
        "certified echo probes (FaultLocalizer.localize on the event engine)",
        "echo probes replayed (audit_record on the reference tier)",
    ),
    "table1_study": (
        "The section-II protocol study both ways: 24 cells x 400 probes on the "
        "packet-level engine (no sandbox), then 24 x 10000 on the numpy fast "
        "path, throughput-bound where wan_campaign is overhead-bound.",
        "probes, event-driven run_protocol_study",
        "probes, run_protocol_study(fast=True)",
    ),
    "vm_tiers": (
        "Interpreter dispatch alone: the four vmbench programs on the compiled "
        "tier and on the reference tier; the only workload where a VM-tier "
        "change is more than a few percent.",
        "fuel units, compiled tier (geometric mean over 4 programs)",
        "fuel units, reference tier (geometric mean over 4 programs)",
    ),
}

#: The four end-to-end metrics every workload reports (``--trace 0``). The
#: rate bounds are set from what the sizing host allows: over ten seeds
#: the worst spread seen was 13 % (``secondary_per_s@wan_campaign``, in a
#: set taken while the host's speed moved by 30 % within seconds), and the
#: driver refuses a benchmark whose spread exceeds its own bound.
#: ``bench.compare`` on interleaved sets resolves far smaller changes.
#: ``peak_rss_mb`` is all but deterministic per seed, but on the wan
#: workloads it follows the generated topology's size: 2.7 % spread over
#: ten seeds, kept under a third of the bound.
END_TO_END: list[dict] = [
    {"name": "primary_per_s", "unit": "1/s", "better": "higher", "bound": 0.20},
    {"name": "secondary_per_s", "unit": "1/s", "better": "higher", "bound": 0.20},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.10},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

#: The 26 layers of the traced pass, outside in (``repro.<layer>``).
LAYERS: tuple[str, ...] = (
    "chain.crypto",
    "common.serialize",
    "chain.ledger",
    "chain.objects",
    "chain.events",
    "contracts.debuglet_market",
    "core.marketplace",
    "core.fleet",
    "core.executor",
    "core.verification",
    "core.application",
    "sandbox.verifier",
    "sandbox.programs",
    "sandbox.vm",
    "netsim.engine",
    "netsim.network",
    "netsim.conduit",
    "netsim.internet",
    "netsim.traffic",
    "netsim.fastpath",
    "core.fastprobe",
    "core.localization",
    "core.probing",
    "perf.shardloop",
    "perf.parallel",
    "workloads.driver",
)

_P, _S = "primary_per_s", "secondary_per_s"
_MARKET = ("market_batched", "market_serial_verify")


def _on(metric: str, *workloads: str) -> list[tuple[str, str]]:
    return [(metric, workload) for workload in workloads]


#: layer -> the (end-to-end metric, workload) pairs its self time sits under.
LAYER_MOVES: dict[str, list[tuple[str, str]]] = {
    "chain.crypto": _on(_P, *_MARKET, "session_fullstack")
    + _on(_S, *_MARKET, "session_fullstack"),
    "common.serialize": _on(_P, *_MARKET) + _on(_S, *_MARKET),
    "chain.ledger": _on(_P, *_MARKET) + _on(_S, *_MARKET),
    "chain.objects": _on(_P, *_MARKET),
    "chain.events": _on(_P, *_MARKET),
    "contracts.debuglet_market": _on(_P, *_MARKET),
    "core.marketplace": _on(_P, *_MARKET, "session_fullstack"),
    "core.fleet": _on(_P, *_MARKET),
    "core.executor": _on(_P, "session_fullstack", "dataplane_event"),
    "core.verification": _on(_S, "session_fullstack", "dataplane_event"),
    "core.application": _on(_P, "session_fullstack", "dataplane_event")
    + _on(_S, "session_fullstack"),
    "sandbox.verifier": _on(_P, "session_fullstack", "dataplane_event")
    + _on(_S, "session_fullstack"),
    "sandbox.programs": _on(_P, "session_fullstack", "dataplane_event"),
    "sandbox.vm": _on(_P, "vm_tiers", "dataplane_event")
    + _on(_S, "vm_tiers", "dataplane_event"),
    "netsim.engine": _on(_P, "dataplane_event", "table1_study", "session_fullstack"),
    "netsim.network": _on(_P, "dataplane_event", "table1_study"),
    "netsim.conduit": _on(_P, "dataplane_event", "table1_study"),
    "netsim.internet": _on(_P, "wan_build") + _on(_S, "wan_build"),
    "netsim.traffic": _on(_P, "wan_build", "table1_study"),
    "netsim.fastpath": _on(_P, "wan_campaign") + _on(_S, "wan_campaign", "table1_study"),
    "core.fastprobe": _on(_P, "wan_campaign") + _on(_S, "wan_campaign"),
    "core.localization": _on(_P, "wan_campaign", "dataplane_event")
    + _on(_S, "wan_campaign"),
    "core.probing": _on(_P, "dataplane_event"),
    "perf.shardloop": _on(_P, "wan_campaign"),
    "perf.parallel": _on(_S, "table1_study"),
    "workloads.driver": _on(_P, *_MARKET, "wan_build", "table1_study"),
}

#: Direct timings of public functions (part A of the per-layer metrics):
#: name -> unit, direction, the end-to-end pairs it should move, and the
#: pairs where the prediction is *no change*.
DIRECT: dict[str, dict] = {
    "chain.crypto.sign_us": {
        "unit": "us", "better": "lower",
        "moves": _on(_P, *_MARKET, "session_fullstack"),
        "unmoved": _on(_P, "wan_campaign", "vm_tiers", "table1_study"),
    },
    "chain.crypto.verify_us": {
        "unit": "us", "better": "lower",
        "moves": _on(_P, "market_serial_verify", "session_fullstack")
        + _on(_S, "session_fullstack"),
        "unmoved": _on(_P, "market_batched"),
    },
    "chain.crypto.batch_verify_us_per_sig": {
        "unit": "us", "better": "lower",
        "moves": _on(_P, "market_batched") + _on(_S, *_MARKET),
        "unmoved": _on(_P, "market_serial_verify"),
    },
    "common.serialize.encode_us": {
        "unit": "us", "better": "lower",
        "moves": _on(_P, *_MARKET), "unmoved": _on(_P, "vm_tiers"),
    },
    "common.serialize.stable_hash_us": {
        "unit": "us", "better": "lower",
        "moves": _on(_P, *_MARKET), "unmoved": _on(_P, "vm_tiers"),
    },
    "chain.ledger.submit_nosig_us": {
        "unit": "us", "better": "lower",
        "moves": _on(_P, "market_serial_verify"), "unmoved": _on(_P, "wan_build"),
    },
    "chain.ledger.block_nosig_us_per_tx": {
        "unit": "us", "better": "lower",
        "moves": _on(_P, "market_batched"), "unmoved": _on(_P, "wan_build"),
    },
    "chain.objects.state_root_us": {
        "unit": "us", "better": "lower",
        "moves": _on(_P, *_MARKET), "unmoved": _on(_S, *_MARKET),
    },
    "chain.ledger.verify_chain_us_per_tx": {
        "unit": "us", "better": "lower",
        "moves": _on(_S, *_MARKET), "unmoved": _on(_P, *_MARKET),
    },
    "chain.ledger.state_digest_ms": {
        "unit": "ms", "better": "lower",
        "moves": _on(_P, *_MARKET), "unmoved": _on(_S, *_MARKET),
    },
    "sandbox.programs.echo_client_ms": {
        "unit": "ms", "better": "lower",
        "moves": _on(_P, "session_fullstack", "dataplane_event"),
        "unmoved": _on(_P, *_MARKET, "vm_tiers"),
    },
    "sandbox.verifier.verify_module_ms": {
        "unit": "ms", "better": "lower",
        "moves": _on(_P, "session_fullstack", "dataplane_event"),
        "unmoved": _on(_P, *_MARKET, "vm_tiers"),
    },
    "sandbox.verifier.infer_capabilities_ms": {
        "unit": "ms", "better": "lower",
        "moves": _on(_P, "session_fullstack", "dataplane_event")
        + _on(_S, "session_fullstack"),
        "unmoved": _on(_P, *_MARKET, "vm_tiers"),
    },
    "sandbox.compile.compile_module_ms": {
        "unit": "ms", "better": "lower",
        "moves": _on(_P, "session_fullstack", "dataplane_event"),
        "unmoved": _on(_P, *_MARKET, "vm_tiers"),
    },
    "core.executor.admit_ms": {
        "unit": "ms", "better": "lower",
        "moves": _on(_P, "session_fullstack", "dataplane_event"),
        "unmoved": _on(_P, *_MARKET, "vm_tiers"),
    },
    "core.application.from_wire_ms": {
        "unit": "ms", "better": "lower",
        "moves": _on(_P, "session_fullstack") + _on(_S, "session_fullstack"),
        "unmoved": _on(_P, *_MARKET, "vm_tiers"),
    },
    "sandbox.compile.speedup_geomean": {
        "unit": "x", "better": "higher",
        "moves": _on(_P, "vm_tiers"), "unmoved": _on(_P, "session_fullstack"),
    },
    "netsim.engine.events_per_s": {
        "unit": "1/s", "better": "higher",
        "moves": _on(_P, "dataplane_event", "table1_study"),
        "unmoved": _on(_P, "wan_campaign") + _on(_S, "table1_study"),
    },
    "netsim.conduit.transit_us": {
        "unit": "us", "better": "lower",
        "moves": _on(_P, "dataplane_event", "table1_study"),
        "unmoved": _on(_P, "wan_campaign") + _on(_S, "table1_study"),
    },
    "netsim.internet.generate_ms_300": {
        "unit": "ms", "better": "lower",
        "moves": _on(_P, "wan_build"), "unmoved": _on(_P, "wan_campaign"),
    },
    "netsim.internet.route_tree_ms_300": {
        "unit": "ms", "better": "lower",
        "moves": _on(_P, "wan_build") + _on(_S, "wan_build"),
        "unmoved": _on(_P, "wan_campaign") + _on(_S, "wan_campaign"),
    },
    "netsim.traffic.matrix_ms_300": {
        "unit": "ms", "better": "lower",
        "moves": _on(_P, "wan_build"), "unmoved": _on(_P, "wan_campaign"),
    },
    "core.fastprobe.build_cell_us": {
        "unit": "us", "better": "lower",
        "moves": _on(_P, "wan_campaign") + _on(_S, "wan_campaign"),
        "unmoved": _on(_S, "table1_study"),
    },
    "netsim.fastpath.simulate_cell_us_10": {
        "unit": "us", "better": "lower",
        "moves": _on(_P, "wan_campaign") + _on(_S, "wan_campaign"),
        "unmoved": _on(_S, "table1_study"),
    },
    "netsim.fastpath.probes_per_s_10000": {
        "unit": "1/s", "better": "higher",
        "moves": _on(_S, "table1_study"), "unmoved": _on(_P, "wan_campaign"),
    },
    "core.localization.judge_us": {
        "unit": "us", "better": "lower",
        "moves": _on(_P, "wan_campaign") + _on(_S, "wan_campaign"),
        "unmoved": _on(_S, "table1_study"),
    },
}
for _tier, _metric in (("sandbox.vm.reference", _S), ("sandbox.compile", _P)):
    for _program in ("tight_loop", "memory_heavy", "call_heavy", "host_heavy"):
        DIRECT[f"{_tier}.{_program}.fuel_per_s"] = {
            "unit": "1/s", "better": "higher",
            "moves": _on(_metric, "vm_tiers")
            + (_on(_metric, "dataplane_event") if _program == "host_heavy" else []),
            "unmoved": _on(_P, "session_fullstack"),
        }

#: Whole-pass figures of the traced run.
TRACE_EXTRAS: dict[str, dict] = {
    "trace_overhead_share": {"unit": "share", "better": "lower"},
    "unattributed_share": {"unit": "share", "better": "lower"},
    "host_calib_s": {"unit": "s", "better": "lower"},
    # Sharded / serial campaign wall time on fresh same-seed continents
    # (wan_campaign only). Not gated: see WanCampaign.shard_every.
    "perf.shardloop.sharded_over_serial": {"unit": "x", "better": "lower"},
}


def per_layer() -> list[dict]:
    """Every ``--trace 1`` metric, in the order ``BENCHMARK.json`` lists them."""
    metrics: list[dict] = []
    for layer in LAYERS:
        moves = LAYER_MOVES[layer]
        metrics.append(
            {"name": f"{layer}.self_s", "unit": "s", "better": "lower", "moves": moves}
        )
        metrics.append(
            {"name": f"{layer}.calls", "unit": "count", "better": "lower", "moves": moves}
        )
    for catalogue in (TRACE_EXTRAS, DIRECT):
        for name, entry in catalogue.items():
            metrics.append({"name": name, **entry})
    return metrics
