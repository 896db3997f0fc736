"""Command-line interface: ``python -m repro <command>``.

Every scenario a command runs is built once, in :mod:`repro.workloads`
(``demos.py`` for the marketplace demos and localization, ``fig8.py``,
``wan.py``, ``loadgen.py``, ``wanbench.py``); this module only parses
arguments, checks them, and prints what the scenario returns. No
command reads a clock: the same arguments and seed print the same
bytes. Timing is ``python3 -m bench``'s job.

Paper artifacts:
    table1      §II Table I: per-protocol RTT/loss on the 7-city WAN
    fig8        §V Fig 8: sandbox overhead (D2D / A2D / D2A / A2A)
    table2      Table II: gas costs by application size
    localize    §VI-D fault localization on an N-AS chain
Marketplace demos:
    quickstart  one verifiable measurement (§IV-A)
    chaos-demo  one measurement surviving an injected fault
    audit-demo  a Byzantine executor caught and slashed
    fleet-demo  executor fleet lifecycle
    placement   vantage placement strategies, synthetic or live pool
Scale workloads and tools:
    loadgen     fleet-scale marketplace control plane
    wanbench    continent-scale localization campaigns
    verify      static verification of a Debuglet assembly file
"""

from __future__ import annotations

import argparse
import sys


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Observability export flags shared by the instrumented commands."""
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write a Chrome-trace (Perfetto) timeline JSON of the run",
    )
    parser.add_argument(
        "--events-out", default=None, metavar="FILE",
        help="write the span/event log as JSON lines",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write a Prometheus-text metrics snapshot",
    )
    parser.add_argument(
        "--obs-report", action="store_true",
        help="print the observability rollup after the run",
    )


def _obs_from_args(args: argparse.Namespace):
    """An enabled Observability bundle when any export was requested."""
    if not (args.trace_out or args.events_out or args.metrics_out
            or args.obs_report):
        return None
    from repro.obs import Observability

    return Observability.enabled()


def _emit_obs(args: argparse.Namespace, obs) -> None:
    if obs is None:
        return
    from repro.obs import render_report, write_exports

    written = write_exports(
        obs,
        trace_out=args.trace_out,
        events_out=args.events_out,
        metrics_out=args.metrics_out,
    )
    for path in written:
        print(f"wrote {path}")
    if args.obs_report:
        print(render_report(obs))


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.analysis import format_table1_row, table_row
    from repro.workloads import WanScenario

    obs = _obs_from_args(args)

    traces = WanScenario.build(seed=args.seed, obs=obs).run_protocol_study(
        probes_per_protocol=args.probes,
        interval=args.interval,
        fast=args.fast,
        workers=args.workers,
    )
    path = "fast" if args.fast else "event-driven"
    print(f"Table I ({args.probes} probes per cell, seed {args.seed}, {path}):")
    for city, by_protocol in traces.items():
        print(format_table1_row(city, table_row(by_protocol)))
    _emit_obs(args, obs)
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    from repro.workloads.fig8 import run_fig8

    measurements = run_fig8(args.probes)
    print(f"Fig 8 ({args.probes} probes per combination):")
    for name, echo in measurements.items():
        print(
            f"  {name}: mean={echo.mean_rtt_ms():8.3f} ms "
            f"loss={echo.loss_rate():.2%}"
        )
    overhead = measurements["D2D"].mean_rtt_ms() - measurements["A2A"].mean_rtt_ms()
    print(f"  D2D - A2A = {overhead * 1e3:.0f} us")
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.chain import GasSchedule

    schedule = GasSchedule()
    print("Table II (gas schedule):")
    print("  size      total SUI   rebate SUI")
    for size in (0, 100, 1000, 5000, 10000):
        cost = schedule.price(stored_bytes=size)
        print(f"  {size:6d} B  {cost.total_sui():9.5f}   {cost.rebate_sui():9.5f}")
    return 0


def _cmd_localize(args: argparse.Namespace) -> int:
    from repro.workloads.demos import run_localize

    n = args.ases
    fault_link = args.fault_link if args.fault_link is not None else n - 1
    if not 1 <= fault_link <= n - 1:
        print(f"fault link must be in [1, {n - 1}]", file=sys.stderr)
        return 2
    run = run_localize(
        n, fault_link=fault_link, strategy=args.strategy, probes=args.probes,
        seed=args.seed,
    )
    report = run.report
    print(f"ground truth: {run.fault}")
    print(
        f"{args.strategy}: suspects={[str(s) for s in report.suspects]} "
        f"measurements={report.measurements_used} "
        f"time={report.time_to_locate:.2f}s "
        f"correct={run.correct}"
    )
    return 0 if run.correct else 1


def _cmd_wanbench(args: argparse.Namespace) -> int:
    import json
    from dataclasses import asdict

    from repro.workloads.wanbench import (
        MODES,
        WanbenchConfig,
        run_wanbench,
    )

    modes = tuple(name.strip() for name in args.modes.split(","))
    unknown = set(modes) - set(MODES)
    if unknown:
        print(f"unknown modes: {sorted(unknown)}", file=sys.stderr)
        return 2
    config = WanbenchConfig(
        n_ases=args.ases,
        seed=args.seed,
        episodes=args.episodes,
        regions=args.regions,
        strategy=args.strategy,
        workers=args.workers,
        traffic=not args.no_traffic,
    )
    summary = run_wanbench(config, modes=modes)
    # A serial-vs-sharded digest mismatch fails the command in both output modes.
    status = 0 if summary.get("digest_match", True) else 1
    if args.json:
        payload = dict(summary)
        payload["config"] = asdict(config)
        payload["outcomes"] = {
            mode: outcome.bench_row(config)
            for mode, outcome in summary["outcomes"].items()
        }
        print(json.dumps(payload, indent=2))
        return status
    print(
        f"wanbench: {config.n_ases} ASes, {config.episodes} episodes, "
        f"strategy {config.strategy}, seed {config.seed} "
        f"({summary['congested_channels']} congested channels)"
    )
    print(f"{'mode':<9} {'accuracy':>9} {'meas':>6} "
          f"{'probes':>8} {'conv(s)':>9}  digest")
    for mode, outcome in summary["outcomes"].items():
        print(
            f"{mode:<9} {outcome.accuracy:>9.2%} {outcome.measurements:>6} "
            f"{outcome.probes_sent:>8} {outcome.mean_convergence:>9.2f}  "
            f"{outcome.digest[:16]}"
        )
        if outcome.fallbacks:
            print(f"  {mode}: process pool failed, {outcome.fallbacks} "
                  f"batch(es) rerun serially (results unaffected)")
    if "digest_match" in summary:
        verdict = "MATCH" if summary["digest_match"] else "MISMATCH"
        if summary.get("digest_match_vacuous"):
            verdict += " (vacuous: no pool worked for the sharded run)"
        print(f"serial vs sharded digest: {verdict}")
    return status


def _cmd_verify(args: argparse.Namespace) -> int:
    import json

    from repro.sandbox.assembler import assemble
    from repro.sandbox.manifest import Manifest
    from repro.sandbox.verifier import verify_module

    try:
        source = open(args.file, "r", encoding="utf-8").read()
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    manifest = None
    if args.manifest is not None:
        try:
            with open(args.manifest, "r", encoding="utf-8") as handle:
                manifest = Manifest.from_dict(json.load(handle))
        except Exception as exc:
            print(f"cannot load manifest {args.manifest}: {exc}", file=sys.stderr)
            return 2
    if args.policy and (manifest is None or manifest.policy is None):
        print(
            "--policy requires a manifest with a policy block "
            "(pass --manifest pointing at JSON with a non-null \"policy\")",
            file=sys.stderr,
        )
        return 2
    try:
        module = assemble(source)
    except Exception as exc:
        if args.json:
            print(json.dumps({"ok": False, "assembly_error": str(exc)}, indent=2))
        else:
            print(f"assembly failed: {exc}", file=sys.stderr)
        return 1
    report = verify_module(module, manifest)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render(explain=args.explain))
    return 0 if report.ok else 1


def _cmd_quickstart(args: argparse.Namespace) -> int:
    from repro.workloads.demos import run_quickstart

    obs = _obs_from_args(args)
    run = run_quickstart(probes=args.probes, seed=args.seed, obs=obs)
    print(f"path: {run.path}")
    print(f"delay-to-measurement: {run.session.delay_to_measurement:.2f} s")
    print(
        f"measured: mean RTT {run.echo.mean_rtt_ms():.3f} ms, "
        f"loss {run.echo.loss_rate():.1%}"
    )
    print("verification: OK")
    _emit_obs(args, obs)
    return 0


def _cmd_chaos_demo(args: argparse.Namespace) -> int:
    from repro.workloads.demos import run_chaos_demo

    obs = _obs_from_args(args)
    run = run_chaos_demo(args.fault, probes=args.probes, seed=args.seed, obs=obs)
    session = run.session
    print(f"fault: {run.fault.kind.value} on {run.fault.target}")
    print(f"states: {' -> '.join(session.state_names)}")
    print(f"attempts: {session.attempt}  purchase retries: "
          f"{session.purchase_retries}")
    if session.refunds:
        total = sum(session.refunds.values())
        print(f"refunded escrow: {total} MIST across "
              f"{len(session.refunds)} application(s)")
    if session.failure_reason:
        print(f"reason: {session.failure_reason}")
    print(f"escrow still locked in contract: {run.escrow_locked} MIST")
    print(f"final state: {session.state.value}; chain verification: OK")
    _emit_obs(args, obs)
    return 0


def _cmd_audit_demo(args: argparse.Namespace) -> int:
    """Byzantine executor vs the audit pipeline, end to end (§11)."""
    from repro.workloads.demos import run_audit_demo

    obs = _obs_from_args(args)
    run = run_audit_demo(
        args.strategy, audit_rate=args.audit_rate, sessions=args.sessions,
        probes=args.probes, seed=args.seed, obs=obs,
    )
    print(f"strategy: {args.strategy}  sessions: {args.sessions}  "
          f"audit rate: {args.audit_rate:.0%}")
    print(f"attacks mounted: {run.attacks}  "
          f"sessions replay-audited: {run.sessions_audited}")
    for conviction in run.convictions:
        asn, interface = conviction["vantage"]
        print(f"convicted {asn}:{interface} by {conviction['mechanism']}: "
              f"burned {conviction['slashed']} MIST, evidence "
              f"{conviction['evidence_hash'].hex()[:16]}…")
        print(f"  {conviction['detail']}")
    if not run.convictions:
        print("no convictions" + (
            " (honest executors keep their stake)"
            if args.strategy == "honest" else
            " — raise --audit-rate or --sessions to catch the liar"
        ))
    print(f"tokens slashed on-ledger: {run.tokens_slashed} MIST")
    for key, convictions in sorted(run.conviction_map.items()):
        if convictions:
            reasons = ", ".join(c["reason"] for c in convictions)
            print(f"on-chain conviction record for {key}: {reasons}; "
                  f"remaining stake {run.stake_map.get(key, 0)} MIST")
    print("chain verification: OK")
    _emit_obs(args, obs)
    if args.strategy == "honest":
        return 1 if run.convictions else 0
    return 0 if run.convictions else 1


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json

    from repro.workloads import LoadgenConfig, build_loadgen, run_loadgen

    config = LoadgenConfig(
        sessions=args.sessions,
        executors=args.executors,
        initiators=args.initiators,
        ledger_mode=args.ledger,
        block_window=args.window,
        num_shards=args.shards,
        seed=args.seed,
        ramp=args.ramp,
        verify_chain=args.verify,
        audit_rate=args.audit_rate,
        churn=args.churn,
        heartbeat_interval=args.heartbeat,
        late_pairs=args.late,
        drain_pairs=args.drains,
        crash_pairs=args.crashes,
        lost_pairs=args.lost,
        slot_factor=args.slot_factor,
    )
    obs = _obs_from_args(args)
    fleet = build_loadgen(config, obs=obs)
    report = run_loadgen(fleet)
    det = report["deterministic"]
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(
            f"loadgen ({report['mode']} ledger, {det['sessions']} sessions, "
            f"seed {report['seed']}):"
        )
        print(
            f"  completed {det['completed']} "
            f"({det['certified']} certified) in {det['sim_seconds']:.1f}s "
            f"simulated"
        )
        print(
            f"  peak active: {det['peak_active_sessions']}   "
            f"signatures: {report['signature_backend']}"
        )
        print(
            f"  session latency: p50 {det['latency_p50_s']:.2f}s  "
            f"p99 {det['latency_p99_s']:.2f}s (simulated)"
        )
        print(
            f"  ledger: {det['ledger_txs']} txs, "
            f"{det['checkpoints']} checkpoints, "
            f"{det['blocks_sealed']} blocks"
        )
        if config.verify_chain:
            print("  chain verification: OK")
        if "fleet" in det:
            section = det["fleet"]
            states = ", ".join(
                f"{count} {state}" for state, count in section["states"].items()
            )
            print(
                f"  fleet: {states}; {section['transitions']} transitions, "
                f"{section['heartbeats_missed']} missed heartbeats, "
                f"{section['assigned_while_unsellable']} bad assignments"
            )
        print(f"  state digest: {det['state_digest'][:16]}…")
    _emit_obs(args, obs)
    failed = det["by_state"].get("failed", 0) + det["launch_failures"]
    if "fleet" in det and det["fleet"]["assigned_while_unsellable"]:
        failed += det["fleet"]["assigned_while_unsellable"]
    return 1 if failed else 0


def _cmd_fleet_demo(args: argparse.Namespace) -> int:
    from repro.core.fleetmgr import ExecutorState
    from repro.workloads.demos import run_fleet_demo

    obs = _obs_from_args(args)
    run = run_fleet_demo(
        probes=args.probes, seed=args.seed, heartbeat=args.heartbeat, obs=obs
    )
    print("admission:")
    print(f"  cli at 1:2 under the full record: "
          f"{'admitted' if run.admitted else 'denied'}")
    print(f"  cli at 1:2 under a read-only record: "
          f"{'admitted' if run.admitted_read_only else 'denied'}")
    print(f"    reason: {run.denial_reason}")
    print(f"session: {run.session.state.value} "
          f"(delay-to-measurement {run.session.delay_to_measurement:.2f}s)")
    print(f"drain 2:1 -> {run.drained.value}; on-chain address: "
          f"{run.drained_address}")
    print(f"crash 2:2 -> {run.crashed.value} "
          f"(missed heartbeats: {run.heartbeats_missed})")
    print(f"re-register 2:2 -> {run.reregistered.value} "
          f"(registrations: {run.registrations})")
    print(f"heartbeat loss 3:1 -> {run.heartbeat_lost.value} "
          f"(executor crashed: {run.heartbeat_lost_crashed})")
    print("lifecycle log:")
    for when, vantage, source, target, reason in run.lifecycle_log:
        print(f"  t={when:7.2f}  {vantage[0]}:{vantage[1]}  "
              f"{source:>10} -> {target:<10} {reason}")
    print(f"fleet states: {run.counts}")
    print("chain verification: OK")
    _emit_obs(args, obs)
    ok = (
        run.final[(2, 1)] is ExecutorState.RETIRED
        and run.final[(2, 2)] is ExecutorState.ACTIVE
        and run.final[(3, 1)] is ExecutorState.EVICTED
    )
    return 0 if ok else 1


def _cmd_placement(args: argparse.Namespace) -> int:
    """Evaluate the placement strategies on one path: segment coverage
    (exact isolation, mean suspect set) against vantage cost."""
    import json

    from repro.core.placement import (
        STRATEGIES,
        evaluate_strategies,
        synthetic_candidates,
    )

    if args.live:
        from repro.workloads.demos import live_candidates

        segment, pool = live_candidates(
            args.ases, seed=args.seed, border_price=args.border_price
        )
        n_ases = len(segment.asns())
        print(f"live pool from {len(pool)} advertised executors on {segment}")
    else:
        n_ases = args.ases
        pool = synthetic_candidates(
            n_ases,
            border_price=args.border_price,
            in_as_price=args.in_as_price,
        )
    plans = evaluate_strategies(n_ases, pool, budget=args.budget, seed=args.seed)
    if args.json:
        print(json.dumps(
            {strategy: plans[strategy].as_row() for strategy in STRATEGIES},
            indent=2,
        ))
        return 0
    print(f"placement over {n_ases} ASes, budget {args.budget}:")
    print(f"  {'strategy':<10} {'vantages':>8} {'cost':>6} "
          f"{'exact':>7} {'suspects':>9}  positions")
    for strategy in STRATEGIES:
        plan = plans[strategy]
        print(f"  {strategy:<10} {len(plan.chosen):>8} {plan.cost:>6} "
              f"{plan.exact_isolation_rate:>7.3f} "
              f"{plan.mean_suspect_set:>9.3f}  {plan.positions}")
    border, random_plan = plans["border"], plans["random"]
    better = border.mean_suspect_set <= random_plan.mean_suspect_set
    print("border co-location "
          + ("matches or beats" if better else "LOSES to")
          + " the random baseline on mean suspect-set size")
    return 0 if better else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Debuglet reproduction: run the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="Table I: per-protocol RTT/loss, 7-city WAN")
    p.add_argument("--probes", type=int, default=2000)
    p.add_argument("--interval", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--fast", action="store_true",
                   help="use the vectorized fast path (see DESIGN.md)")
    p.add_argument("--workers", type=int, default=None,
                   help="fan fast-path cells over N processes (-1 = all cores)")
    _add_obs_flags(p)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("fig8", help="Fig 8: sandbox overhead (D2D/A2D/D2A/A2A)")
    p.add_argument("--probes", type=int, default=500)
    p.set_defaults(func=_cmd_fig8)

    p = sub.add_parser("table2", help="Table II: gas costs by application size")
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("localize", help="fault localization on an N-AS chain")
    p.add_argument("--ases", type=int, default=10)
    p.add_argument("--fault-link", type=int, default=None,
                   help="1-based index of the faulty link (default: last)")
    p.add_argument("--strategy", default="binary",
                   choices=("binary", "linear", "exhaustive"))
    p.add_argument("--probes", type=int, default=15)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("quickstart", help="one verifiable marketplace measurement")
    p.add_argument("--probes", type=int, default=30)
    p.add_argument("--seed", type=int, default=1)
    _add_obs_flags(p)
    p.set_defaults(func=_cmd_quickstart)

    p = sub.add_parser(
        "chaos-demo",
        help="one marketplace measurement surviving an injected fault",
    )
    p.add_argument("--fault", default="crash",
                   choices=("crash", "drop", "delay", "txfail", "expiry"))
    p.add_argument("--probes", type=int, default=30)
    p.add_argument("--seed", type=int, default=1)
    _add_obs_flags(p)
    p.set_defaults(func=_cmd_chaos_demo)

    p = sub.add_parser(
        "audit-demo",
        help="a Byzantine executor detected, convicted, and slashed on-chain",
    )
    p.add_argument("--strategy", default="forge_values",
                   choices=("honest", "forge_values", "forge_consistent",
                            "hide_faults", "replay_result",
                            "stale_certificate"))
    p.add_argument("--audit-rate", type=float, default=0.25,
                   help="fraction of sessions spot-checked by replay audit")
    p.add_argument("--sessions", type=int, default=8,
                   help="measurement sessions the corrupted executor serves")
    p.add_argument("--probes", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    _add_obs_flags(p)
    p.set_defaults(func=_cmd_audit_demo)

    p = sub.add_parser(
        "loadgen",
        help="fleet-scale marketplace control plane: ramp thousands of "
             "sessions through the ledger and report outcomes, simulated "
             "latency and the state digest",
    )
    p.add_argument("--sessions", type=int, default=12_000)
    p.add_argument("--executors", type=int, default=64,
                   help="synthetic executors (paired into vantage pairs)")
    p.add_argument("--initiators", type=int, default=64,
                   help="initiator wallets launching sessions round-robin")
    p.add_argument("--ledger", choices=("serial", "batched"), default="batched",
                   help="per-tx checkpoints vs batched transaction blocks")
    p.add_argument("--window", type=float, default=4.0,
                   help="block finality window in seconds (batched mode)")
    p.add_argument("--shards", type=int, default=16,
                   help="object-store shard count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ramp", type=float, default=30.0,
                   help="simulated seconds over which launches ramp up")
    p.add_argument("--verify", action="store_true",
                   help="run full chain verification after the drain")
    p.add_argument("--audit-rate", type=float, default=0.0,
                   help="sample this fraction of sessions for lightweight "
                        "audits (window + batched signature checks)")
    p.add_argument("--churn", action="store_true",
                   help="fleet churn: a FleetManager owns every pair's "
                        "lifecycle; sessions pick sellable pairs at fire time")
    p.add_argument("--heartbeat", type=float, default=2.0,
                   help="fleet heartbeat interval in simulated seconds")
    p.add_argument("--late", type=int, default=0,
                   help="vantage pairs registering mid-ramp (needs --churn)")
    p.add_argument("--drains", type=int, default=0,
                   help="vantage pairs gracefully drained mid-ramp")
    p.add_argument("--crashes", type=int, default=0,
                   help="vantage pairs that crash, get evicted, re-register")
    p.add_argument("--lost", type=int, default=0,
                   help="vantage pairs losing heartbeats (healthy executor)")
    p.add_argument("--slot-factor", type=float, default=1.0,
                   help="slot over-provisioning so survivors absorb churn")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as JSON")
    _add_obs_flags(p)
    p.set_defaults(func=_cmd_loadgen)

    p = sub.add_parser(
        "fleet-demo",
        help="executor fleet lifecycle: admission scope, drain/retire, "
             "crash eviction + re-registration, heartbeat loss",
    )
    p.add_argument("--probes", type=int, default=30)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--heartbeat", type=float, default=5.0,
                   help="heartbeat interval in simulated seconds")
    _add_obs_flags(p)
    p.set_defaults(func=_cmd_fleet_demo)

    p = sub.add_parser(
        "placement",
        help="vantage placement strategies: segment coverage vs cost for "
             "border co-location, in-AS, and random baselines",
    )
    p.add_argument("--ases", type=int, default=8,
                   help="path length in ASes")
    p.add_argument("--budget", type=int, default=300,
                   help="total vantage budget")
    p.add_argument("--border-price", type=int, default=100,
                   help="price of a border-router co-located vantage")
    p.add_argument("--in-as-price", type=int, default=60,
                   help="price of an in-AS alternative vantage")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--live", action="store_true",
                   help="derive candidates from live directory "
                        "advertisements on a built chain instead of the "
                        "synthetic pool")
    p.add_argument("--json", action="store_true",
                   help="emit the strategy rows as JSON")
    p.set_defaults(func=_cmd_placement)

    p = sub.add_parser(
        "wanbench",
        help="continent-scale localization campaign: event vs fast vs sharded",
    )
    p.add_argument("--ases", type=int, default=1000,
                   help="topology size (power-law Gao-Rexford Internet)")
    p.add_argument("--episodes", type=int, default=40,
                   help="concurrent localization episodes")
    p.add_argument("--regions", type=int, default=5,
                   help="AS regions (the sharding domains)")
    p.add_argument("--strategy", default="mixed",
                   choices=["mixed", "binary", "linear", "exhaustive"])
    p.add_argument("--modes", default="fast,sharded",
                   help="comma-separated engines to run "
                        "(event, fast, sharded)")
    p.add_argument("--workers", type=int, default=0,
                   help="sharded-mode pool size (0 = all cores)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-traffic", action="store_true",
                   help="skip the background traffic matrix")
    p.add_argument("--json", action="store_true",
                   help="emit the summary as JSON")
    p.set_defaults(func=_cmd_wanbench)

    p = sub.add_parser(
        "verify",
        help="statically verify a Debuglet assembly file (exit 1 on rejection)",
    )
    p.add_argument("file", help="path to a .dasm assembly source file")
    p.add_argument("--manifest", default=None,
                   help="JSON manifest to check fuel bounds and capabilities "
                        "against (Manifest.as_dict format)")
    p.add_argument("--policy", action="store_true",
                   help="require the manifest to carry a policy block; the "
                        "emission/send dataflow proofs then gate the verdict")
    p.add_argument("--explain", action="store_true",
                   help="render the dataflow witness path under each "
                        "path-carrying diagnostic")
    p.add_argument("--json", action="store_true",
                   help="emit the structured report as JSON")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
