"""Command-line interface: run the paper's experiments directly.

Examples::

    python -m repro table1 --probes 2000
    python -m repro fig8
    python -m repro table2
    python -m repro localize --ases 10 --strategy binary
    python -m repro quickstart
    python -m repro verify program.dasm --manifest manifest.json
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
    wanted = (
        getattr(args, "trace_out", None)
        or getattr(args, "events_out", None)
        or getattr(args, "metrics_out", None)
        or getattr(args, "obs_report", False)
    )
    if not wanted:
        return None
    from repro.obs import Observability

    return Observability.enabled()


def _emit_obs(args: argparse.Namespace, obs) -> None:
    if obs is None:
        return
    from repro.obs import render_report, write_exports

    written = write_exports(
        obs,
        trace_out=getattr(args, "trace_out", None),
        events_out=getattr(args, "events_out", None),
        metrics_out=getattr(args, "metrics_out", None),
    )
    for path in written:
        print(f"wrote {path}")
    if getattr(args, "obs_report", False):
        print(render_report(obs))


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.analysis import format_table1_row, table_row
    from repro.workloads import WanScenario

    obs = _obs_from_args(args)

    def run() -> dict:
        scenario = WanScenario.build(seed=args.seed, obs=obs)
        return scenario.run_protocol_study(
            probes_per_protocol=args.probes,
            interval=args.interval,
            fast=args.fast,
            workers=args.workers,
        )

    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        traces = profiler.runcall(run)
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative").print_stats(20)
    else:
        traces = run()
    path = "fast" if args.fast else "event-driven"
    print(f"Table I ({args.probes} probes per cell, seed {args.seed}, {path}):")
    for city, by_protocol in traces.items():
        print(format_table1_row(city, table_row(by_protocol)))
    _emit_obs(args, obs)
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    from repro.core.application import DebugletApplication
    from repro.core.executor import Executor
    from repro.core.results import EchoMeasurement
    from repro.netsim import (
        Link, Network, Protocol, ProtocolTreatment, Simulator, Topology,
        TreatmentProfile,
    )
    from repro.sandbox.programs import echo_client, echo_server
    from repro.sandbox.programs_native import (
        native_echo_client,
        native_echo_server,
    )

    sim = Simulator()
    topo = Topology()
    topo.make_as(1, seed=1, internal_delay=0.2e-3)
    topo.make_as(2, seed=2, internal_delay=0.2e-3)
    treatment = TreatmentProfile.uniform(ProtocolTreatment(base_drop=0.008))
    topo.connect(
        1, 1, 2, 1,
        Link.symmetric("lon-ny", base_delay=36.4e-3, seed=31,
                       jitter_std=0.4e-3, treatment=treatment),
    )
    net = Network(topo, sim, seed=32)
    ex_a = Executor(net, 1, 1, seed=33)
    ex_b = Executor(net, 2, 1, seed=34)

    count, interval_us = args.probes, 200_000
    records = {}
    for index, (name, sandbox_client, sandbox_server) in enumerate(
        [("D2D", True, True), ("A2D", False, True),
         ("D2A", True, False), ("A2A", False, False)]
    ):
        port = 8500 + index
        client_stock = echo_client(
            Protocol.UDP, ex_b.data_address, count=count,
            interval_us=interval_us, dst_port=port,
        )
        server_stock = echo_server(
            Protocol.UDP, max_echoes=count, idle_timeout_us=4_000_000
        )
        if sandbox_client:
            client_app = DebugletApplication.from_stock("cli", client_stock)
        else:
            client_app = DebugletApplication(
                "cli-n", client_stock.manifest,
                native_factory=lambda port=port: native_echo_client(
                    Protocol.UDP, count=count, interval_us=interval_us,
                    dst_port=port,
                ),
            )
        if sandbox_server:
            server_app = DebugletApplication.from_stock(
                "srv", server_stock, listen_port=port
            )
        else:
            server_app = DebugletApplication(
                "srv-n", server_stock.manifest,
                native_factory=lambda: native_echo_server(
                    Protocol.UDP, max_echoes=count, idle_timeout_us=4_000_000
                ),
                listen_port=port,
            )
        ex_b.submit(server_app, start_at=0.5,
                    on_complete=lambda r, n=name: records.__setitem__((n, "s"), r))
        ex_a.submit(client_app, start_at=0.6,
                    on_complete=lambda r, n=name: records.__setitem__((n, "c"), r))
    sim.run_until_idle()
    print(f"Fig 8 ({count} probes per combination):")
    means = {}
    for name in ("D2D", "A2D", "D2A", "A2A"):
        echo = EchoMeasurement.from_result(
            records[(name, "c")].result, probes_sent=count
        )
        means[name] = echo.mean_rtt_ms()
        print(
            f"  {name}: mean={echo.mean_rtt_ms():8.3f} ms "
            f"loss={echo.loss_rate():.2%}"
        )
    print(f"  D2D - A2A = {(means['D2D'] - means['A2A']) * 1e3:.0f} us")
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
    from repro.core import ExecutorFleet, FaultLocalizer, SegmentProber
    from repro.netsim import FaultInjector, InterfaceId
    from repro.workloads import build_chain

    n = args.ases
    fault_link = args.fault_link if args.fault_link is not None else n - 1
    if not 1 <= fault_link <= n - 1:
        print(f"fault link must be in [1, {n - 1}]", file=sys.stderr)
        return 2
    scenario = build_chain(n, seed=args.seed)
    fleet = ExecutorFleet(scenario.network, seed=args.seed + 1)
    fleet.deploy_full()
    injector = FaultInjector(scenario.topology)
    fault = injector.link_delay(
        InterfaceId(fault_link, 2), InterfaceId(fault_link + 1, 1),
        extra_delay=20e-3, start=0.0, end=1e12,
    )
    prober = SegmentProber(fleet, probes=args.probes, interval_us=5000)
    localizer = FaultLocalizer(prober)
    report = localizer.localize(
        scenario.registry.shortest(1, n), strategy=args.strategy
    )
    print(f"ground truth: {fault.location}")
    print(
        f"{args.strategy}: suspects={[str(s) for s in report.suspects]} "
        f"measurements={report.measurements_used} "
        f"time={report.time_to_locate:.2f}s "
        f"correct={report.found(fault.location)}"
    )
    return 0 if report.found(fault.location) else 1


def _cmd_vmbench(args: argparse.Namespace) -> int:
    import json

    from repro.perf.vmbench import (
        TIERS,
        WORKLOAD_NAMES,
        run_localization,
        run_suite,
    )
    from repro.sandbox.compile import compile_cache

    tiers = TIERS if args.tier == "both" else (args.tier,)
    workloads = WORKLOAD_NAMES
    if args.workloads:
        workloads = tuple(name.strip() for name in args.workloads.split(","))
        unknown = set(workloads) - set(WORKLOAD_NAMES)
        if unknown:
            print(f"unknown workloads: {sorted(unknown)}", file=sys.stderr)
            return 2
    rows = run_suite(
        tiers, scale=args.scale, repeats=args.repeats, workloads=workloads
    )
    if args.e2e:
        for tier in tiers:
            rows.append(run_localization(tier))
    if args.json:
        print(json.dumps(
            {"rows": rows, "compile_cache": compile_cache().stats()}, indent=2
        ))
        return 0
    print(f"{'workload':<14} {'tier':<10} {'seconds':>10} {'speedup':>8} "
          f"{'elided':>14}")
    for row in rows:
        speedup = f"{row['speedup']:.2f}x" if "speedup" in row else ""
        elided = (
            f"{row['elided_checks']} ({row['elided_const']}c+"
            f"{row['elided_ranged']}r)"
            if "elided_checks" in row else ""
        )
        print(f"{row['name']:<14} {row['tier']:<10} "
              f"{row['seconds']:>10.4f} {speedup:>8} {elided:>14}")
    stats = compile_cache().stats()
    print(f"compile cache: {stats['hits']} hits / {stats['misses']} misses "
          f"({stats['entries']} entries)")
    return 0


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
    print(f"{'mode':<9} {'seconds':>9} {'accuracy':>9} {'meas':>6} "
          f"{'probes':>8} {'conv(s)':>9}  digest")
    for mode, outcome in summary["outcomes"].items():
        print(
            f"{mode:<9} {outcome.wall_seconds:>9.3f} "
            f"{outcome.accuracy:>9.2%} {outcome.measurements:>6} "
            f"{outcome.probes_sent:>8} {outcome.mean_convergence:>9.2f}  "
            f"{outcome.digest[:16]}"
        )
        if outcome.fallbacks:
            print(f"  {mode}: process pool failed, {outcome.fallbacks} "
                  f"batch(es) rerun serially (results unaffected)")
    if "speedup_fast_over_event" in summary:
        print(f"fast-path speedup over event-driven: "
              f"{summary['speedup_fast_over_event']:.1f}x")
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
    from repro.core import ChainVerifier, DebugletApplication, EchoMeasurement
    from repro.core.executor import executor_data_address
    from repro.netsim import Protocol
    from repro.sandbox import echo_client, echo_server
    from repro.workloads import MarketplaceTestbed

    obs = _obs_from_args(args)
    testbed = MarketplaceTestbed.build(n_ases=3, seed=args.seed, obs=obs)
    path = testbed.chain.registry.shortest(1, 3)
    count = args.probes
    server_app = DebugletApplication.from_stock(
        "srv", echo_server(Protocol.UDP, max_echoes=count,
                           idle_timeout_us=3_000_000),
        listen_port=7801, path=path.reversed().as_list(),
    )
    client_app = DebugletApplication.from_stock(
        "cli",
        echo_client(Protocol.UDP, executor_data_address(3, 1),
                    count=count, interval_us=50_000, dst_port=7801),
        path=path.as_list(),
    )
    session = testbed.initiator.request_measurement(
        client_app, server_app, (1, 2), (3, 1), duration=30.0
    )
    testbed.initiator.run_until_done(session, testbed.chain.simulator)
    echo = EchoMeasurement.from_result(
        session.client_outcome.result, probes_sent=count
    )
    print(f"path: {path}")
    print(f"delay-to-measurement: {session.delay_to_measurement:.2f} s")
    print(
        f"measured: mean RTT {echo.mean_rtt_ms():.3f} ms, "
        f"loss {echo.loss_rate():.1%}"
    )
    ChainVerifier(testbed.ledger, testbed.market).verify_result(
        session.client_application
    )
    testbed.ledger.verify_chain()
    print("verification: OK")
    _emit_obs(args, obs)
    return 0


def _cmd_chaos_demo(args: argparse.Namespace) -> int:
    from repro.chaos import ChaosInjector
    from repro.core import DebugletApplication
    from repro.core.executor import executor_data_address
    from repro.netsim import Protocol
    from repro.sandbox import echo_client, echo_server
    from repro.workloads import MarketplaceTestbed

    obs = _obs_from_args(args)
    testbed = MarketplaceTestbed.build(n_ases=3, seed=args.seed, obs=obs)
    simulator = testbed.chain.simulator
    injector = ChaosInjector(simulator, testbed.ledger, seed=args.seed)
    path = testbed.chain.registry.shortest(1, 3)
    count = args.probes
    server_app = DebugletApplication.from_stock(
        "srv", echo_server(Protocol.UDP, max_echoes=count,
                           idle_timeout_us=3_000_000),
        listen_port=7801, path=path.reversed().as_list(),
    )
    client_app = DebugletApplication.from_stock(
        "cli",
        echo_client(Protocol.UDP, executor_data_address(3, 1),
                    count=count, interval_us=50_000, dst_port=7801),
        path=path.as_list(),
    )

    if args.fault == "txfail":
        # Outage covering the initial purchase: the initiator retries with
        # backoff until the ledger comes back.
        fault = injector.fail_transactions(
            start=simulator.now, end=simulator.now + 3.0
        )

    session = testbed.initiator.request_measurement(
        client_app, server_app, (1, 2), (3, 1), duration=30.0,
        deadline_margin=10.0,
        max_attempts=1 if args.fault == "expiry" else 2,
    )
    if args.fault == "crash":
        # The server-side executor dies as the window opens, killing the
        # scheduled executions; it is back up before the deadline, so
        # attempt 2 buys a fresh slot and succeeds.
        fault = injector.crash_executor(
            testbed.agents[(3, 1)].executor,
            at=session.window_start + 0.1,
            restart_at=session.window_end + 5.0,
        )
    elif args.fault == "drop":
        # Certified results are produced but never published until after
        # the first deadline; the refund + failover path recovers.
        fault = injector.drop_publications(
            testbed.agents[(3, 1)], start=0.0, end=session.window_end + 10.0
        )
    elif args.fault == "delay":
        # Publications stall past the fault window, then go through.
        fault = injector.delay_publications(
            testbed.agents[(3, 1)],
            start=0.0, end=session.window_end + 2.0, extra=1.0,
        )
    elif args.fault == "expiry":
        # The executors renege before the window opens; the initiator
        # reclaims its escrow once the deadline passes.
        fault = injector.expire_slots_early(
            testbed.agents[(3, 1)], at=session.window_start
        )
        injector.expire_slots_early(testbed.agents[(1, 2)],
                                    at=session.window_start)

    testbed.initiator.run_until_done(session, simulator, timeout=900.0)

    print(f"fault: {fault.kind.value} on {fault.target}")
    print(f"states: {' -> '.join(session.state_names)}")
    print(f"attempts: {session.attempt}  purchase retries: "
          f"{session.purchase_retries}")
    if session.refunds:
        total = sum(session.refunds.values())
        print(f"refunded escrow: {total} MIST across "
              f"{len(session.refunds)} application(s)")
    if session.failure_reason:
        print(f"reason: {session.failure_reason}")
    locked = testbed.ledger.contract_balances.get("debuglet_market", 0)
    print(f"escrow still locked in contract: {locked} MIST")
    testbed.ledger.verify_chain()
    print(f"final state: {session.state.value}; chain verification: OK")
    _emit_obs(args, obs)
    return 0


def _cmd_audit_demo(args: argparse.Namespace) -> int:
    """Byzantine executor vs the audit pipeline, end to end (§11)."""
    from repro.chain.gas import sui_to_mist
    from repro.chaos import ChaosInjector
    from repro.core import DebugletApplication
    from repro.core.audit import AuditConfig
    from repro.core.executor import executor_data_address
    from repro.netsim import FaultInjector, Protocol
    from repro.netsim.topology import InterfaceId
    from repro.sandbox import echo_client, echo_server
    from repro.workloads import MarketplaceTestbed

    obs = _obs_from_args(args)
    stake = sui_to_mist(5)
    testbed = MarketplaceTestbed.build(
        n_ases=3, seed=args.seed, executor_stake=stake, obs=obs,
        initiator_funding=sui_to_mist(400),
    )
    simulator = testbed.chain.simulator
    auditor = testbed.make_auditor(
        config=AuditConfig(audit_rate=args.audit_rate, seed=args.seed), obs=obs
    )
    injector = ChaosInjector(simulator, testbed.ledger, seed=args.seed)

    timeout_us = 200_000 if args.strategy == "hide_faults" else 1_000_000
    if args.strategy == "hide_faults":
        # Real loss on the forward path gives the liar something to hide.
        FaultInjector(testbed.chain.topology).link_loss(
            InterfaceId(1, 2), InterfaceId(2, 1),
            loss=0.25, start=0.0, end=float("inf"), directions="forward",
        )
    corruptor = None
    if args.strategy != "honest":
        strategy = (
            "forge_values" if args.strategy == "forge_consistent"
            else args.strategy
        )
        fault = injector.corrupt_executor(
            testbed.fleet.get(1, 2), strategy=strategy, start=0.0,
            seed=args.seed,
            **({"forge_log": True} if args.strategy == "forge_consistent" else {}),
        )
        corruptor = fault.corruptor

    def run_session(client_v, server_v, *, count):
        path = testbed.chain.registry.shortest(client_v[0], server_v[0])
        server_app = DebugletApplication.from_stock(
            "srv", echo_server(Protocol.UDP, max_echoes=count,
                               idle_timeout_us=3_000_000),
            listen_port=7801, path=path.reversed().as_list(),
        )
        client_app = DebugletApplication.from_stock(
            "cli",
            echo_client(Protocol.UDP, executor_data_address(*server_v),
                        count=count, interval_us=50_000, dst_port=7801,
                        timeout_us=timeout_us),
            path=path.as_list(),
        )
        session = testbed.initiator.request_measurement(
            client_app, server_app, client_v, server_v, duration=30.0,
        )
        testbed.initiator.run_until_done(session, simulator, timeout=3600.0)
        return session

    # Run every session first, audit afterwards: the first conviction
    # bars the slashed executor from publishing (result_ready refuses),
    # which would wedge its still-pending sessions mid-demo.
    sessions = [
        run_session((1, 2), (3, 1), count=args.probes)
        for _ in range(args.sessions)
    ]
    if args.strategy == "forge_consistent":
        # Independent vantages give cross-validation its quorum: the
        # honest reverse path plus composed sub-segment votes via AS2.
        sessions.append(run_session((3, 1), (1, 2), count=args.probes))
        sessions.append(run_session((2, 1), (1, 2), count=args.probes))
        sessions.append(run_session((2, 2), (3, 1), count=args.probes))
    for session in sessions:
        auditor.on_session_complete(session)
    simulator.run()
    auditor.finalize()

    attacks = corruptor.attacks if corruptor is not None else []
    print(f"strategy: {args.strategy}  sessions: {args.sessions}  "
          f"audit rate: {args.audit_rate:.0%}")
    print(f"attacks mounted: {len(attacks)}  "
          f"sessions replay-audited: {auditor.sessions_audited}")
    for conviction in auditor.convictions:
        asn, interface = conviction["vantage"]
        print(f"convicted {asn}:{interface} by {conviction['mechanism']}: "
              f"burned {conviction['slashed']} MIST, evidence "
              f"{conviction['evidence_hash'].hex()[:16]}…")
        print(f"  {conviction['detail']}")
    if not auditor.convictions:
        print("no convictions" + (
            " (honest executors keep their stake)"
            if args.strategy == "honest" else
            " — raise --audit-rate or --sessions to catch the liar"
        ))
    print(f"tokens slashed on-ledger: {testbed.ledger.tokens_slashed} MIST")
    state = testbed.market.state
    for key, convictions in sorted(state["conviction_map"].items()):
        if convictions:
            reasons = ", ".join(c["reason"] for c in convictions)
            print(f"on-chain conviction record for {key}: {reasons}; "
                  f"remaining stake {state['stake_map'].get(key, 0)} MIST")
    testbed.ledger.verify_chain()
    print("chain verification: OK")
    _emit_obs(args, obs)
    if args.strategy == "honest":
        return 1 if auditor.convictions else 0
    return 0 if auditor.convictions else 1


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
            f"({det['certified']} certified) in {report['wall_seconds']:.1f}s "
            f"wall / {det['sim_seconds']:.1f}s simulated"
        )
        print(
            f"  sessions/sec: {report['sessions_per_sec']:.1f}   "
            f"peak active: {det['peak_active_sessions']}   "
            f"signatures: {report['signature_backend']}"
        )
        print(
            f"  session latency: p50 {det['latency_p50_s']:.2f}s  "
            f"p99 {det['latency_p99_s']:.2f}s (simulated)"
        )
        print(
            f"  ledger: {det['ledger_txs']} txs "
            f"({report['ledger_txs_per_sec']:.0f}/sec), "
            f"{det['checkpoints']} checkpoints, "
            f"{det['blocks_sealed']} blocks"
        )
        if "verify_chain_seconds" in report:
            print(
                f"  chain verification: OK "
                f"({report['verify_chain_seconds']:.1f}s)"
            )
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
    """The fleet lifecycle end to end on a real 3-AS marketplace: a scoped
    admission, a graceful drain with on-chain deregistration, a crash
    followed by liveness eviction and re-registration, and a heartbeat-loss
    eviction of a healthy executor (DESIGN.md §12)."""
    from repro.chaos import ChaosInjector
    from repro.core import DebugletApplication
    from repro.core.executor import executor_data_address
    from repro.core.fleetmgr import CapabilityRecord, ExecutorState
    from repro.netsim import Protocol
    from repro.sandbox import echo_client, echo_server
    from repro.workloads import MarketplaceTestbed

    obs = _obs_from_args(args)
    hb = args.heartbeat
    testbed = MarketplaceTestbed.build(n_ases=3, seed=args.seed, obs=obs)
    simulator = testbed.chain.simulator
    manager = testbed.make_fleet_manager(heartbeat_interval=hb)
    injector = ChaosInjector(simulator, testbed.ledger, seed=args.seed)

    count = args.probes
    path = testbed.chain.registry.shortest(1, 3)
    server_app = DebugletApplication.from_stock(
        "srv", echo_server(Protocol.UDP, max_echoes=count,
                           idle_timeout_us=3_000_000),
        listen_port=7801, path=path.reversed().as_list(),
    )
    client_app = DebugletApplication.from_stock(
        "cli",
        echo_client(Protocol.UDP, executor_data_address(3, 1),
                    count=count, interval_us=50_000, dst_port=7801),
        path=path.as_list(),
    )

    # Admission scope: the verifier-backed allowlist check in both verdicts.
    print("admission:")
    print(f"  cli at 1:2 under the full record: "
          f"{'admitted' if manager.preflight((1, 2), client_app) else 'denied'}")
    member = manager.get((1, 2))
    member.capabilities = CapabilityRecord.read_only()
    verdict = manager.preflight((1, 2), client_app)
    print(f"  cli at 1:2 under a read-only record: "
          f"{'admitted' if verdict else 'denied'}")
    denial = member.admission_log[-1]
    print(f"    reason: {denial.reason}")
    member.capabilities = CapabilityRecord.from_policy(member.executor.policy)

    # A session through the managed fleet while everything is active.
    session = testbed.initiator.request_measurement(
        client_app, server_app, (1, 2), (3, 1), duration=30.0
    )
    testbed.initiator.run_until_done(session, simulator)
    print(f"session: {session.state.value} "
          f"(delay-to-measurement {session.delay_to_measurement:.2f}s)")

    # Graceful drain: 2:1 stops selling, retires idle, leaves the chain.
    manager.drain((2, 1))
    manager.run_until(simulator.now + 3 * hb)
    print(f"drain 2:1 -> {manager.state_of((2, 1)).value}; on-chain address: "
          f"{testbed.market.executor_address(2, 1)}")

    # Crash + eviction + re-registration: 2:2 goes down long enough to be
    # evicted, restarts, and re-registers (its stake was never touched).
    crash_at = simulator.now + hb
    restart_at = crash_at + (manager.evict_beats + 1.5) * hb
    injector.crash_executor(
        testbed.agents[(2, 2)].executor, at=crash_at, restart_at=restart_at
    )
    manager.run_until(restart_at + 0.5 * hb)
    print(f"crash 2:2 -> {manager.state_of((2, 2)).value} "
          f"(missed heartbeats: {manager.heartbeats_missed})")
    manager.reregister((2, 2))
    print(f"re-register 2:2 -> {manager.state_of((2, 2)).value} "
          f"(registrations: {manager.get((2, 2)).registrations})")

    # Heartbeat loss: 3:1 stays healthy but its control channel is cut.
    injector.lose_heartbeats(manager.get((3, 1)), start=simulator.now)
    manager.run_until(
        simulator.now + (manager.evict_beats + 2) * hb
    )
    print(f"heartbeat loss 3:1 -> {manager.state_of((3, 1)).value} "
          f"(executor crashed: {manager.get((3, 1)).executor.crashed})")

    manager.stop()
    print("lifecycle log:")
    for when, vantage, source, target, reason in manager.lifecycle_log:
        print(f"  t={when:7.2f}  {vantage[0]}:{vantage[1]}  "
              f"{source:>10} -> {target:<10} {reason}")
    print(f"fleet states: {manager.counts()}")
    testbed.ledger.verify_chain()
    print("chain verification: OK")
    _emit_obs(args, obs)
    ok = (
        manager.state_of((2, 1)) is ExecutorState.RETIRED
        and manager.state_of((2, 2)) is ExecutorState.ACTIVE
        and manager.state_of((3, 1)) is ExecutorState.EVICTED
    )
    return 0 if ok else 1


def _cmd_placement(args: argparse.Namespace) -> int:
    """Evaluate the placement strategies on one path: segment coverage
    (exact isolation, mean suspect set) against vantage cost."""
    import json

    from repro.core.placement import (
        STRATEGIES,
        candidates_from_directory,
        evaluate_strategies,
        synthetic_candidates,
    )

    if args.live:
        from repro.core.discovery import DecentralizedDirectory
        from repro.core.probing import ExecutorFleet
        from repro.workloads import build_chain

        chain = build_chain(args.ases, seed=args.seed)
        fleet = ExecutorFleet(chain.network, seed=args.seed)
        fleet.deploy_full()
        directory = DecentralizedDirectory(chain.registry)
        for vantage in fleet.vantages():
            directory.advertise(
                fleet.get(*vantage), price=args.border_price + vantage[0]
            )
        segment = chain.registry.shortest(1, args.ases)
        pool = candidates_from_directory(directory, segment)
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


def _cmd_obs_report(args: argparse.Namespace) -> int:
    """Run one instrumented scenario and print its observability rollup."""
    defaults = {
        "table1": dict(
            func=_cmd_table1, probes=args.probes or 200, interval=1.0,
            fast=True, workers=None, profile=False,
        ),
        "quickstart": dict(func=_cmd_quickstart, probes=args.probes or 30),
        "chaos-demo": dict(
            func=_cmd_chaos_demo, probes=args.probes or 30, fault=args.fault,
        ),
    }[args.scenario]
    func = defaults.pop("func")
    inner = argparse.Namespace(
        seed=args.seed,
        trace_out=args.trace_out,
        events_out=args.events_out,
        metrics_out=args.metrics_out,
        obs_report=True,
        **defaults,
    )
    return func(inner)


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
    p.add_argument("--profile", action="store_true",
                   help="print cProfile top-20 (by cumulative time) for the run")
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
        help="fleet-scale marketplace bench: ramp thousands of sessions "
             "through the ledger and report throughput/latency",
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
        "obs-report",
        help="run an instrumented scenario and print the observability rollup",
    )
    p.add_argument("--scenario", default="quickstart",
                   choices=("table1", "quickstart", "chaos-demo"))
    p.add_argument("--probes", type=int, default=None,
                   help="probe count (default: scenario-appropriate)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--fault", default="crash",
                   choices=("crash", "drop", "delay", "txfail", "expiry"),
                   help="fault kind when --scenario chaos-demo")
    p.add_argument("--trace-out", default=None, metavar="FILE")
    p.add_argument("--events-out", default=None, metavar="FILE")
    p.add_argument("--metrics-out", default=None, metavar="FILE")
    p.set_defaults(func=_cmd_obs_report)

    p = sub.add_parser(
        "vmbench",
        help="execution-tier microbench: reference interpreter vs compiled",
    )
    p.add_argument("--tier", choices=["reference", "compiled", "both"],
                   default="both")
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply every workload's iteration count")
    p.add_argument("--repeats", type=int, default=3,
                   help="min-of-N repeats per row")
    p.add_argument("--workloads", default=None,
                   help="comma-separated subset (default: all)")
    p.add_argument("--e2e", action="store_true",
                   help="also time an end-to-end fault-localization run per tier")
    p.add_argument("--json", action="store_true",
                   help="emit rows (plus compile-cache stats) as JSON")
    p.set_defaults(func=_cmd_vmbench)

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
