"""The ``python -m repro`` CLI."""

import json

import pytest

from repro.cli import main
from repro.workloads import demos
from repro.workloads.fig8 import run_fig8


class TestCli:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "0.01369" in out

    def test_localize_finds_fault(self, capsys):
        code = main(["localize", "--ases", "5", "--fault-link", "2",
                     "--probes", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "correct=True" in out

    def test_localize_rejects_bad_link(self, capsys):
        assert main(["localize", "--ases", "4", "--fault-link", "9"]) == 2

    def test_quickstart(self, capsys):
        assert main(["quickstart", "--probes", "5"]) == 0
        assert "verification: OK" in capsys.readouterr().out

    def test_table1_small(self, capsys):
        assert main(["table1", "--probes", "60", "--interval", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "bangalore" in out and "sydney" in out

    def test_fig8_small(self, capsys):
        assert main(["fig8", "--probes", "60"]) == 0
        assert "D2D - A2A" in capsys.readouterr().out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


def _quickstart_lines(run):
    return [
        f"path: {run.path}",
        f"delay-to-measurement: {run.session.delay_to_measurement:.2f} s",
        f"measured: mean RTT {run.echo.mean_rtt_ms():.3f} ms, "
        f"loss {run.echo.loss_rate():.1%}",
    ]


def _chaos_lines(run):
    session = run.session
    return [
        f"fault: {run.fault.kind.value} on {run.fault.target}",
        f"states: {' -> '.join(session.state_names)}",
        f"attempts: {session.attempt}  purchase retries: {session.purchase_retries}",
        f"escrow still locked in contract: {run.escrow_locked} MIST",
        f"final state: {session.state.value}; chain verification: OK",
    ]


def _audit_lines(run):
    return [
        f"attacks mounted: {run.attacks}  "
        f"sessions replay-audited: {run.sessions_audited}",
        f"tokens slashed on-ledger: {run.tokens_slashed} MIST",
        *(f"  {conviction['detail']}" for conviction in run.convictions),
    ]


def _fleet_lines(run):
    return [
        f"session: {run.session.state.value} "
        f"(delay-to-measurement {run.session.delay_to_measurement:.2f}s)",
        f"drain 2:1 -> {run.drained.value}; on-chain address: {run.drained_address}",
        f"crash 2:2 -> {run.crashed.value} (missed heartbeats: {run.heartbeats_missed})",
        f"re-register 2:2 -> {run.reregistered.value} "
        f"(registrations: {run.registrations})",
        f"heartbeat loss 3:1 -> {run.heartbeat_lost.value} "
        f"(executor crashed: {run.heartbeat_lost_crashed})",
        f"fleet states: {run.counts}",
    ]


def _fig8_lines(measurements):
    overhead = measurements["D2D"].mean_rtt_ms() - measurements["A2A"].mean_rtt_ms()
    return [
        *(
            f"  {name}: mean={echo.mean_rtt_ms():8.3f} ms loss={echo.loss_rate():.2%}"
            for name, echo in measurements.items()
        ),
        f"  D2D - A2A = {overhead * 1e3:.0f} us",
    ]


def _localize_lines(run):
    report = run.report
    return [
        f"ground truth: {run.fault}",
        f"linear: suspects={[str(s) for s in report.suspects]} "
        f"measurements={report.measurements_used} "
        f"time={report.time_to_locate:.2f}s correct={run.correct}",
    ]


def _scenario(name, argv, run, lines):
    return pytest.param(argv, run, lines, id=name)


SCENARIOS = [
    _scenario("quickstart", ["quickstart", "--probes", "5"],
              lambda: demos.run_quickstart(probes=5), _quickstart_lines),
    *(
        _scenario(f"chaos-demo-{fault}",
                  ["chaos-demo", "--fault", fault, "--probes", "5"],
                  lambda fault=fault: demos.run_chaos_demo(fault, probes=5),
                  _chaos_lines)
        for fault in ("crash", "drop", "delay", "txfail", "expiry")
    ),
    _scenario("audit-demo",
              ["audit-demo", "--audit-rate", "1.0", "--sessions", "2"],
              lambda: demos.run_audit_demo(audit_rate=1.0, sessions=2),
              _audit_lines),
    _scenario("quickstart-seed", ["quickstart", "--probes", "5", "--seed", "2"],
              lambda: demos.run_quickstart(probes=5, seed=2), _quickstart_lines),
    _scenario("audit-demo-probes",
              ["audit-demo", "--audit-rate", "1.0", "--sessions", "2",
               "--probes", "5"],
              lambda: demos.run_audit_demo(audit_rate=1.0, sessions=2, probes=5),
              _audit_lines),
    _scenario("fleet-demo", ["fleet-demo", "--probes", "5"],
              lambda: demos.run_fleet_demo(probes=5), _fleet_lines),
    _scenario("fig8", ["fig8", "--probes", "40"],
              lambda: run_fig8(40), _fig8_lines),
    _scenario("localize",
              ["localize", "--ases", "5", "--fault-link", "2",
               "--strategy", "linear", "--probes", "8"],
              lambda: demos.run_localize(5, fault_link=2, strategy="linear",
                                         probes=8),
              _localize_lines),
    _scenario("localize-seed",
              ["localize", "--ases", "5", "--fault-link", "2",
               "--strategy", "linear", "--probes", "8", "--seed", "1"],
              lambda: demos.run_localize(5, fault_link=2, strategy="linear",
                                         probes=8, seed=1),
              _localize_lines),
]


@pytest.mark.parametrize("argv, run, lines", SCENARIOS)
def test_cli_prints_what_the_scenario_returns(argv, run, lines, capsys):
    """Each command prints the numbers its ``workloads`` function returns
    for the same arguments (run again here, in the same process)."""
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    for line in lines(run()):
        assert line in printed


SAME_SEED = {
    "loadgen": ["loadgen", "--sessions", "40", "--executors", "8",
                "--initiators", "8"],
    # small_config's size, on the fast path alone.
    "wanbench": ["wanbench", "--ases", "120", "--episodes", "9",
                 "--regions", "3", "--modes", "fast"],
}


@pytest.mark.parametrize("output", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("command", sorted(SAME_SEED))
def test_same_seed_stdout_is_byte_identical(command, output, capsys):
    """Two same-seed runs print the same bytes: no command reads a clock
    into its output (timing is ``bench/``'s job)."""
    printed = []
    for _ in range(2):
        assert main([*SAME_SEED[command], *output]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]


@pytest.mark.obs
class TestCliObservability:
    def test_table1_trace_out(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        assert main(["table1", "--probes", "40", "--fast",
                     "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert f"wrote {trace}" in out
        document = json.loads(trace.read_text())
        names = {e.get("name") for e in document["traceEvents"]}
        assert "wan.protocol_study" in names

    def test_quickstart_all_exports_and_report(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        events = tmp_path / "events.jsonl"
        metrics = tmp_path / "metrics.txt"
        assert main(["quickstart", "--probes", "5",
                     "--trace-out", str(trace),
                     "--events-out", str(events),
                     "--metrics-out", str(metrics),
                     "--obs-report"]) == 0
        out = capsys.readouterr().out
        assert "verification: OK" in out
        assert "observability report:" in out
        assert "marketplace/marketplace.session" in out
        assert "engine_events_total" in metrics.read_text()
        assert '"kind":"span"' in events.read_text()

    def test_chaos_demo_trace_out(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        assert main(["chaos-demo", "--fault", "txfail",
                     "--events-out", str(events)]) == 0
        assert "chaos.injected" in events.read_text()

    def test_no_flags_means_detached(self, capsys):
        # Without any obs flag the run must not mention observability.
        assert main(["quickstart", "--probes", "5"]) == 0
        out = capsys.readouterr().out
        assert "observability" not in out
        assert "wrote" not in out


GOOD_SOURCE = """\
.memory 4096
.func run_debuglet 0 0
    push 1
    push 2
    add
    host result_i64
    ret
.end
"""

SPIN_SOURCE = """\
.memory 4096
.func run_debuglet 0 0
loop:
    jmp loop
.end
"""


class TestVerifyCommand:
    def test_accepts_good_program(self, tmp_path, capsys):
        path = tmp_path / "good.dasm"
        path.write_text(GOOD_SOURCE)
        assert main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "verdict: ok" in out
        assert "fuel: exact" in out

    def test_rejects_spin_loop(self, tmp_path, capsys):
        path = tmp_path / "spin.dasm"
        path.write_text(SPIN_SOURCE)
        assert main(["verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert "verdict: rejected" in out
        assert "V302" in out

    def test_json_output(self, tmp_path, capsys):
        import json

        path = tmp_path / "good.dasm"
        path.write_text(GOOD_SOURCE)
        assert main(["verify", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["fuel"]["kind"] == "exact"

    def test_manifest_fuel_limit_enforced(self, tmp_path, capsys):
        from repro.netsim import Protocol
        from repro.sandbox.programs import echo_client
        from repro.netsim.packet import Address
        import json

        stock = echo_client(Protocol.UDP, Address(20, 2), count=5, dst_port=7)
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps(stock.manifest.as_dict()))
        path = tmp_path / "good.dasm"
        path.write_text(GOOD_SOURCE)
        assert main(["verify", str(path), "--manifest", str(manifest_path)]) == 0

    def test_assembly_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.dasm"
        path.write_text(".memory 4096\n.func run_debuglet 0 0\nhost nope\nret\n.end")
        assert main(["verify", str(path)]) == 1
        assert "assembly failed" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["verify", "/nonexistent/x.dasm"]) == 2


#: The fleet-churn command CI runs: six vantage pairs, four of them churned.
CHURN = ["loadgen", "--sessions", "100", "--executors", "12", "--initiators", "8",
         "--churn", "--late", "1", "--drains", "1", "--crashes", "1", "--lost", "1",
         "--verify", "--json"]


def test_churn_at_the_defaults_launches_every_session(capsys):
    """The two stable pairs offer a slot for every session, so none fails
    to launch and the command exits 0."""
    assert main(CHURN) == 0
    report = json.loads(capsys.readouterr().out)["deterministic"]
    assert (report["launch_failures"], report["completed"]) == (0, 100)
    assert report["fleet"]["assigned_while_unsellable"] == 0


def test_loadgen_seed_and_audit_rate_reach_the_report(capsys):
    assert main(["loadgen", "--sessions", "40", "--executors", "8",
                 "--initiators", "8", "--seed", "3", "--audit-rate", "0.5",
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["seed"], report["audit_rate"]) == (3, 0.5)
    assert report["deterministic"]["audit"]["sessions_sampled"] > 0


def test_placement_json_has_one_row_per_strategy(capsys):
    from repro.core.placement import STRATEGIES

    assert main(["placement", "--json"]) == 0
    assert sorted(json.loads(capsys.readouterr().out)) == sorted(STRATEGIES)


def test_wanbench_strategy_reaches_the_config(capsys):
    assert main(["wanbench", "--ases", "120", "--episodes", "9", "--regions", "3",
                 "--modes", "fast", "--strategy", "binary", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["strategy"] == "binary"


#: Flags no test, CI step or document ran; what they set is a constant now.
REMOVED_FLAGS = [
    ["loadgen", "--window", "4.0"],
    ["loadgen", "--shards", "16"],
    ["loadgen", "--ramp", "30.0"],
    ["loadgen", "--heartbeat", "2.0"],
    ["loadgen", "--slot-factor", "3"],
    ["fleet-demo", "--heartbeat", "5.0"],
    ["placement", "--border-price", "100"],
    ["placement", "--in-as-price", "60"],
    ["wanbench", "--no-traffic"],
]


@pytest.mark.parametrize("argv", REMOVED_FLAGS, ids=lambda argv: " ".join(argv[:2]))
def test_removed_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


@pytest.mark.wan
class TestWanbenchCommand:
    ARGS = ["wanbench", "--ases", "120", "--episodes", "9", "--regions", "3",
            "--modes", "fast,sharded", "--workers", "2"]

    def test_json_reports_matching_digests(self, capsys):
        import dataclasses
        import json

        from repro.workloads.wanbench import WanbenchConfig

        assert main([*self.ARGS, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["digest_match"] is True
        outcomes = payload["outcomes"]
        assert outcomes["fast"]["digest"] == outcomes["sharded"]["digest"]
        assert (outcomes["sharded"]["workers"], outcomes["sharded"]["fallbacks"]) == (2, 0)
        assert (outcomes["fast"]["workers"], outcomes["fast"]["fallbacks"]) == (0, 0)
        assert payload["digest_match_vacuous"] is False
        assert set(payload["config"]) == {
            f.name for f in dataclasses.fields(WanbenchConfig)
        }

    @pytest.mark.parametrize("output, verdict", [
        ([], "serial vs sharded digest: MISMATCH"),
        (["--json"], '"digest_match": false'),
    ], ids=["text", "json"])
    def test_digest_mismatch_fails_in_both_output_modes(
        self, output, verdict, monkeypatch, capsys
    ):
        from repro.workloads import wanbench

        def mismatched(config, *, modes):
            outcomes = {
                mode: wanbench.ModeOutcome(
                    mode=mode, episodes=1, found=1,
                    measurements=1, probes_sent=10, mean_convergence=0.0,
                    digest=mode * 4,
                )
                for mode in modes
            }
            return {"config": config, "congested_channels": 0,
                    "outcomes": outcomes, "digest_match": False}

        monkeypatch.setattr(wanbench, "run_wanbench", mismatched)
        assert main([*self.ARGS, *output]) == 1
        assert verdict in capsys.readouterr().out

    def test_pool_that_cannot_spawn_is_not_two_workers(self, monkeypatch, capsys):
        """Degraded to serial, the sharded run is the serial run again: the
        digests match (exit 0, results are unaffected) and the document says
        that no pool ran, that a batch fell back, and that the match
        therefore compares the serial run with itself."""
        import json

        from repro.perf import parallel

        def refuse(*args, **kwargs):
            raise OSError("cannot allocate a worker process")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", refuse)
        assert main([*self.ARGS, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        sharded = payload["outcomes"]["sharded"]
        assert (sharded["workers"], sharded["fallbacks"]) == (0, 1)
        assert payload["digest_match"] is True
        assert payload["digest_match_vacuous"] is True

        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "1 batch(es) rerun serially" in out
        assert "serial vs sharded digest: MATCH (vacuous" in out

    def test_healthy_text_output_is_not_vacuous(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith("serial vs sharded digest: MATCH")

    def test_unknown_mode_is_a_usage_error(self, capsys):
        assert main(["wanbench", "--modes", "fast,warp"]) == 2
        assert "unknown modes: ['warp']" in capsys.readouterr().err

    def test_record_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*self.ARGS, "--record"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --record" in capsys.readouterr().err
