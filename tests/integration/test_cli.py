"""The ``python -m repro`` CLI."""

import pytest

from repro.cli import main


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

    def test_obs_report_subcommand(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["obs-report", "--scenario", "quickstart",
                     "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "observability report:" in out
        assert trace.exists()

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
                    mode=mode, wall_seconds=0.1, episodes=1, found=1,
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
