"""The wanbench campaign guards (select with ``-m wan``).

Three contracts of the continent-scale campaign family:

- **Determinism** — serial and region-sharded runs of the same-seed
  campaign produce byte-identical result digests (the CI ``wan`` job's
  main check, also exercised cross-process here);
- **Engine agreement** — the event-driven reference drives the same
  plans to the same verdicts, so accuracy and measurement counts match
  the fast path exactly;
- **Speed** — the fast path beats the event-driven engine by a sound
  margin even at smoke scale (the >=10x acceptance number is measured at
  >=5k ASes; see EXPERIMENTS.md).
"""

import hashlib
import json

import pytest

from repro.common.errors import ConfigurationError
from repro.core.fastprobe import FastSegmentProber
from repro.core.localization import FaultLocalizer
from repro.workloads.wanbench import (
    WanbenchConfig,
    build_continent,
    campaign_judge,
    run_campaign,
    run_event_baseline,
    run_wanbench,
    small_config,
)

pytestmark = pytest.mark.wan

# Golden digests, computed at the commit before the plan drivers were
# merged (numpy 2.4.6). A numpy release that changes ``Generator``
# distribution streams (NEP 19) is the one legitimate reason to
# regenerate them; a driver, prober or pool change is not.
GOLDEN_CAMPAIGN = "fefd4f00f5734ee2167a1cbcb55b459b334c9861ccd9f84d7138b39a936fe25b"
GOLDEN_CAMPAIGN_BINARY_SEED3 = (
    "3e771d095a279e0d4c37c06a08cc1f6e2435dbc1f3901356980030f1ac6ff034"
)
GOLDEN_ONE_AT_A_TIME = (
    "904d761549a333b4d36165849f559a710795cd970620cae092482b00f7833dc6"
)
GOLDEN_EVENT_SIX_KEYS = (
    "72ff455e6c37556747f85542c0bb1ea1ce4e7b6bfc89ceb23cffbaebdd624fc8"
)
EVENT_KEYS = (
    "episode", "strategy", "fault_kind", "found", "measurements",
    "convergence_time",
)

# Serial campaign digests by ``(n_ases, episodes, seed)``, recorded at the
# parent of the stage table (565ea43) before ``netsim/fastpath.py`` was
# touched: ``wan_campaign``'s bench iterations 0-2, the CI ``wan`` job's
# campaign (``repro wanbench --ases 300 --episodes 400 --modes fast`` prints
# the first 16 digits), and the 40 / 400 / 2 000-episode campaigns of the
# flat-cost table in EXPERIMENTS.md. ``python -m tests.workloads.test_wanbench``
# prints them again; like the goldens above they move only with numpy's streams.
SERIAL_DIGESTS = {
    (400, 80, 0): "4dd43c1391335d08280edb6d3133640ce81667eacc53d5d63a9057b0efddded5",
    (400, 80, 1): "833b2b94eec57736f86780b8369f1e387511a7667cc6cc64a6a9e5b19de6740b",
    (400, 80, 2): "b749b907ef906fe66594c4dff841e9c0552ba9dd11429bcfda3e9cd284a768bf",
    (300, 400, 0): "bea5f8f7364ac4b4715cc480428abef1bc2659a00f554dfc86ec92092f05a358",
    (1000, 40, 1): "0b84172d45d24dc12427f370278d276f46c5aa80d07497339b26c94c14f0dbcc",
    (1000, 400, 1): "32dc0a1fe9c6fbc7f794cc0368efa8dab292429144ccf39c8a58d2123e600f16",
    (1000, 2000, 1): "a0011a780a2549e036b95dacf3ea8b9b19bcf0eccc407d04a040d901fc3ab9e2",
}


def serial_digest(n_ases: int, episodes: int, seed: int) -> str:
    config = WanbenchConfig(n_ases=n_ases, episodes=episodes, seed=seed)
    return run_campaign(build_continent(config), workers=0).digest


def _sha(rows) -> str:
    payload = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TestGoldenDigests:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_campaign_digest_is_pinned(self, workers):
        outcome = run_campaign(build_continent(small_config()), workers=workers)
        assert outcome.digest == GOLDEN_CAMPAIGN
        assert outcome.workers == workers
        assert outcome.fallbacks == 0

    def test_binary_campaign_digest_is_pinned(self):
        config = small_config(seed=3, strategy="binary")
        outcome = run_campaign(build_continent(config), workers=0)
        assert outcome.digest == GOLDEN_CAMPAIGN_BINARY_SEED3

    def test_one_localization_at_a_time_is_pinned(self):
        """``FaultLocalizer`` over the fast prober, episode by episode at
        the prober's clock — the way ``bench/workloads.py::WanCampaign``
        drives its second half."""
        config = small_config()
        scenario = build_continent(config)
        localizer = FaultLocalizer(
            FastSegmentProber(
                scenario.network,
                probes=config.probes,
                interval_us=config.interval_us,
                probe_size=config.probe_size,
                timeout=config.timeout,
                seed=config.seed,
                label="wan",
            ),
            judge=campaign_judge(),
        )
        rows = []
        for episode in scenario.episodes:
            if scenario.simulator.now < episode.window_start:
                scenario.simulator.run(until=episode.window_start)
            report = localizer.localize(episode.path, strategy=episode.strategy)
            rows.append(
                [
                    episode.index,
                    report.found(episode.fault_location),
                    report.measurements_used,
                    report.time_to_locate,
                    [
                        (
                            v.faulty,
                            v.measurement.mean_rtt_ms(),
                            v.measurement.loss_rate(),
                        )
                        for v in report.verdicts
                    ],
                ]
            )
        assert _sha(rows) == GOLDEN_ONE_AT_A_TIME

    @pytest.mark.parametrize(
        "size", SERIAL_DIGESTS, ids=lambda size: "x".join(map(str, size))
    )
    def test_serial_digests_at_bench_and_experiment_sizes(self, size):
        assert serial_digest(*size) == SERIAL_DIGESTS[size]

    def test_event_baseline_rows_are_pinned(self):
        outcome = run_event_baseline(build_continent(small_config()))
        rows = [{key: row[key] for key in EVENT_KEYS} for row in outcome.rows]
        assert _sha(rows) == GOLDEN_EVENT_SIX_KEYS


@pytest.fixture(scope="module")
def smoke_summary():
    return run_wanbench(small_config(), modes=("event", "fast", "sharded"))


class TestDeterminism:
    def test_serial_and_sharded_digests_match(self, smoke_summary):
        assert smoke_summary["digest_match"] is True
        fast = smoke_summary["outcomes"]["fast"]
        sharded = smoke_summary["outcomes"]["sharded"]
        assert fast.digest == sharded.digest
        assert sharded.workers >= 1, "sharded mode must actually use a pool"
        # NaN != NaN, so compare the canonical serialization (what the
        # digest hashes), not the row objects.
        assert json.dumps(fast.rows, sort_keys=True) == json.dumps(
            sharded.rows, sort_keys=True
        )

    def test_rebuilt_scenario_reproduces_digest(self):
        config = small_config(episodes=4)
        first = run_campaign(build_continent(config), workers=0)
        second = run_campaign(build_continent(config), workers=0)
        assert first.digest == second.digest

    def test_different_seed_changes_digest(self):
        base = run_campaign(build_continent(small_config(episodes=4)), workers=0)
        other = run_campaign(
            build_continent(small_config(episodes=4, seed=1)), workers=0
        )
        assert base.digest != other.digest


class TestEngineAgreement:
    def test_event_and_fast_agree_on_outcomes(self, smoke_summary):
        event = smoke_summary["outcomes"]["event"]
        fast = smoke_summary["outcomes"]["fast"]
        assert event.episodes == fast.episodes
        assert event.found == fast.found
        # Shared plans + agreeing verdicts => identical measurement
        # sequences across engines.
        assert event.measurements == fast.measurements
        assert event.probes_sent == fast.probes_sent
        by_episode = {row["episode"]: row for row in fast.rows}
        for row in event.rows:
            assert row["measurements"] == by_episode[row["episode"]]["measurements"]
            assert row["found"] == by_episode[row["episode"]]["found"]

    def test_campaign_localizes_most_faults(self, smoke_summary):
        fast = smoke_summary["outcomes"]["fast"]
        assert fast.accuracy >= 0.75, [r for r in fast.rows if not r["found"]]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            run_wanbench(small_config(), modes=("fast", "warp"))


class TestEpisodeWindows:
    def test_windows_are_disjoint_and_faults_bounded(self):
        scenario = build_continent(small_config())
        for episode, fault in zip(scenario.episodes, scenario.faults):
            assert episode.window_start == episode.index * scenario.window_length
            assert fault.start == episode.window_start
            assert fault.end == episode.window_start + scenario.window_length
        starts = [e.window_start for e in scenario.episodes]
        assert starts == sorted(set(starts))

    def test_paths_meet_min_hops(self):
        scenario = build_continent(small_config())
        for episode in scenario.episodes:
            assert episode.path.length >= scenario.config.min_hops


@pytest.mark.perf_smoke
def test_fast_path_beats_event_driven_campaign(smoke_summary):
    event = smoke_summary["outcomes"]["event"]
    fast = smoke_summary["outcomes"]["fast"]
    # Loose smoke bound (>=3x at 120 ASes); the >=10x acceptance number
    # is measured at >=5k ASes by the full-scale wanbench run.
    assert fast.wall_seconds * 3 < event.wall_seconds, (
        fast.wall_seconds,
        event.wall_seconds,
    )


if __name__ == "__main__":
    for size in SERIAL_DIGESTS:
        print(f"    {size}: \"{serial_digest(*size)}\",")
