"""Placement strategies: coverage math, budgets, determinism."""

import pytest

from repro.common.errors import ConfigurationError
from repro.core.deployment import analyze_deployment
from repro.core.placement import (
    BORDER,
    IN_AS,
    VantageCandidate,
    evaluate_strategies,
    plan_placement,
    score_placement,
    synthetic_candidates,
)

pytestmark = pytest.mark.fleet

N = 8


class TestScoreModel:
    def test_all_border_matches_deployment_analysis(self):
        """Border-quality scoring IS the deployment.py partition."""
        deployed = {2, 5}
        exact, mean, groups = score_placement(
            N, {p: BORDER for p in deployed}
        )
        report = analyze_deployment(N, deployed)
        assert exact == pytest.approx(report.exact_isolation_rate)
        assert mean == pytest.approx(report.mean_suspect_set)
        assert groups == report.group_sizes

    def test_in_as_is_never_sharper_than_border(self):
        for positions in [{2}, {3, 5}, set(range(1, N - 1))]:
            border_exact, border_mean, _ = score_placement(
                N, {p: BORDER for p in positions}
            )
            inas_exact, inas_mean, _ = score_placement(
                N, {p: IN_AS for p in positions}
            )
            assert inas_exact <= border_exact + 1e-12
            assert inas_mean >= border_mean - 1e-12

    def test_endpoints_always_border_quality(self):
        # Marking an endpoint in_as is ignored: the initiator's own
        # networks measure from their borders.
        base = score_placement(N, {})
        forced = score_placement(N, {0: IN_AS, N - 1: IN_AS})
        assert base[:2] == forced[:2]

    def test_too_short_path_rejected(self):
        with pytest.raises(ConfigurationError):
            score_placement(1, {})


class TestStrategies:
    def test_border_beats_random_baseline(self):
        # Localization power = expected suspect-set size (lower is
        # better). Exact-isolation rate alone is gameable by clustering
        # picks next to an endpoint, so the suspect set is the headline.
        pool = synthetic_candidates(N)
        budget = 3 * 100  # three border hires
        for seed in (1, 3, 11):
            plans = evaluate_strategies(N, pool, budget=budget, seed=seed)
            assert (
                plans["border"].mean_suspect_set
                < plans["random"].mean_suspect_set
            )

    def test_budget_is_respected_by_every_strategy(self):
        pool = synthetic_candidates(N)
        for budget in (0, 60, 100, 250, 10_000):
            for plan in evaluate_strategies(
                N, pool, budget=budget, seed=1
            ).values():
                assert plan.cost <= budget

    def test_unlimited_budget_border_is_perfect(self):
        pool = synthetic_candidates(N)
        plan = plan_placement(N, pool, strategy="border", budget=10_000)
        assert plan.exact_isolation_rate == pytest.approx(1.0)
        assert plan.mean_suspect_set == pytest.approx(1.0)

    def test_in_as_buys_more_vantages_for_same_budget(self):
        pool = synthetic_candidates(N, border_price=100, in_as_price=50)
        budget = 150
        border = plan_placement(N, pool, strategy="border", budget=budget)
        in_as = plan_placement(N, pool, strategy="in_as", budget=budget)
        assert len(in_as.chosen) > len(border.chosen)

    def test_same_seed_same_plan(self):
        pool = synthetic_candidates(N)
        a = plan_placement(N, pool, strategy="random", budget=260, seed=9)
        b = plan_placement(N, pool, strategy="random", budget=260, seed=9)
        assert a.chosen == b.chosen
        assert a.cost == b.cost

    def test_greedy_is_deterministic(self):
        pool = synthetic_candidates(N)
        a = plan_placement(N, pool, strategy="border", budget=300)
        b = plan_placement(N, pool, strategy="border", budget=300)
        assert a.chosen == b.chosen

    def test_one_candidate_per_position(self):
        pool = synthetic_candidates(N) + synthetic_candidates(
            N, base_asn=70000
        )
        plan = plan_placement(N, pool, strategy="border", budget=10_000)
        positions = [c.position for c in plan.chosen]
        assert len(positions) == len(set(positions))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown strategy"):
            plan_placement(N, [], strategy="psychic", budget=100)

    def test_out_of_path_candidate_rejected(self):
        bad = VantageCandidate(
            asn=1, interface=1, kind=BORDER, price=10, position=N + 3
        )
        with pytest.raises(ConfigurationError, match="outside path"):
            plan_placement(N, [bad], strategy="border", budget=100)

    def test_as_row_is_flat_and_json_friendly(self):
        import json

        pool = synthetic_candidates(N)
        plan = plan_placement(N, pool, strategy="border", budget=300)
        row = plan.as_row()
        assert json.dumps(row)  # serializable
        assert row["strategy"] == "border"
        assert row["cost"] == plan.cost


class TestDirectoryCandidates:
    def test_candidates_from_live_advertisements(self):
        from repro.core.discovery import DecentralizedDirectory
        from repro.core.placement import candidates_from_directory
        from repro.workloads.scenarios import deployed_chain

        chain, fleet = deployed_chain(4, seed=2, fleet_seed=2)
        directory = DecentralizedDirectory(chain.registry)
        for vantage in fleet.vantages():
            directory.advertise(fleet.get(*vantage), price=40 + vantage[0])
        path = chain.registry.shortest(1, 4)
        pool = candidates_from_directory(directory, path)
        assert pool
        assert all(c.kind == BORDER for c in pool)
        asns = path.asns()
        for candidate in pool:
            assert asns[candidate.position] == candidate.asn
        # And the pool feeds the planner directly.
        plan = plan_placement(
            len(asns), pool, strategy="border", budget=10_000
        )
        assert plan.exact_isolation_rate == pytest.approx(1.0)
