"""§VI-B ablation: incremental deployment.

Quantifies the paper's argument that partial deployment already enables
useful localization and that a poorly-performing AS "will be increasingly
exposed over time": expected suspect-set size and exact-isolation rate as
a function of the fraction of transit ASes hosting executors.
"""

from repro.core.deployment import analyze_deployment, sweep_deployment_fraction

N_ASES = 20
FRACTIONS = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0]


def _run_sweep():
    return sweep_deployment_fraction(N_ASES, FRACTIONS, trials=60, seed=45)


def test_deployment_ablation():
    rows = _run_sweep()

    print(f"\n=== §VI-B: localization power vs deployment ({N_ASES}-AS paths) ===")
    print("  deployed fraction   mean suspect set   exactly isolated")
    for row in rows:
        print(
            f"  {row['fraction']:17.0%}   {row['mean_suspect_set']:16.2f}   "
            f"{row['exact_isolation_rate']:15.0%}"
        )

    suspect = [row["mean_suspect_set"] for row in rows]
    exact = [row["exact_isolation_rate"] for row in rows]
    # Monotone improvement with deployment.
    assert all(a >= b for a, b in zip(suspect, suspect[1:]))
    assert all(a <= b for a, b in zip(exact, exact[1:]))
    # Full deployment isolates every fault exactly.
    assert exact[-1] == 1.0
    assert suspect[-1] == 1.0
    # Even 25% deployment cuts the suspect set by more than half.
    assert suspect[2] < suspect[0] / 2

    # A single deploying neighbor already isolates the link beside it —
    # the paper's "prove their innocence" incentive.
    report = analyze_deployment(N_ASES, {1})
    from repro.core.deployment import Element

    assert report.group_sizes[Element("link", 0)] == 1
