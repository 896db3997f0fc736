"""Incremental-deployment analysis (§VI-B).

With only some ASes on a path deploying executors, faults can be isolated
only to the *gap* between consecutive deployers. This module quantifies
that: for a chain of ``n`` ASes and a set of deployers, every atomic fault
element (each inter-domain link, each transit-AS interior) is grouped with
the elements it is indistinguishable from; the expected suspect-set size
and the exactly-isolated fraction measure localization power as deployment
grows — the paper's claim that a hiding AS "will be increasingly exposed
over time".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_rng


@dataclass(frozen=True)
class Element:
    """An atomic fault location on a chain path."""

    kind: str  # "link" or "interior"
    index: int  # link i joins AS i and AS i+1; interior i is AS i

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind == "link":
            return f"link({self.index},{self.index + 1})"
        return f"interior({self.index})"


def path_elements(n_ases: int) -> list[Element]:
    """All atomic fault locations on an ``n_ases`` chain.

    Endpoint interiors are excluded: traffic originates/terminates inside
    them, so executor-based measurement never brackets them.
    """
    if n_ases < 2:
        raise ConfigurationError("need at least two ASes")
    links = [Element("link", i) for i in range(n_ases - 1)]
    interiors = [Element("interior", i) for i in range(1, n_ases - 1)]
    return links + interiors


def _covered(element: Element, i: int, j: int) -> bool:
    """Is ``element`` inside a measurement between vantage ASes i < j?

    Vantage points sit at the border routers facing the measured segment
    (client at AS i's egress, server at AS j's ingress), so the segment
    covers links i..j-1 and the interiors of the transit ASes i+1..j-1.
    """
    if element.kind == "link":
        return i <= element.index < j
    return i < element.index < j


def coverage_signatures(
    n_ases: int, measurable: list[int]
) -> dict[Element, frozenset]:
    """Each fault element's signature: the set of measurement pairs, among
    the ``measurable`` positions, whose segment covers it. Elements with
    equal signatures are indistinguishable — the one partition both
    :func:`analyze_deployment` and :mod:`repro.core.placement` score."""
    pairs = list(combinations(measurable, 2))
    return {
        element: frozenset((i, j) for i, j in pairs if _covered(element, i, j))
        for element in path_elements(n_ases)
    }


@dataclass
class DeploymentReport:
    """Localization power of one deployment pattern."""

    n_ases: int
    measurable: list[int]
    group_sizes: dict[Element, int]

    @property
    def mean_suspect_set(self) -> float:
        """Expected suspect-set size for a uniformly random fault."""
        sizes = list(self.group_sizes.values())
        return float(np.mean(sizes)) if sizes else float("nan")

    @property
    def exact_isolation_rate(self) -> float:
        """Fraction of fault locations isolated to exactly one element."""
        sizes = list(self.group_sizes.values())
        if not sizes:
            return float("nan")
        return sum(1 for size in sizes if size == 1) / len(sizes)


def analyze_deployment(n_ases: int, deployed: set[int]) -> DeploymentReport:
    """Group indistinguishable fault elements for a deployment pattern.

    ``deployed`` holds AS indices (0-based) hosting executors. The two
    path endpoints are always measurable — they are the endpoints'
    own networks (§VI-B: "between a deploying AS and either endpoint").
    """
    measurable = sorted({0, n_ases - 1} | {d for d in deployed if 0 <= d < n_ases})
    signatures = coverage_signatures(n_ases, measurable)
    group_sizes: dict[Element, int] = {}
    for element, signature in signatures.items():
        group_sizes[element] = sum(
            1 for other_sig in signatures.values() if other_sig == signature
        )
    return DeploymentReport(
        n_ases=n_ases, measurable=measurable, group_sizes=group_sizes
    )


def sweep_deployment_fraction(
    n_ases: int,
    fractions: list[float],
    *,
    trials: int = 50,
    seed: int = 0,
) -> list[dict]:
    """Monte-Carlo localization power vs deployment fraction.

    For each fraction, sample random subsets of transit ASes of that size
    and average the report metrics — the §VI-B incremental-deployment
    curve.
    """
    rows = []
    interior_ases = list(range(1, n_ases - 1))
    for fraction in fractions:
        k = round(fraction * len(interior_ases))
        rng = derive_rng(seed, "deploy-sweep", f"{fraction:.4f}")
        suspect_sizes = []
        exact_rates = []
        for _ in range(trials):
            if k >= len(interior_ases):
                chosen = set(interior_ases)
            else:
                chosen = set(
                    rng.choice(interior_ases, size=k, replace=False).tolist()
                )
            report = analyze_deployment(n_ases, chosen)
            suspect_sizes.append(report.mean_suspect_set)
            exact_rates.append(report.exact_isolation_rate)
        rows.append(
            {
                "fraction": fraction,
                "deployed_transit_ases": k,
                "mean_suspect_set": float(np.mean(suspect_sizes)),
                "exact_isolation_rate": float(np.mean(exact_rates)),
            }
        )
    return rows
