"""Path-aware placement scheduling for localization campaigns (§VI).

Given a campaign's path (a chain of ASes), pick which vantage executors
to engage so that segment coverage — measured by the same
indistinguishability partition as :mod:`repro.core.deployment` — is
maximized at minimum cost. The paper's §VI names two deployment
alternatives, which become two placement *qualities* here:

- **border-router co-location** ("border"): the executor sits at the AS's
  border router facing the measured segment, so a measurement anchored
  there brackets exactly the links and transit interiors between the two
  vantages (the :func:`~repro.core.deployment.coverage_signatures` model).

- **in-AS host** ("in_as"): the executor is an ordinary host inside the
  AS. Cheaper to deploy (no router real estate), but traffic to/from it
  traverses only *part* of its own AS interior, so every measurement it
  anchors carries unreliable information about that interior: a clean
  measurement cannot exonerate it (the fault may sit in the untraversed
  part) and a faulty one cannot separate it from the measured segment.
  The host's own interior therefore stays *confusable* with any element
  that only the host's measurements would have told apart — in practice
  the two adjacent inter-domain links — and the suspect sets around an
  in-AS vantage are coarser than around a border one.

Strategies are pluggable and deterministic:

- ``border`` — greedy marginal-coverage-per-cost over border candidates;
- ``in_as`` — the same greedy over in-AS candidates;
- ``random`` — seeded random selection within budget (the baseline the
  acceptance bench compares against).

"Millions of Little Minions" motivates the objective: vantage diversity
along the path, not vantage count, is what buys localization power.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_rng
from repro.core.deployment import Element, coverage_signatures

#: Placement qualities, ordered best-first.
BORDER = "border"
IN_AS = "in_as"
STRATEGIES = ("border", "in_as", "random")
#: Synthetic vantage prices: in-AS hosting is cheaper (no router real
#: estate), the §VI trade-off the strategies navigate.
BORDER_PRICE = 100
IN_AS_PRICE = 60


@dataclass(frozen=True)
class VantageCandidate:
    """One executor (real or prospective) that could anchor measurements.

    ``position`` is the AS's 0-based index along the campaign path;
    ``kind`` is the placement quality (:data:`BORDER` or :data:`IN_AS`);
    ``price`` is the per-campaign cost of engaging it (slot price for an
    advertised executor, deployment cost for a prospective one).
    """

    asn: int
    interface: int
    kind: str
    price: int
    position: int

    def __post_init__(self) -> None:
        if self.kind not in (BORDER, IN_AS):
            raise ConfigurationError(f"unknown placement kind {self.kind!r}")
        if self.price < 0:
            raise ConfigurationError("price must be non-negative")


@dataclass
class PlacementPlan:
    """The outcome of one strategy run over one candidate pool."""

    strategy: str
    n_ases: int
    budget: int
    chosen: tuple[VantageCandidate, ...]
    cost: int
    exact_isolation_rate: float
    mean_suspect_set: float
    group_sizes: dict[Element, int] = field(default_factory=dict, repr=False)

    @property
    def positions(self) -> list[int]:
        return sorted({c.position for c in self.chosen})

    def as_row(self) -> dict:
        """A flat record for ``repro placement --json`` and EXPERIMENTS."""
        return {
            "strategy": self.strategy,
            "n_ases": self.n_ases,
            "budget": self.budget,
            "chosen": len(self.chosen),
            "cost": self.cost,
            "exact_isolation_rate": round(self.exact_isolation_rate, 4),
            "mean_suspect_set": round(self.mean_suspect_set, 4),
            "positions": self.positions,
        }


def score_placement(
    n_ases: int, vantages: dict[int, str]
) -> tuple[float, float, dict[Element, int]]:
    """Score one vantage selection by worst-case suspect sets.

    ``vantages`` maps path position → quality for every selected vantage.
    The two path endpoints are always measurable at border quality (the
    initiator's own networks, as in ``analyze_deployment``); a selected
    vantage at an endpoint position can only keep that quality.

    Signatures use the strict border semantics for every pair — what a
    measurement *definitely* brackets. The in-AS quality discount is a
    confusability pass on top: a pair anchored at an in-AS vantage ``p``
    carries unreliable information about interior ``p`` (the host's
    traffic traverses only part of it), so interior ``p`` remains in the
    suspect set of any element whose signature matches once the pairs
    anchored at ``p`` are discounted — and vice versa. With only border
    vantages the result is exactly ``analyze_deployment``'s partition.

    Returns ``(exact_isolation_rate, mean_suspect_set, suspect_sizes)``.
    """
    if n_ases < 2:
        raise ConfigurationError("need at least two ASes")
    quality = dict(vantages)
    quality[0] = BORDER
    quality[n_ases - 1] = BORDER
    measurable = sorted(p for p in quality if 0 <= p < n_ases)
    signatures = coverage_signatures(n_ases, measurable)
    elements = list(signatures)
    # Every pair (i, j) covers link i, so the signatures' union is all pairs.
    pairs = frozenset().union(*signatures.values())
    in_as = [
        p
        for p, kind in quality.items()
        if kind == IN_AS and 0 < p < n_ases - 1
    ]
    anchored = {
        p: frozenset(pair for pair in pairs if p in pair) for p in in_as
    }
    suspect_sizes: dict[Element, int] = {}
    for element in elements:
        signature = signatures[element]
        suspects = {
            other for other in elements if signatures[other] == signature
        }
        for p in in_as:
            interior = Element("interior", p)
            if element == interior:
                # Any element only p's own measurements would have told
                # apart from interior p stays suspect.
                suspects |= {
                    other
                    for other in elements
                    if signatures[other] - anchored[p] == signature
                }
            elif signature - anchored[p] == signatures[interior]:
                suspects.add(interior)
        suspect_sizes[element] = len(suspects)
    sizes = list(suspect_sizes.values())
    if not sizes:
        return float("nan"), float("nan"), suspect_sizes
    exact = sum(1 for size in sizes if size == 1) / len(sizes)
    mean = sum(sizes) / len(sizes)
    return exact, mean, suspect_sizes


def _plan(
    strategy: str,
    n_ases: int,
    chosen: list[VantageCandidate],
    budget: int,
) -> PlacementPlan:
    exact, mean, groups = score_placement(
        n_ases, {c.position: c.kind for c in chosen}
    )
    return PlacementPlan(
        strategy=strategy,
        n_ases=n_ases,
        budget=budget,
        chosen=tuple(chosen),
        cost=sum(c.price for c in chosen),
        exact_isolation_rate=exact,
        mean_suspect_set=mean,
        group_sizes=groups,
    )


def _greedy(
    strategy: str,
    n_ases: int,
    pool: list[VantageCandidate],
    budget: int,
) -> PlacementPlan:
    """Greedy set-cover flavor: repeatedly take the candidate with the
    best marginal coverage gain per token, within budget.

    Coverage gain is mean-suspect-set shrinkage first, exact-isolation
    improvement second. Mean shrinkage is the better greedy signal: it
    always favors splitting the largest indistinguishable group, which
    spreads picks along the path, whereas exact-rate gain is myopic —
    endpoint-adjacent picks isolate two elements immediately but cluster
    the plan. Remaining ties break by price then (asn, interface), so
    the plan is fully deterministic. One candidate per position — a
    second vantage in the same AS adds no new measurement-pair
    endpoints.
    """
    chosen: list[VantageCandidate] = []
    taken_positions: set[int] = set()
    spent = 0
    current_exact, current_mean, _ = score_placement(n_ases, {})
    remaining = sorted(pool, key=lambda c: (c.price, c.asn, c.interface))
    while True:
        best = None
        best_key = None
        best_scores = (current_exact, current_mean)
        for candidate in remaining:
            if candidate.position in taken_positions:
                continue
            if spent + candidate.price > budget:
                continue
            exact, mean, _ = score_placement(
                n_ases,
                {c.position: c.kind for c in chosen}
                | {candidate.position: candidate.kind},
            )
            exact_gain = exact - current_exact
            mean_gain = current_mean - mean
            if exact_gain <= 0 and mean_gain <= 0:
                continue
            price = max(candidate.price, 1)
            key = (
                -mean_gain / price,
                -exact_gain / price,
                candidate.price,
                candidate.asn,
                candidate.interface,
            )
            if best_key is None or key < best_key:
                best, best_key, best_scores = candidate, key, (exact, mean)
        if best is None:
            break
        chosen.append(best)
        taken_positions.add(best.position)
        spent += best.price
        current_exact, current_mean = best_scores
    return _plan(strategy, n_ases, chosen, budget)


def _random(
    n_ases: int,
    pool: list[VantageCandidate],
    budget: int,
    seed: int,
) -> PlacementPlan:
    """Seeded random baseline: shuffle, take affordable candidates."""
    rng = derive_rng(seed, "placement", "random")
    order = sorted(pool, key=lambda c: (c.asn, c.interface, c.kind))
    perm = rng.permutation(len(order))
    chosen: list[VantageCandidate] = []
    taken_positions: set[int] = set()
    spent = 0
    for idx in perm.tolist():
        candidate = order[idx]
        if candidate.position in taken_positions:
            continue
        if spent + candidate.price > budget:
            continue
        chosen.append(candidate)
        taken_positions.add(candidate.position)
        spent += candidate.price
    return _plan("random", n_ases, chosen, budget)


def plan_placement(
    n_ases: int,
    candidates: list[VantageCandidate],
    *,
    strategy: str,
    budget: int,
    seed: int = 0,
) -> PlacementPlan:
    """Run one strategy over the candidate pool. Deterministic per seed."""
    if strategy not in STRATEGIES:
        raise ConfigurationError(
            f"unknown strategy {strategy!r}; choose from {STRATEGIES}"
        )
    for candidate in candidates:
        if not 0 <= candidate.position < n_ases:
            raise ConfigurationError(
                f"candidate {candidate.asn}:{candidate.interface} position "
                f"{candidate.position} outside path of {n_ases} ASes"
            )
    if strategy == "random":
        return _random(n_ases, list(candidates), budget, seed)
    wanted = BORDER if strategy == "border" else IN_AS
    pool = [c for c in candidates if c.kind == wanted]
    return _greedy(strategy, n_ases, pool, budget)


def evaluate_strategies(
    n_ases: int,
    candidates: list[VantageCandidate],
    *,
    budget: int,
    seed: int = 0,
) -> dict[str, PlacementPlan]:
    """All three strategies over the same pool and budget — the
    coverage-vs-cost comparison the bench and EXPERIMENTS.md record."""
    return {
        strategy: plan_placement(
            n_ases, candidates, strategy=strategy, budget=budget, seed=seed
        )
        for strategy in STRATEGIES
    }


def synthetic_candidates(
    n_ases: int,
    *,
    border_price: int = BORDER_PRICE,
    in_as_price: int = IN_AS_PRICE,
    base_asn: int = 64512,
) -> list[VantageCandidate]:
    """A full prospective pool: one border and one in-AS candidate per
    transit AS. In-AS hosting is priced cheaper (no router real estate),
    reflecting the §VI trade-off the strategies navigate."""
    pool: list[VantageCandidate] = []
    for position in range(1, n_ases - 1):
        asn = base_asn + position
        pool.append(
            VantageCandidate(
                asn=asn,
                interface=1,
                kind=BORDER,
                price=border_price,
                position=position,
            )
        )
        pool.append(
            VantageCandidate(
                asn=asn,
                interface=1,
                kind=IN_AS,
                price=in_as_price,
                position=position,
            )
        )
    return pool


def candidates_from_directory(directory, segment) -> list[VantageCandidate]:
    """Border candidates from live executor advertisements on a path.

    Every advertised executor at one of the segment's interfaces becomes
    a border-quality candidate priced at its advertised slot price —
    placement over the *actual* fleet rather than a prospective pool.
    """
    positions = {asn: idx for idx, asn in enumerate(segment.asns())}
    pool: list[VantageCandidate] = []
    for advertisement in directory.executors_on_path(segment):
        position = positions.get(advertisement.asn)
        if position is None:
            continue
        pool.append(
            VantageCandidate(
                asn=advertisement.asn,
                interface=advertisement.interface,
                kind=BORDER,
                price=advertisement.price,
                position=position,
            )
        )
    return sorted(pool, key=lambda c: (c.position, c.price, c.asn, c.interface))


__all__ = [
    "BORDER",
    "IN_AS",
    "STRATEGIES",
    "PlacementPlan",
    "VantageCandidate",
    "candidates_from_directory",
    "evaluate_strategies",
    "plan_placement",
    "score_placement",
    "synthetic_candidates",
]
