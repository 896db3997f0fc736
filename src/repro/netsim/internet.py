"""Internet-scale synthetic topologies with Gao-Rexford policy routing.

The localization experiments so far ran on hand-built chains and a
seven-city star. This module generates *continent-scale* AS graphs —
1k–20k ASes with a power-law degree distribution — annotated with the
business relationships real inter-domain routing is governed by:

- **customer→provider** edges, created by preferential attachment (new
  ASes buy transit from already-well-connected providers, which is what
  produces the power-law degree tail);
- a fully meshed **tier-1 clique** at the top (ASes with no providers);
- lateral **peer↔peer** edges between similar-rank ASes.

Routing follows the Gao-Rexford conditions: an AS prefers routes learned
from customers over peers over providers, and only exports customer
routes to peers/providers (no valley: a path is ``up* (peer)? down*``).
:class:`GaoRexfordRouter` computes per-destination routing trees in the
standard three phases (customer routes up from the destination, one
peer hop, provider routes down), deterministically tie-broken, so every
path the simulator forwards over is valley-free by construction. The
relationship graphs are held as sorted edge arrays and all three phases
are one level-synchronous numpy relaxation that serves a batch of
destinations per call; the dict-and-list BFS it replaced lives on under
``tests/netsim/route_reference.py`` as the reference every tree is
compared against.

Every stochastic choice draws from streams derived via the standard
``derive_rng`` label scheme, so a topology is a pure function of its
config — byte-identical regeneration from a seed is property-tested, and
:meth:`InternetTopology.digest` gives the canonical fingerprint.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
from collections import OrderedDict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.rng import derive_rng
from repro.netsim.conduit import Link
from repro.netsim.topology import (
    AutonomousSystem,
    InterfaceId,
    PathHop,
    Topology,
)

#: Continent labels for the default five-region split (cosmetic; the
#: sharding layer only cares about the region *index*).
REGION_NAMES = ("america", "europe", "asia", "africa", "oceania")


class Relation(enum.Enum):
    """The business relationship of a neighbor, from one AS's viewpoint."""

    CUSTOMER = "customer"
    PROVIDER = "provider"
    PEER = "peer"


@dataclass(frozen=True)
class InternetConfig:
    """Parameters of a generated Internet-scale topology.

    ``n_ases`` includes the tier-1 clique. ``multihoming`` is the
    probability a new AS buys transit from a second provider (so the mean
    provider count is ``1 + multihoming``). ``peer_fraction`` adds
    roughly that fraction of ``n_ases`` lateral peering links between
    similar-degree ASes. Delays are drawn uniformly from the given ranges
    (seconds, one way) depending on whether the two endpoints share a
    region.
    """

    n_ases: int = 1000
    seed: int = 0
    tier1: int = 4
    multihoming: float = 0.35
    peer_fraction: float = 0.15
    regions: int = 5
    intra_region_delay: tuple[float, float] = (2e-3, 12e-3)
    inter_region_delay: tuple[float, float] = (25e-3, 90e-3)
    internal_delay: float = 0.3e-3
    internal_jitter: float = 0.02e-3
    link_jitter: float = 0.05e-3

    def __post_init__(self) -> None:
        if self.n_ases < 3:
            raise ConfigurationError("n_ases must be at least 3")
        if not 2 <= self.tier1 <= self.n_ases:
            raise ConfigurationError("tier1 clique must fit inside n_ases")
        if not 0.0 <= self.multihoming <= 1.0:
            raise ConfigurationError("multihoming must be a probability")
        if not 0.0 <= self.peer_fraction <= 1.0:
            raise ConfigurationError("peer_fraction must be in [0, 1]")
        if self.regions < 1:
            raise ConfigurationError("regions must be >= 1")


class InternetTopology(Topology):
    """A :class:`Topology` annotated with relationships and regions.

    ``relation_of[(a, b)]`` is what *b* is to *a* (so a customer edge is
    recorded twice: ``(a, b) -> CUSTOMER`` and ``(b, a) -> PROVIDER``).
    ``region_of[asn]`` is the AS's region index in ``range(regions)``.
    :meth:`shortest_path` is overridden to return the Gao-Rexford policy
    path, so :class:`~repro.netsim.network.Network` default routing is
    valley-free on these topologies.
    """

    def __init__(self, config: InternetConfig) -> None:
        super().__init__()
        self.config = config
        self.relation_of: dict[tuple[int, int], Relation] = {}
        self.region_of: dict[int, int] = {}
        # Adjacency by class, kept sorted for deterministic iteration.
        self.providers_of: dict[int, list[int]] = {}
        self.customers_of: dict[int, list[int]] = {}
        self.peers_of: dict[int, list[int]] = {}
        # Interface number of ``a`` on the a–b adjacency.
        self.interface_on: dict[tuple[int, int], int] = {}
        self._iface_counter: dict[int, int] = {}
        self.router = GaoRexfordRouter(self)

    # ------------------------------------------------------------ building

    def add_as(self, autonomous_system: AutonomousSystem) -> AutonomousSystem:
        # Route tables are as wide as the highest ASN: a new AS outdates them.
        self.router.invalidate()
        return super().add_as(autonomous_system)

    def _next_interface(self, asn: int) -> int:
        nxt = self._iface_counter.get(asn, 0) + 1
        self._iface_counter[asn] = nxt
        return nxt

    def add_relationship(
        self, a: int, b: int, relation: Relation, link: Link
    ) -> None:
        """Join ``a`` and ``b``; ``relation`` is what ``b`` is to ``a``."""
        if (a, b) in self.relation_of:
            raise ConfigurationError(f"AS {a} and AS {b} are already adjacent")
        if_a = self._next_interface(a)
        if_b = self._next_interface(b)
        self.connect(a, if_a, b, if_b, link)
        self.interface_on[(a, b)] = if_a
        self.interface_on[(b, a)] = if_b
        inverse = {
            Relation.CUSTOMER: Relation.PROVIDER,
            Relation.PROVIDER: Relation.CUSTOMER,
            Relation.PEER: Relation.PEER,
        }[relation]
        self.relation_of[(a, b)] = relation
        self.relation_of[(b, a)] = inverse
        by_class = {
            Relation.CUSTOMER: self.customers_of,
            Relation.PROVIDER: self.providers_of,
            Relation.PEER: self.peers_of,
        }
        by_class[relation].setdefault(a, []).append(b)
        by_class[inverse].setdefault(b, []).append(a)
        self.router.invalidate()

    def degree(self, asn: int) -> int:
        return (
            len(self.providers_of.get(asn, ()))
            + len(self.customers_of.get(asn, ()))
            + len(self.peers_of.get(asn, ()))
        )

    # ------------------------------------------------------------- routing

    def shortest_path(self, src_asn: int, dst_asn: int) -> list[PathHop]:
        """The Gao-Rexford policy path (overrides plain BFS)."""
        return self.router.path(src_asn, dst_asn)

    def policy_segment_asns(self, src_asn: int, dst_asn: int) -> list[int]:
        """The AS-level policy path (no interface expansion)."""
        return self.router.path_asns(src_asn, dst_asn)

    def is_valley_free(self, asns: list[int]) -> bool:
        """Check the ``up* (peer)? down*`` export pattern over ``asns``."""
        # Phase 0: climbing provider edges; 1: after the peer hop or the
        # first down edge. A second peer edge or any up edge after the
        # descent starts is a valley.
        phase = 0
        peer_used = False
        for a, b in zip(asns, asns[1:]):
            relation = self.relation_of.get((a, b))
            if relation is None:
                return False
            if relation is Relation.PROVIDER:  # up
                if phase != 0:
                    return False
            elif relation is Relation.PEER:
                if phase != 0 or peer_used:
                    return False
                peer_used = True
                phase = 1
            else:  # CUSTOMER: down
                phase = 1
        return True

    def links(self):
        """Iterate inter-domain adjacencies once each, deterministically.

        Yields ``(asn_a, asn_b, link)`` with ``asn_a < asn_b``, where the
        link's ``forward`` channel carries a→b traffic.
        """
        for a in sorted(self.ases):
            for relation_map in (self.customers_of, self.providers_of, self.peers_of):
                for b in relation_map.get(a, ()):
                    if a < b:
                        if_a = self.interface_on[(a, b)]
                        link, _ = self.link_at_interface(a, if_a)
                        yield a, b, link

    def link_at_interface(self, asn: int, interface: int):
        return self.link_at(InterfaceId(asn, interface))

    # -------------------------------------------------------------- digest

    def digest(self) -> str:
        """Canonical fingerprint of the generated structure.

        Covers the edge list with relations, regions, interface numbers,
        and per-link base delays — everything a same-seed regeneration
        must reproduce byte-identically.
        """
        hasher = hashlib.sha256()
        for asn in sorted(self.ases):
            hasher.update(f"as:{asn}:{self.region_of.get(asn, -1)};".encode())
        for a, b, link in self.links():
            relation = self.relation_of[(a, b)].value
            hasher.update(
                f"edge:{a}#{self.interface_on[(a, b)]}-"
                f"{b}#{self.interface_on[(b, a)]}:{relation}:"
                f"{link.forward.base_delay:.9f}:{link.reverse.base_delay:.9f};"
                .encode()
            )
        return hasher.hexdigest()


# --------------------------------------------------------------- generation


def generate_internet(config: InternetConfig) -> InternetTopology:
    """Generate a seeded power-law Internet-scale topology.

    Structure: ASNs ``1..tier1`` form a fully meshed peer clique; every
    later AS attaches to one or two providers chosen by preferential
    attachment over current degree (provider chains therefore always
    terminate in the clique, which makes every pair valley-free
    reachable); lateral peer links are then added between similar-degree
    ASes. Deterministic: a pure function of ``config``.
    """
    topology = InternetTopology(config)
    rng = derive_rng(config.seed, "internet", config.n_ases)
    n = config.n_ases

    # Regions first, so link delays are decidable at attach time.
    region_draws = rng.integers(0, config.regions, size=n + 1)
    for asn in range(1, n + 1):
        region = int(region_draws[asn])
        topology.region_of[asn] = region
        topology.make_as(
            asn,
            name=f"AS{asn}",
            internal_delay=config.internal_delay,
            internal_jitter=config.internal_jitter,
            seed=config.seed + asn,
        )

    def make_link(a: int, b: int) -> Link:
        low, high = (
            config.intra_region_delay
            if topology.region_of[a] == topology.region_of[b]
            else config.inter_region_delay
        )
        delay = float(rng.uniform(low, high))
        return Link.symmetric(
            f"inet-{a}-{b}",
            base_delay=delay,
            jitter_std=config.link_jitter,
            seed=config.seed + 7919 * a + b,
        )

    # Tier-1 clique: mutual peers.
    for a in range(1, config.tier1 + 1):
        for b in range(a + 1, config.tier1 + 1):
            topology.add_relationship(a, b, Relation.PEER, make_link(a, b))

    # Preferential attachment over degree: the ``targets`` list holds one
    # entry per unit of degree, so a uniform index is a degree-weighted
    # draw (the classic Barabási–Albert trick).
    targets: list[int] = []
    for a in range(1, config.tier1 + 1):
        targets.extend([a] * topology.degree(a))
    for asn in range(config.tier1 + 1, n + 1):
        provider_count = 1 + (float(rng.random()) < config.multihoming)
        chosen: list[int] = []
        while len(chosen) < provider_count:
            provider = targets[int(rng.integers(0, len(targets)))]
            if provider not in chosen:
                chosen.append(provider)
        for provider in chosen:
            topology.add_relationship(
                asn, provider, Relation.PROVIDER, make_link(asn, provider)
            )
            targets.extend((asn, provider))

    # Lateral peering between similar-rank ASes: sort by degree, pair
    # each sampled AS with a near neighbor in rank order.
    peer_links = int(config.peer_fraction * n)
    if peer_links:
        by_rank = sorted(
            range(1, n + 1), key=lambda a: (-topology.degree(a), a)
        )
        attempts = 0
        added = 0
        while added < peer_links and attempts < peer_links * 8:
            attempts += 1
            i = int(rng.integers(0, max(1, len(by_rank) - 1)))
            span = 1 + int(rng.integers(0, 8))
            j = min(i + span, len(by_rank) - 1)
            a, b = by_rank[i], by_rank[j]
            if a == b or (a, b) in topology.relation_of:
                continue
            topology.add_relationship(a, b, Relation.PEER, make_link(a, b))
            added += 1

    return topology


# ------------------------------------------------------------ policy routing


@dataclass
class RouteTree:
    """Per-destination routing state for every AS.

    ``pref_class[v]`` is 0 (customer route), 1 (peer), 2 (provider) or -1
    (unreachable); ``pref_len[v]`` the AS-path length of the preferred
    route; ``next_hop[v]`` the neighbor the preferred route goes through.
    """

    dst: int
    pref_class: list[int]
    pref_len: list[int]
    next_hop: list[int]
    customer_next: list[int] = field(repr=False, default_factory=list)


#: ``pref_len`` of an AS that holds no route.
_UNREACHABLE = 1 << 30

#: Most ``(destination, AS)`` cells one kernel call works on. Batching
#: amortizes numpy's per-call cost over small arrays; past a few tens of
#: thousands of cells there is nothing left to amortize, only memory to
#: hold, so this — not the LRU alone — sizes a batch.
_BATCH_CELLS = 1 << 14


@dataclass(frozen=True)
class _ExportEdges:
    """One relationship class as arrays: ``tail`` exports routes to ``head``.

    Edges are sorted by ``(head, tail)``. ``tail`` holds the exporter's
    ASN per edge; ``flat_tail`` / ``flat_head`` hold the two endpoints as
    cell indices ``row * width + asn`` for every row of a full batch, row
    after row, so the first ``b * len(tail)`` entries serve a batch of
    ``b`` destinations and ascending order is ``(row, head, tail)`` order.
    """

    tail: np.ndarray
    flat_tail: np.ndarray
    flat_head: np.ndarray


@dataclass(frozen=True)
class _RouteArrays:
    """The three relationship graphs of one topology state."""

    width: int  # cells per destination: the highest ASN, plus one
    batch: int  # destinations per kernel call
    up: _ExportEdges  # customer -> provider
    peer: _ExportEdges  # peer -> peer, both directions
    down: _ExportEdges  # provider -> customer


def _export_edges(
    exporters_of: dict[int, list[int]], rows: np.ndarray
) -> _ExportEdges:
    """Edge arrays from ``{head: [tails exporting to it]}``."""
    fan_in = np.fromiter(
        map(len, exporters_of.values()), np.intp, len(exporters_of)
    )
    head = np.repeat(np.fromiter(exporters_of, np.int32, len(fan_in)), fan_in)
    tail = np.fromiter(
        itertools.chain.from_iterable(exporters_of.values()), np.int32, len(head)
    )
    order = np.lexsort((tail, head))
    head, tail = head[order], tail[order]
    return _ExportEdges(
        tail=tail,
        flat_tail=(rows + tail).ravel(),
        flat_head=(rows + head).ravel(),
    )


class GaoRexfordRouter:
    """Valley-free route computation with per-destination tree caching.

    The three phases mirror how BGP announcements actually propagate
    under Gao-Rexford export rules:

    1. **customer routes** — *up* from the destination along
       customer→provider edges (an AS hears about its customers' cone
       and may export those routes to anyone);
    2. **peer routes** — one lateral hop from any AS holding a customer
       route (customer routes are the only ones exported to peers);
    3. **provider routes** — *down* provider→customer edges from every
       routed AS (providers export their best route, whatever its
       class, to customers).

    Preference at every AS: customer > peer > provider, then shortest
    AS path, then lowest next-hop ASN — fully deterministic.

    All three phases are one level-synchronous relaxation over sorted
    edge arrays (:meth:`_route_trees`), run for a batch of destinations
    at a time: :meth:`tree` is the batch of one, :meth:`trees` serves a
    caller that knows its destinations in advance. The arrays are built
    at the first tree after a topology change and dropped by
    :meth:`invalidate`.
    """

    def __init__(self, topology: InternetTopology, *, cache_size: int = 64) -> None:
        self.topology = topology
        self.cache_size = cache_size
        self._trees: OrderedDict[int, RouteTree] = OrderedDict()
        self._arrays: _RouteArrays | None = None
        self.trees_computed = 0

    def invalidate(self) -> None:
        self._trees.clear()
        self._arrays = None

    def _require(self, asn: int) -> None:
        if asn not in self.topology.ases:
            raise SimulationError(f"AS {asn} is not in the topology")

    def tree(self, dst: int) -> RouteTree:
        cached = self._trees.get(dst)
        if cached is not None:
            self._trees.move_to_end(dst)
            return cached
        return next(self.trees((dst,)))

    def trees(self, dsts: Iterable[int]) -> Iterator[RouteTree]:
        """Yield the route tree of each destination, in the order given.

        Trees not in the LRU are computed a batch of consecutive
        destinations at a time — one kernel call each — when the caller
        reaches the batch, so walking a long sink list costs a fraction
        of one cold :meth:`tree` per sink. A batch never outgrows the
        LRU: between two yields, :meth:`tree` finds every member of the
        current batch cached. No tree is computed that was not asked for
        or is already cached.
        """
        dsts = list(dsts)
        for dst in dsts:
            self._require(dst)
        cached = self._trees
        position = 0
        while position < len(dsts):
            arrays = self._route_arrays()
            batch = dsts[position:position + arrays.batch]
            position += len(batch)
            # Touch the members already cached first, so making room
            # evicts only trees this batch does not need — and make the
            # room before the kernel runs, not after: the LRU never holds
            # more than ``cache_size`` trees, new ones included.
            held: dict[int, RouteTree] = {}
            for dst in batch:
                tree = cached.get(dst)
                if tree is not None:
                    cached.move_to_end(dst)
                    held[dst] = tree
            missing = [dst for dst in dict.fromkeys(batch) if dst not in held]
            if missing:
                for _ in range(len(cached) + len(missing) - self.cache_size):
                    cached.popitem(last=False)
                for tree in self._route_trees(arrays, missing):
                    held[tree.dst] = cached[tree.dst] = tree
                self.trees_computed += len(missing)
            for dst in batch:
                yield held[dst]

    def _route_arrays(self) -> _RouteArrays:
        arrays = self._arrays
        if arrays is None:
            topo = self.topology
            width = max(topo.ases) + 1
            batch = max(1, min(self.cache_size, _BATCH_CELLS // width))
            rows = (np.arange(batch) * width)[:, None]
            arrays = self._arrays = _RouteArrays(
                width=width,
                batch=batch,
                up=_export_edges(topo.customers_of, rows),
                peer=_export_edges(topo.peers_of, rows),
                down=_export_edges(topo.providers_of, rows),
            )
        return arrays

    @staticmethod
    def _route_trees(arrays: _RouteArrays, dsts: list[int]) -> list[RouteTree]:
        """The kernel: route trees of ``dsts`` (distinct, at most a batch).

        State is three flat int32 tables over cells ``row * width + asn``,
        one row per destination. A *relaxation* over an edge set runs
        level by level: at level ``L`` every edge whose tail holds a route
        of length ``L`` fires at a head that holds none, and the head
        takes length ``L + 1`` through the lowest-ASN tail that fired.
        Levels ascend, so the first route a cell gets is its shortest in
        that class, and classes run best first, so it is its preferred
        one. The peer relaxation reads lengths frozen after the customer
        phase — a peer route is never re-exported to a peer.
        """
        width = arrays.width
        rows = len(dsts)
        roots = np.arange(rows) * width + np.array(dsts)
        pref_class = np.full(rows * width, -1, np.int32)
        pref_len = np.full(rows * width, _UNREACHABLE, np.int32)
        next_hop = np.full(rows * width, -1, np.int32)
        pref_class[roots] = 0
        pref_len[roots] = 0

        def relax(
            edges: _ExportEdges, lengths: np.ndarray, route_class: int, longest: int
        ) -> int:
            """Run one phase; ``longest`` is the longest route held so far."""
            per_row = edges.tail.size
            flat_tail = edges.flat_tail[: rows * per_row]
            flat_head = edges.flat_head[: rows * per_row]
            level = 0
            while level <= longest:
                fires = (lengths == level).take(flat_tail)
                fires &= (pref_class < 0).take(flat_head)
                fired = np.flatnonzero(fires)
                level += 1
                if fired.size:
                    # ``fired`` ascends in (row, head, tail) order, so each
                    # head's lowest-ASN exporter opens its run. (Assigning
                    # through the repeated heads and trusting the write
                    # order would not do: numpy leaves that unspecified.)
                    heads = flat_head.take(fired)
                    opens_run = np.empty(heads.size, bool)
                    opens_run[0] = True
                    np.not_equal(heads[1:], heads[:-1], out=opens_run[1:])
                    heads = heads[opens_run]
                    pref_class[heads] = route_class
                    pref_len[heads] = level
                    next_hop[heads] = edges.tail.take(fired[opens_run] % per_row)
                    longest = max(longest, level)
            return longest

        longest = relax(arrays.up, pref_len, 0, 0)
        customer_len = pref_len.copy()
        customer_next = next_hop.copy()
        next_hop[roots] = dsts
        longest = relax(arrays.peer, customer_len, 1, longest)
        relax(arrays.down, pref_len, 2, longest)

        # Callers index the tables per hop and feed the ASNs into digests
        # and wire encodings: plain lists of Python ints, as ever.
        tables = [
            table.reshape(rows, width).tolist()
            for table in (pref_class, pref_len, next_hop, customer_next)
        ]
        return [
            RouteTree(dst, *(table[row] for table in tables))
            for row, dst in enumerate(dsts)
        ]

    # ----------------------------------------------------------- path walks

    def path_asns(self, src: int, dst: int) -> list[int]:
        """The preferred valley-free AS path from ``src`` to ``dst``."""
        self._require(src)
        self._require(dst)
        if src == dst:
            return [src]
        tree = self.tree(dst)
        if tree.pref_class[src] == -1:
            raise SimulationError(
                f"no valley-free route from AS {src} to AS {dst}"
            )
        path = [src]
        cur = src
        on_descent = False
        for _ in range(2 * len(self.topology.ases) + 4):
            if cur == dst:
                return path
            if on_descent:
                # Past the up/peer phase the walk must stay on customer
                # routes (every node on a down slope holds one, since it
                # announced the route upward in the first place).
                nxt = tree.customer_next[cur]
            else:
                nxt = tree.next_hop[cur]
                # A customer-route or peer-route exit means everything
                # after this hop descends the destination's customer cone.
                on_descent = tree.pref_class[cur] in (0, 1)
            path.append(nxt)
            cur = nxt
        raise SimulationError(
            f"routing walk from AS {src} to AS {dst} did not terminate"
        )

    def path(self, src: int, dst: int) -> list[PathHop]:
        """The policy path expanded to interface-level hops."""
        asns = self.path_asns(src, dst)
        return self.hops_for(asns)

    def hops_for(self, asns: list[int]) -> list[PathHop]:
        """Interface-level hops for an AS-level path."""
        topo = self.topology
        if len(asns) == 1:
            return [PathHop(asns[0], None, None)]
        hops: list[PathHop] = []
        ingress: int | None = None
        for a, b in zip(asns, asns[1:]):
            egress = topo.interface_on.get((a, b))
            if egress is None:
                raise SimulationError(f"AS {a} and AS {b} are not adjacent")
            hops.append(PathHop(a, ingress, egress))
            ingress = topo.interface_on[(b, a)]
        hops.append(PathHop(asns[-1], ingress, None))
        return hops
