"""The route computation the array kernel replaced, kept as the reference.

``reference_tree`` is ``GaoRexfordRouter._compute`` exactly as it stood
before route trees became arrays (only ``self.topology`` became the
``topo`` argument): a per-destination three-phase BFS over the
topology's dicts and lists with ``sorted()`` frontiers. Nothing under
``src/`` calls it; ``test_route_kernel.py`` requires all four
:class:`RouteTree` tables of every tree the router emits to equal its
output. Do not optimise or tidy it — its value is that it did not change.
"""

from repro.netsim.internet import InternetTopology, RouteTree


def reference_tree(topo: InternetTopology, dst: int) -> RouteTree:
    n = max(topo.ases)
    none = -1
    unreach = 1 << 30
    # Phase 1: customer routes, level-synchronous BFS up provider edges.
    dist_c = [unreach] * (n + 1)
    next_c = [none] * (n + 1)
    dist_c[dst] = 0
    frontier = [dst]
    while frontier:
        discovered: dict[int, int] = {}
        for v in sorted(frontier):
            for p in topo.providers_of.get(v, ()):
                if dist_c[p] != unreach:
                    continue
                best = discovered.get(p)
                if best is None or v < best:
                    discovered[p] = v
        for p, via in discovered.items():
            dist_c[p] = dist_c[via] + 1
            next_c[p] = via
        frontier = list(discovered)

    # Phase 2: peer routes (one lateral hop onto a customer route).
    dist_p = [unreach] * (n + 1)
    next_p = [none] * (n + 1)
    for v in topo.ases:
        best_len = unreach
        best_peer = none
        for u in sorted(topo.peers_of.get(v, ())):
            if dist_c[u] == unreach:
                continue
            candidate = dist_c[u] + 1
            if candidate < best_len:
                best_len = candidate
                best_peer = u
        if best_peer != none and dist_c[v] == unreach:
            dist_p[v] = best_len
            next_p[v] = best_peer

    # Export length of each routed AS (its preferred route so far).
    pref_class = [-1] * (n + 1)
    pref_len = [unreach] * (n + 1)
    next_hop = [none] * (n + 1)
    for v in topo.ases:
        if dist_c[v] != unreach:
            pref_class[v] = 0
            pref_len[v] = dist_c[v]
            next_hop[v] = next_c[v] if v != dst else dst
        elif dist_p[v] != unreach:
            pref_class[v] = 1
            pref_len[v] = dist_p[v]
            next_hop[v] = next_p[v]

    # Phase 3: provider routes, bucketed BFS down customer edges.
    # Buckets are candidate total lengths; unit edge weights keep the
    # scan monotone (a node finalized at length L never improves).
    buckets: dict[int, list[tuple[int, int]]] = {}
    for v in topo.ases:
        if pref_class[v] != -1:
            for c in topo.customers_of.get(v, ()):
                if pref_class[c] != -1:
                    continue
                buckets.setdefault(pref_len[v] + 1, []).append((c, v))
    length = 0
    max_length = 2 * (n + 2)
    while buckets and length <= max_length:
        if length not in buckets:
            length += 1
            continue
        entries = buckets.pop(length)
        newly: dict[int, int] = {}
        for c, via in sorted(entries):
            if pref_class[c] != -1:
                continue
            best = newly.get(c)
            if best is None or via < best:
                newly[c] = via
        for c, via in newly.items():
            pref_class[c] = 2
            pref_len[c] = length
            next_hop[c] = via
            for grandchild in topo.customers_of.get(c, ()):
                if pref_class[grandchild] == -1:
                    buckets.setdefault(length + 1, []).append(
                        (grandchild, c)
                    )
        length += 1

    return RouteTree(
        dst=dst,
        pref_class=pref_class,
        pref_len=pref_len,
        next_hop=next_hop,
        customer_next=next_c,
    )
