"""Answer checks made apart from pairdom: expected values, the witness
verifier and a brute force for small graphs."""

from __future__ import annotations

import heapq
import itertools


def expected_gamma_ok(gamma, expect, n: int) -> str | None:
    """`expect` is an int (exact value), None (no paired-dominating set) or
    "even" (finite, even and at most n: the property check for plain random
    trees whose expansion has no isolated vertex)."""
    if expect == "even":
        if not isinstance(gamma, int) or gamma % 2 or not 2 <= gamma <= n:
            return f"gamma_p {gamma!r} is not an even value in [2, {n}]"
        return None
    if gamma != expect:
        return f"gamma_p {gamma!r}, expected {expect!r}"
    return None


def has_perfect_matching(adj, w) -> bool:
    """Whether G[w] has a perfect matching.

    A min-degree greedy matching (a degree-1 vertex is always matched to its
    only neighbour, which is optimal) settles the common case in near-linear
    time; when it leaves a vertex unmatched the answer comes from networkx's
    exact maximum-cardinality matching."""
    ws = set(w)
    if len(ws) % 2:
        return False
    nb = {v: adj[v] & ws for v in ws}
    deg = {v: len(nb[v]) for v in ws}
    heap = [(d, v) for v, d in deg.items()]
    heapq.heapify(heap)
    free = set(ws)
    while heap:
        d, v = heapq.heappop(heap)
        if v not in free or d != deg[v]:
            continue
        cands = [u for u in nb[v] if u in free]
        if not cands:
            return _exact_matching(nb, ws)
        u = min(cands, key=lambda x: (deg[x], x))
        for x in (u, v):
            free.discard(x)
        for x in (u, v):
            for y in nb[x]:
                if y in free:
                    deg[y] -= 1
                    heapq.heappush(heap, (deg[y], y))
    return True


def _exact_matching(nb, ws) -> bool:
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(ws)
    g.add_edges_from((u, v) for u in ws for v in nb[u] if u < v)
    matching = nx.max_weight_matching(g, maxcardinality=True)
    return 2 * len(matching) == len(ws)


def verify_witness(adj, witness, gamma) -> str | None:
    """None when `witness` is a paired-dominating set of size `gamma` under
    the adjacency `adj` (a list of neighbour sets), else the reason."""
    w = set(witness)
    if len(w) != len(witness):
        return "witness repeats a vertex"
    if any(not 0 <= v < len(adj) for v in w):
        return "witness names a vertex out of range"
    if len(w) != gamma:
        return f"witness size {len(w)} != gamma_p {gamma}"
    for v in range(len(adj)):
        if v not in w and not adj[v] & w:
            return f"vertex {v} is not dominated"
    if not has_perfect_matching(adj, w):
        return "induced subgraph of the witness has no perfect matching"
    return None


def brute_gamma_p(adj):
    """Smallest paired-dominating set size by exhaustive search (small n),
    or None when there is none."""
    n = len(adj)
    for size in range(2, n + 1, 2):
        for d in itertools.combinations(range(n), size):
            ds = set(d)
            if all(v in ds or adj[v] & ds for v in range(n)) and _brute_match(adj, ds):
                return size
    return None


def _brute_match(adj, free: set) -> bool:
    if not free:
        return True
    v = min(free)
    for u in adj[v] & free:
        if _brute_match(adj, free - {u, v}):
            return True
    return False
