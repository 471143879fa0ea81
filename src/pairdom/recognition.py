"""Recognize distance-hereditary graphs and build a decomposition tree.

A graph is distance-hereditary exactly when it prunes down to one vertex
by repeatedly removing a pendant vertex, a true twin or a false twin
(Bandelt & Mulder 1986), and any such removal keeps it distance-hereditary.
Vertices without neighbours have equal (empty) open neighbourhoods, so
they are false twins: a disconnected graph needs no special case, as the
leftover vertex of each pruned component is a false twin of the others.
`decompose` prunes the whole graph in one worklist pass. Removing u with
anchor w merges u's subtree into w's under a node of the removal's label,
and `dectree._from_merges` lays the merges out. Any pruning order gives an
exact tree, so the first removal found is taken.

Twins are found by hashing neighbourhoods, the hashing form of the linear
pruning of Hammer & Maffray (1990). Each vertex v gets a random 64-bit key
from a fixed seed, so the output is deterministic. h(v) is the sum of the
keys of v's neighbours: vertices with equal open neighbourhoods (false
twins) share h(v), and vertices with equal closed neighbourhoods (true
twins) share h(v) + key(v). The hash only proposes a twin; the actual
neighbour sets decide. Removing a vertex u costs O(deg u): each neighbour's
hash drops by key(u) and the neighbour goes back on the worklist. A pass
therefore takes O(n + m) expected time. When the worklist runs dry with
more than one vertex left, no remaining vertex is a pendant or a twin, and
the graph is not distance-hereditary. The stuck remnant is the vertices
that still have neighbours: at most one vertex without any can be left,
and it is not stuck.

The result is still checked against a hard postcondition: expanding the
returned tree reproduces the input adjacency exactly.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Sequence

from . import dectree
from .dectree import DecompTree
from .graph import Graph


class NotDistanceHereditary(ValueError):
    """Carries the vertex set of the remnant that admits no pruning step."""

    def __init__(self, remnant):
        self.remnant = tuple(sorted(remnant))
        super().__init__(
            f"graph is not distance-hereditary; stuck remnant {self.remnant}")


class DecomposeError(RuntimeError):
    """The built tree failed the round-trip postcondition: implementation bug."""


# fixed, so that the same graph always gets the same tree
_KEY_SEED = 0x9E3779B97F4A7C15


def _unfile(buckets: dict[int, list], hv: int, v: int) -> None:
    filed = buckets[hv]
    if len(filed) == 1:
        del buckets[hv]
    else:
        filed.remove(v)


def _decompose_adj(adj: dict[int, set], key: Sequence[int]) -> DecompTree:
    """Prune the graph given as adjacency sets over the vertex ids 0..n-1
    (which the pruning consumes) in one worklist pass.

    Every remaining vertex is either on the worklist or filed in the buckets
    under its current hashes, and no two filed vertices are twins. Removing
    u changes only the neighbourhoods of u's neighbours, so only they are
    unfiled, rehashed and put back on the worklist. When the worklist runs
    dry, no remaining vertex is a pendant or a twin.
    """
    h = {v: sum(key[w] for w in nv) for v, nv in adj.items()}
    false_bk: dict[int, list] = {}  # h(v) -> filed vertices
    true_bk: dict[int, list] = {}   # h(v) + key(v) -> filed vertices
    work = list(reversed(adj))      # popped smallest id first
    queued = set(work)
    tags, absorbed, keepers = bytearray(), array("i"), array("i")
    while len(adj) > 1:
        if not work:
            raise NotDistanceHereditary(v for v, nv in adj.items() if nv)
        u = work.pop()
        queued.remove(u)
        nu, hu, ku = adj[u], h[u], key[u]
        tag = None
        if len(nu) == 1:
            tag, (w,) = dectree.ATTACH_TAG, nu
        else:
            # a bucket hit only proposes a twin; the actual sets decide.
            # Adjacent u and w are true twins exactly when their open
            # neighbourhoods differ by u and w alone.
            for w in true_bk.get(hu + ku, ()):
                if nu ^ adj[w] == {u, w}:
                    tag = dectree.TRUE_TWIN_TAG
                    break
            else:
                for w in false_bk.get(hu, ()):
                    if adj[w] == nu:
                        tag = dectree.FALSE_TWIN_TAG
                        break
        if tag is None:
            false_bk.setdefault(hu, []).append(u)
            true_bk.setdefault(hu + ku, []).append(u)
            continue
        tags.append(tag)
        absorbed.append(u)
        keepers.append(w)
        del adj[u]
        for w in nu:
            adj[w].remove(u)
            if w not in queued:
                _unfile(false_bk, h[w], w)
                _unfile(true_bk, h[w] + key[w], w)
                queued.add(w)
                work.append(w)
            h[w] -= ku
    return dectree._from_merges(len(key), tags, absorbed, keepers)


def decompose(g: Graph) -> DecompTree:
    """Tree whose expansion is edge-identical to g, or NotDistanceHereditary.

    The components of a disconnected input end as false twins of each
    other, so their subtrees are joined by false-twin nodes (no edges
    added) in the order the components finish pruning.
    """
    if g.n == 0:
        raise ValueError("cannot decompose the empty graph")
    rng = random.Random(_KEY_SEED)
    key = [rng.getrandbits(64) for _ in range(g.n)]
    result = _decompose_adj({v: set(nv) for v, nv in enumerate(g.adjacency)}, key)

    expanded, _ = dectree.expand(result)
    # both adjacencies are sorted tuples of distinct neighbours, one per vertex
    if expanded.adjacency != g.adjacency:
        raise DecomposeError("round-trip postcondition failed")  # pragma: no cover
    return result


def is_distance_hereditary(g: Graph) -> bool:
    if g.n == 0:
        return True
    try:
        decompose(g)
        return True
    except NotDistanceHereditary:
        return False
