"""Recognize distance-hereditary graphs and build a decomposition tree.

A connected graph is distance-hereditary exactly when it prunes down to one
vertex by repeatedly removing a pendant vertex, a true twin or a false twin
(Bandelt & Mulder 1986), and any such removal keeps it distance-hereditary.
`decompose` prunes each component in one worklist pass and replays the
removals in reverse as leaf replacements. Any pruning order replays into an
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
the graph is not distance-hereditary.

The result is still checked against a hard postcondition: expanding the
returned tree reproduces the input adjacency exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from . import dectree
from .dectree import DecompTree
from .graph import Graph


class ReductionKind(Enum):
    PENDANT = "pendant"
    TRUE_TWIN = "true_twin"
    FALSE_TWIN = "false_twin"


@dataclass(frozen=True)
class Reduction:
    kind: ReductionKind
    removed: int
    anchor: int


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


def _reductions_at(adj: dict[int, set], u: int):
    """All valid reductions removing u, in kind-then-anchor order."""
    nu = adj[u]
    out: list[Reduction] = []
    if len(nu) == 1:
        out.append(Reduction(ReductionKind.PENDANT, u, next(iter(nu))))
    closed_u = nu | {u}
    for v in sorted(adj):
        if v == u:
            continue
        if v in nu:
            if (adj[v] | {v}) == closed_u:
                out.append(Reduction(ReductionKind.TRUE_TWIN, u, v))
        elif adj[v] == nu:
            out.append(Reduction(ReductionKind.FALSE_TWIN, u, v))
    out.sort(key=lambda r: (_KIND_ORDER[r.kind], r.anchor))
    return out


_KIND_ORDER = {ReductionKind.PENDANT: 0,
               ReductionKind.TRUE_TWIN: 1,
               ReductionKind.FALSE_TWIN: 2}


def find_reduction(g: Graph) -> Optional[Reduction]:
    """Deterministic choice: smallest removed id, then pendant < true twin
    < false twin, then smallest anchor.

    A scan over all vertex pairs, kept as the reference the tests check
    one pruning step against; `decompose` does not use it.
    """
    adj = {v: set(g.adjacency[v]) for v in range(g.n)}
    for u in range(g.n):
        cands = _reductions_at(adj, u)
        if cands:
            return cands[0]
    return None


def _build_tree(last: int, reductions: list[Reduction]) -> DecompTree:
    """Replay removals in reverse, replacing the anchor's current leaf."""
    slot: list = ["leaf", last]
    slots: dict[int, list] = {last: slot}
    for r in reversed(reductions):
        anchor_slot = slots[r.anchor]
        new_anchor = ["leaf", r.anchor]
        new_leaf = ["leaf", r.removed]
        if r.kind == ReductionKind.PENDANT:
            label = dectree.ATTACH
        elif r.kind == ReductionKind.TRUE_TWIN:
            label = dectree.TRUE_TWIN
        else:
            label = dectree.FALSE_TWIN
        anchor_slot[:] = [label, new_anchor, new_leaf]
        slots[r.anchor] = new_anchor
        slots[r.removed] = new_leaf

    nodes: list[tuple] = []
    stack = [(slot, False)]
    done: dict[int, int] = {}
    while stack:
        cur, expanded = stack.pop()
        if cur[0] == "leaf":
            nodes.append(dectree.leaf(cur[1]))
            done[id(cur)] = len(nodes) - 1
        elif expanded:
            nodes.append(dectree.internal(cur[0], done[id(cur[1])], done[id(cur[2])]))
            done[id(cur)] = len(nodes) - 1
        else:
            stack.append((cur, True))
            stack.append((cur[2], False))
            stack.append((cur[1], False))
    return DecompTree(tuple(nodes), len(nodes) - 1)


def _unfile(buckets: dict[int, list], hv: int, v: int) -> None:
    filed = buckets[hv]
    if len(filed) == 1:
        del buckets[hv]
    else:
        filed.remove(v)


def _decompose_adj(adj: dict[int, set], key: Sequence[int]) -> DecompTree:
    """Prune one connected component, given as adjacency sets over original
    vertex ids (which the pruning consumes), in one worklist pass.

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
    seq: list[Reduction] = []
    while len(adj) > 1:
        if not work:
            raise NotDistanceHereditary(adj.keys())
        u = work.pop()
        queued.remove(u)
        nu, hu, ku = adj[u], h[u], key[u]
        red = None
        if len(nu) == 1:
            red = Reduction(ReductionKind.PENDANT, u, next(iter(nu)))
        else:
            # a bucket hit only proposes a twin; the actual sets decide
            for w in true_bk.get(hu + ku, ()):
                if adj[w] | {w} == nu | {u}:
                    red = Reduction(ReductionKind.TRUE_TWIN, u, w)
                    break
            else:
                for w in false_bk.get(hu, ()):
                    if adj[w] == nu:
                        red = Reduction(ReductionKind.FALSE_TWIN, u, w)
                        break
        if red is None:
            false_bk.setdefault(hu, []).append(u)
            true_bk.setdefault(hu + ku, []).append(u)
            continue
        seq.append(red)
        del adj[u]
        for w in nu:
            adj[w].remove(u)
            if w not in queued:
                _unfile(false_bk, h[w], w)
                _unfile(true_bk, h[w] + key[w], w)
                queued.add(w)
                work.append(w)
            h[w] -= ku
    (last,) = adj
    return _build_tree(last, seq)


def _components(g: Graph) -> list[list[int]]:
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp, stack = [], [s]
        seen[s] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in g.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def decompose(g: Graph) -> DecompTree:
    """Tree whose expansion is edge-identical to g, or NotDistanceHereditary.

    Disconnected inputs get one subtree per component, joined left-to-right
    with false-twin nodes (no edges added).
    """
    if g.n == 0:
        raise ValueError("cannot decompose the empty graph")
    rng = random.Random(_KEY_SEED)
    key = [rng.getrandbits(64) for _ in range(g.n)]
    # splice the component trees into one node array, each followed by the
    # ⊙ join with everything before it, so every subtree stays one block
    nodes: list[tuple] = []
    for comp in _components(g):
        adj = {v: set(g.adjacency[v]) for v in comp}
        off = len(nodes)  # the root of everything before ends at off - 1
        for nd in _decompose_adj(adj, key).nodes:
            if nd[0] == dectree.LEAF:
                nodes.append(nd)
            else:
                nodes.append((nd[0], nd[1] + off, nd[2] + off))
        if off:
            nodes.append(dectree.internal(dectree.FALSE_TWIN, off - 1, len(nodes) - 1))
    result = DecompTree(tuple(nodes), len(nodes) - 1)

    expanded, _ = dectree.expand(result)
    # both adjacencies come from build_graph: sorted tuples, one per vertex
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
