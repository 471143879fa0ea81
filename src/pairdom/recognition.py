"""Recognize distance-hereditary graphs and build a decomposition tree.

The construction prunes one vertex at a time — a pendant vertex, a true
twin, or a false twin — until one vertex remains, then replays the sequence
in reverse as leaf replacements. A graph with no prunable vertex at some
stage is not distance-hereditary.

Any pruning order replays into a tree whose expansion is the input graph,
so the first order found is used. The result is still checked against a hard
postcondition: expanding the returned tree reproduces the input edge set
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

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
    < false twin, then smallest anchor."""
    return _first_reduction({v: set(g.adjacency[v]) for v in range(g.n)})


def _first_reduction(adj: dict[int, set]) -> Optional[Reduction]:
    for u in sorted(adj):
        cands = _reductions_at(adj, u)
        if cands:
            return cands[0]
    return None


def _apply(adj: dict[int, set], r: Reduction) -> None:
    for w in adj[r.removed]:
        adj[w].discard(r.removed)
    del adj[r.removed]


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


def _decompose_adj(adj: dict[int, set]) -> DecompTree:
    """Connected component given as adjacency over original vertex ids,
    which the pruning consumes.

    Any pruning sequence replays into an exact tree: re-adding a removed
    pendant, true twin or false twin at its anchor's leaf as A, T or F
    restores exactly that vertex's edges (Bandelt & Mulder 1986), so the
    greedy order is always good enough.
    """
    seq: list[Reduction] = []
    while len(adj) > 1:
        red = _first_reduction(adj)
        if red is None:
            raise NotDistanceHereditary(adj.keys())
        _apply(adj, red)
        seq.append(red)
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
    # splice the component trees into one node array, each followed by the
    # ⊙ join with everything before it, so every subtree stays one block
    nodes: list[tuple] = []
    for comp in _components(g):
        adj = {v: {w for w in g.adjacency[v]} for v in comp}
        off = len(nodes)  # the root of everything before ends at off - 1
        for nd in _decompose_adj(adj).nodes:
            if nd[0] == dectree.LEAF:
                nodes.append(nd)
            else:
                nodes.append((nd[0], nd[1] + off, nd[2] + off))
        if off:
            nodes.append(dectree.internal(dectree.FALSE_TWIN, off - 1, len(nodes) - 1))
    result = DecompTree(tuple(nodes), len(nodes) - 1)

    expanded, _ = dectree.expand(result)
    if set(expanded.edges()) != set(g.edges()) or expanded.n != g.n:
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
