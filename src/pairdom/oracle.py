"""Exhaustive ground truth for everything the DP computes, at desk scale.

Every oracle_* function enumerates vertex subsets outright, ordered by size
so the first feasible subset is minimum; a backtracking search decides each
subset's matching. Size guards are hard errors: an oracle that silently
degrades is worse than none.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Sequence
from itertools import combinations

from .graph import Graph, is_dominating
from .record import Record

INF = math.inf

MAX_N_GAMMA_P = 20
MAX_N_DK = 16
MAX_N_NODE_STATE = 14
MAX_N_IS_DH = 10


class OracleSizeError(ValueError):
    """Instance exceeds the brute-force size guard."""


def _guard(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise OracleSizeError(f"{what} limited to n <= {limit}, got n = {n}")


class OracleNodeReport(Record):
    __slots__ = ("gamma_k", "min", "alpha", "beta", "mty_ts", "mty_pr", "gamma_p")

    def __init__(self, gamma_k: tuple[int | None, ...], min: int, alpha: int,
                 beta: int, mty_ts: bool, mty_pr: bool, gamma_p: float):
        self.gamma_k = gamma_k  # indexed 0..|ts|
        self.min = min
        self.alpha = alpha
        self.beta = beta
        self.mty_ts = mty_ts
        self.mty_pr = mty_pr
        self.gamma_p = gamma_p


def has_perfect_matching_induced(g: Graph, s: Iterable[int]) -> bool:
    """True iff the subgraph induced by `s` has a perfect matching.

    Backtracking search on an explicit stack: the least unmatched vertex is
    matched to each unmatched neighbour in turn. Exponential in the worst
    case, so intended for desk-scale sets (|s| <= ~20), but a set that the
    first choices already match (a path, say) is settled at any size.
    """
    order = sorted(set(s))
    if len(order) % 2 == 1:
        return False
    free = set(order)
    adjacency = g.adjacency
    stack: list[list[int]] = []  # per matched vertex: [its index in order, neighbours tried]
    pos = 0
    while True:
        while pos < len(order) and order[pos] not in free:
            pos += 1
        if pos == len(order):
            return True
        free.discard(order[pos])
        stack.append([pos, 0])
        while True:  # match the top vertex to its next free neighbour, or backtrack
            top = stack[-1]
            v_pos, j = top
            nbrs = adjacency[order[v_pos]]
            if j:
                free.add(nbrs[j - 1])
            while j < len(nbrs) and nbrs[j] not in free:
                j += 1
            if j < len(nbrs):
                free.discard(nbrs[j])
                top[1] = j + 1
                pos = v_pos + 1
                break
            free.add(order[v_pos])
            stack.pop()
            if not stack:
                return False


def is_paired_dominating(g: Graph, d: Iterable[int]) -> bool:
    dlist = sorted(set(d))
    return is_dominating(g, dlist, range(g.n)) and has_perfect_matching_induced(g, dlist)


def oracle_gamma_p(g: Graph) -> float:
    _guard(g.n, MAX_N_GAMMA_P, "oracle_gamma_p")
    verts = range(g.n)
    match = functools.cache(functools.partial(has_perfect_matching_induced, g))
    for size in range(0, g.n + 1, 2):  # the empty set dominates a graph without vertices
        for d in combinations(verts, size):
            if is_dominating(g, d, verts) and match(frozenset(d)):
                return size
    return INF


def _dk_feasible(g: Graph, s: tuple, ts: frozenset, k: int, match) -> bool:
    # match: a perfect-matching check cached by frozenset, shared within one oracle call
    in_ts = [v for v in s if v in ts]
    if len(in_ts) < k:
        return False
    sset = set(s)
    return any(match(frozenset(sset.difference(x))) for x in combinations(in_ts, k))


def oracle_dk(g: Graph, ts, k: int) -> int | None:
    tset = frozenset(ts)
    _guard(g.n, MAX_N_DK, "oracle_dk")
    if not tset <= set(range(g.n)):
        raise ValueError(f"twin set {sorted(tset)} not within 0..{g.n - 1}")
    if not (0 <= k <= len(tset)):
        raise ValueError(f"k={k} out of range [0, {len(tset)}]")
    rest = [v for v in range(g.n) if v not in tset]
    match = functools.cache(functools.partial(has_perfect_matching_induced, g))
    for size in range(k, g.n + 1, 2):
        for s in combinations(range(g.n), size):
            if is_dominating(g, s, rest) and _dk_feasible(g, s, tset, k, match):
                return size
    return None


def oracle_node_state(g: Graph, ts) -> OracleNodeReport:
    _guard(g.n, MAX_N_NODE_STATE, "oracle_node_state")
    tset = frozenset(ts)
    if not tset <= set(range(g.n)):
        raise ValueError(f"twin set {sorted(tset)} not within 0..{g.n - 1}")
    rest = [v for v in range(g.n) if v not in tset]
    match = functools.cache(functools.partial(has_perfect_matching_induced, g))

    # one sweep by increasing size fills the whole gamma_k table
    table: list[int | None] = [None] * (len(tset) + 1)
    for size in range(0, g.n + 1):
        open_ks = [k for k in range(len(tset) + 1)
                   if table[k] is None and k <= size and (size - k) % 2 == 0]
        if not open_ks:
            if all(v is not None for v in table):
                break
            continue
        for s in combinations(range(g.n), size):
            if not is_dominating(g, s, rest):
                continue
            for k in open_ks:
                if table[k] is None and _dk_feasible(g, s, tset, k, match):
                    table[k] = size
            open_ks = [k for k in open_ks if table[k] is None]
            if not open_ks:
                break

    defined = [v for v in table if v is not None]
    if not defined:
        raise ValueError("gamma_k undefined for every k; not a tree-expanded case")
    mn = min(defined)
    attain = [k for k, v in enumerate(table) if v == mn]

    # flags quantify over *all* minimum k=0 sets
    mty_ts = True
    mty_pr = True
    g0 = table[0]
    if g0 is not None:
        for s in combinations(range(g.n), g0):
            if not (is_dominating(g, s, rest) and match(frozenset(s))):
                continue
            if any(v in tset for v in s):
                mty_ts = False
            if is_dominating(g, s, range(g.n)):
                mty_pr = False
            if not mty_ts and not mty_pr:
                break

    return OracleNodeReport(
        gamma_k=tuple(table),
        min=mn,
        alpha=attain[0],
        beta=attain[-1],
        mty_ts=mty_ts,
        mty_pr=mty_pr,
        gamma_p=oracle_gamma_p(g),
    )


def _bfs_dist(adj: Sequence[Sequence[int]], src: int, inside: frozenset) -> dict[int, int]:
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w in inside and w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def oracle_is_dh(g: Graph) -> bool:
    """Every connected induced subgraph must preserve pairwise distances."""
    _guard(g.n, MAX_N_IS_DH, "oracle_is_dh")
    full = frozenset(range(g.n))
    base = {v: _bfs_dist(g.adjacency, v, full) for v in range(g.n)}
    for size in range(2, g.n + 1):
        for sub in combinations(range(g.n), size):
            inside = frozenset(sub)
            for v in sub:
                d = _bfs_dist(g.adjacency, v, inside)
                if len(d) < size:
                    break  # disconnected: not constrained
                if any(d[u] != base[v][u] for u in sub):
                    return False
    return True
