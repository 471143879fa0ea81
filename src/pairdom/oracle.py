"""Exhaustive ground truth for everything the DP computes, at desk scale.

Every function enumerates vertex subsets outright, ordered by size so the
first feasible subset is minimum. Size guards are hard errors: an oracle
that silently degrades is worse than none.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import combinations

from .graph import Graph, has_perfect_matching_induced, is_dominating
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


class _MatchMemo:
    """Perfect-matching checks keyed by vertex set, shared within one call."""

    def __init__(self, g: Graph):
        self.g = g
        self.memo: dict[frozenset, bool] = {}

    def __call__(self, s) -> bool:
        key = frozenset(s)
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = has_perfect_matching_induced(self.g, key)
        return hit


def oracle_gamma_p(g: Graph) -> float:
    _guard(g.n, MAX_N_GAMMA_P, "oracle_gamma_p")
    verts = range(g.n)
    match = _MatchMemo(g)
    for size in range(0, g.n + 1, 2):  # the empty set dominates a graph without vertices
        for d in combinations(verts, size):
            if is_dominating(g, d, verts) and match(d):
                return size
    return INF


def _dk_feasible(g: Graph, s: tuple, ts: frozenset, k: int, match) -> bool:
    in_ts = [v for v in s if v in ts]
    if len(in_ts) < k:
        return False
    sset = set(s)
    return any(match(sset - set(x)) for x in combinations(in_ts, k))


def oracle_dk(g: Graph, ts, k: int) -> int | None:
    tset = frozenset(ts)
    _guard(g.n, MAX_N_DK, "oracle_dk")
    if not tset <= set(range(g.n)):
        raise ValueError(f"twin set {sorted(tset)} not within 0..{g.n - 1}")
    if not (0 <= k <= len(tset)):
        raise ValueError(f"k={k} out of range [0, {len(tset)}]")
    rest = [v for v in range(g.n) if v not in tset]
    match = _MatchMemo(g)
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
    match = _MatchMemo(g)

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
            if not (is_dominating(g, s, rest) and match(s)):
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
