"""Undirected simple graphs and the domination / matching predicates.

Vertices are dense 0-based integers. All adjacency lists are kept sorted so
that every operation downstream is deterministic.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable

from .record import Record


class GraphError(ValueError):
    """Raised for malformed graph input (self-loops, out-of-range ids)."""


class Graph(Record):
    __slots__ = ("n", "m", "adjacency")

    def __init__(self, n: int, m: int, adjacency: tuple[tuple[int, ...], ...]):
        self.n = n
        self.m = m
        self.adjacency = adjacency

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph from (u, v) pairs, checked and appended to one
    list per vertex as they come; duplicate and reversed duplicate edges
    collapse when each list becomes a sorted tuple of distinct neighbours."""
    if n < 0:
        raise GraphError(f"negative vertex count {n}")
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        adj[u].append(v)
        adj[v].append(u)
    adjacency = tuple(tuple(sorted(set(a))) for a in adj)
    return Graph(n, sum(map(len, adjacency)) // 2, adjacency)


def is_dominating(g: Graph, d: Iterable[int], targets: Iterable[int]) -> bool:
    """True iff every target is in d or has a neighbor in d."""
    dset = set(d)
    for t in targets:
        if t in dset:
            continue
        if not any(w in dset for w in g.adjacency[t]):
            return False
    return True


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


def parse_graph_text(text: str) -> Graph:
    """Parse the "n m" + edge-list text format. '#' lines are comments.
    Edge lines reach `build_graph` one at a time: the first faulty one is reported."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise GraphError("empty graph file")
    try:
        n, m = (int(x) for x in lines[0].split())
    except ValueError as exc:
        raise GraphError(f"bad header line {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise GraphError(f"expected {m} edge lines, found {len(lines) - 1}")
    g = build_graph(n, map(_edge, islice(lines, 1, None)))
    if g.m != m:
        raise GraphError(f"header claims {m} edges but {g.m} are distinct")
    return g


def _edge(ln: str) -> tuple[int, int]:
    try:
        u, v = ln.split()
        return int(u), int(v)
    except ValueError as exc:
        raise GraphError(f"bad edge line {ln!r}") from exc


def format_graph_text(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
