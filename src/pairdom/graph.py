"""Undirected simple graphs, their text format and the domination predicate.

Vertices are dense 0-based integers. All adjacency lists are kept sorted so
that every operation downstream is deterministic.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import islice

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
