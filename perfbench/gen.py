"""Seeded instance generator, written apart from pairdom.

It never calls pairdom's own generator, serializer or expansion, so a change
to those cannot change the inputs or the expected answers. A tree is a list of
nodes in post-order (children before parents, root last): a leaf is
("L", vertex) and an internal node is (op, left, right) with op one of
"T" (true twin), "F" (false twin) or "A" (attachment, left keeps the twin set).
"""

from __future__ import annotations

import random

LEAF = "L"


class Tree:
    def __init__(self) -> None:
        self.nodes: list[tuple] = []

    def leaf(self, v: int) -> int:
        self.nodes.append((LEAF, v))
        return len(self.nodes) - 1

    def join(self, op: str, left: int, right: int) -> int:
        self.nodes.append((op, left, right))
        return len(self.nodes) - 1

    @property
    def n(self) -> int:
        return sum(1 for nd in self.nodes if nd[0] == LEAF)


def _pick(rng: random.Random, roots: list[int]) -> int:
    i = rng.randrange(len(roots))
    roots[i], roots[-1] = roots[-1], roots[i]
    return roots.pop()


def merge_random(t: Tree, roots: list[int], rng: random.Random,
                 weights: tuple[float, float, float]) -> int:
    """Join random pairs of subtrees until one is left; labels drawn with
    `weights` for (T, F, A). Every component of a subtree meets its twin set,
    so making the last join T or A makes the expansion connected. Random
    merging keeps depth near logarithmic."""
    labels = ("T", "F", "A")
    while len(roots) > 1:
        a, b = _pick(rng, roots), _pick(rng, roots)
        if roots:
            op = rng.choices(labels, weights=weights)[0]
        else:
            op = rng.choice(("T", "A"))
        roots.append(t.join(op, a, b))
    return roots[0]


def random_tree(n: int, rng: random.Random, weights) -> Tree:
    """Plain random tree on n leaves with shuffled vertex ids."""
    ids = list(range(n))
    rng.shuffle(ids)
    t = Tree()
    merge_random(t, [t.leaf(v) for v in ids], rng, weights)
    return t


def planted_tree(n0: int, rng: random.Random, weights) -> Tree:
    """Random tree over n0 base vertices in which every base leaf v becomes
    A(v, A(a_v, b_v)): a pendant path v-a_v-b_v hangs from v and the twin set
    stays {v}. Each b_v forces two of {v, a_v, b_v} into any paired-dominating
    set and {v, a_v} over all v is one, so gamma_p = 2 * n0 exactly."""
    ids = list(range(3 * n0))
    rng.shuffle(ids)
    t = Tree()
    roots = []
    for i in range(n0):
        v, a, b = ids[3 * i: 3 * i + 3]
        tail = t.join("A", t.leaf(a), t.leaf(b))
        roots.append(t.join("A", t.leaf(v), tail))
    merge_random(t, roots, rng, weights)
    return t


def path_caterpillar(n: int, rng: random.Random | None) -> Tree:
    """P_n as A(v_i, tree of v_0..v_{i-1}); nests n deep on the right.
    Vertex ids are shuffled by rng, or in order when rng is None."""
    ids = list(range(n))
    if rng is not None:
        rng.shuffle(ids)
    t = Tree()
    cur = t.leaf(ids[0])
    for v in ids[1:]:
        cur = t.join("A", t.leaf(v), cur)
    return t


def star_caterpillar(n: int, rng: random.Random | None) -> Tree:
    """K_{1,n-1} as A(...A(A(c, l_1), l_2)..., l_{n-1}); nests n deep on the
    left. Vertex ids are shuffled by rng, or in order when rng is None."""
    ids = list(range(n))
    if rng is not None:
        rng.shuffle(ids)
    t = Tree()
    cur = t.leaf(ids[0])
    for v in ids[1:]:
        cur = t.join("A", cur, t.leaf(v))
    return t


def clique_caterpillar(n: int, rng: random.Random) -> Tree:
    """K_n as a chain of true-twin joins; nests n deep on the left."""
    ids = list(range(n))
    rng.shuffle(ids)
    t = Tree()
    cur = t.leaf(ids[0])
    for v in ids[1:]:
        cur = t.join("T", cur, t.leaf(v))
    return t


def clique_tree(n: int, rng: random.Random) -> Tree:
    """K_n as a random shallow tree of true-twin joins."""
    return random_tree(n, rng, (1.0, 0.0, 0.0))


def stats(t: Tree) -> dict:
    """n, m and the number of isolated vertices of the expansion, in O(n).

    m sums |ts_l| * |ts_r| over T and A nodes. A twin-set vertex stays
    isolated only through F joins; a T or A join gives every twin-set vertex
    of both children a neighbour, so only vertices that left the twin set
    while still isolated stay isolated for good."""
    ts = [0] * len(t.nodes)
    iso_ts = [0] * len(t.nodes)
    iso_out = [0] * len(t.nodes)
    n = m = 0
    for i, nd in enumerate(t.nodes):
        if nd[0] == LEAF:
            ts[i], iso_ts[i] = 1, 1
            n += 1
            continue
        op, l, r = nd
        iso_out[i] = iso_out[l] + iso_out[r]
        if op == "F":
            ts[i] = ts[l] + ts[r]
            iso_ts[i] = iso_ts[l] + iso_ts[r]
        else:
            m += ts[l] * ts[r]
            ts[i] = ts[l] if op == "A" else ts[l] + ts[r]
    root = len(t.nodes) - 1
    return {"n": n, "m": m, "isolated": iso_ts[root] + iso_out[root]}


def edges(t: Tree) -> list[tuple[int, int]]:
    """Edge list of the expansion, from twin sets kept as lists."""
    twin: list = [None] * len(t.nodes)
    out: list[tuple[int, int]] = []
    for i, nd in enumerate(t.nodes):
        if nd[0] == LEAF:
            twin[i] = [nd[1]]
            continue
        op, l, r = nd
        tl, tr = twin[l], twin[r]
        twin[l] = twin[r] = None
        if op != "F":
            out.extend((u, v) for u in tl for v in tr)
        twin[i] = tl if op == "A" else tl + tr
    return out


def adjacency(n: int, edge_list) -> list[set]:
    adj: list[set] = [set() for _ in range(n)]
    for u, v in edge_list:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def tree_json(t: Tree) -> str:
    """The documented nested tree JSON, in the byte layout pairdom's own
    writer uses ('{"op": "T", "l": ..., "r": ...}', '{"leaf": 3}'). Built by
    an explicit stack, so caterpillars of any depth cost linear time."""
    out: list[str] = []
    stack: list = [len(t.nodes) - 1]
    nodes = t.nodes
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        nd = nodes[item]
        if nd[0] == LEAF:
            out.append('{"leaf": %d}' % nd[1])
        else:
            out.append('{"op": "%s", "l": ' % nd[0])
            stack.append("}")
            stack.append(nd[2])
            stack.append(', "r": ')
            stack.append(nd[1])
    return "".join(out) + "\n"


def graph_text(n: int, edge_list, rng: random.Random) -> str:
    """The documented edge-list format, edges in a seeded order."""
    order = list(edge_list)
    rng.shuffle(order)
    lines = [f"{n} {len(order)}"]
    lines.extend(f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in order)
    return "\n".join(lines) + "\n"


# Forbidden induced subgraphs of distance-hereditary graphs, on local ids.
FORBIDDEN = {
    "hole": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    "house": (5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)]),
    "gem": (5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2), (4, 3)]),
    "domino": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]),
}


def plant_forbidden(n: int, edge_list, kind: str,
                    rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Add a forbidden subgraph on new vertices, tied to the DH graph by one
    edge from its vertex 0 to a random old vertex. The new vertices' induced
    subgraph is unchanged, so the result is not distance-hereditary. Vertex
    ids are shuffled afterwards."""
    k, local = FORBIDDEN[kind]
    out = list(edge_list)
    out.extend((n + a, n + b) for a, b in local)
    out.append((n, rng.randrange(n)))
    total = n + k
    perm = list(range(total))
    rng.shuffle(perm)
    return total, [(perm[u], perm[v]) for u, v in out]
