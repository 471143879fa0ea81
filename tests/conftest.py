import json
from array import array
from collections import namedtuple
from pathlib import Path

import pytest

from pairdom import dectree, dp
from pairdom.graph import build_graph
from pairdom.witness import reconstruct_witness

DATA = Path(__file__).parent / "data"

# T, F, A weights for dectree.generate: attachment-heavy, false-twin-heavy,
# true-twin-heavy, no true twins, no false twins
LABEL_MIXES = [(1, 1, 4), (1, 3, 1), (3, 1, 1), (0, 1, 1), (1, 0, 1)]

# The 7-vertex worked example. The 1-based vertex names v1..v7 of the usual
# presentation map to 0-based ids 0..6 throughout.
EX7_EDGES = [
    (0, 1), (0, 2),
    (3, 5), (3, 6), (4, 5), (4, 6), (3, 4),
    (0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4),
]


@pytest.fixture(scope="session")
def ex7_graph():
    return build_graph(7, EX7_EDGES)


def _ex7_tree_obj(root_op):
    return {
        "op": root_op,
        "l": {"op": "T", "l": {"leaf": 0},
              "r": {"op": "F", "l": {"leaf": 1}, "r": {"leaf": 2}}},
        "r": {"op": "A", "l": {"op": "T", "l": {"leaf": 3}, "r": {"leaf": 4}},
              "r": {"op": "F", "l": {"leaf": 5}, "r": {"leaf": 6}}},
    }


@pytest.fixture(scope="session")
def ex7_tree():
    """Root as a true twin node; the twin set is {0,1,2,3,4}."""
    return dectree.loads(json.dumps(_ex7_tree_obj("T")))


@pytest.fixture(scope="session")
def ex7_tree_attach_root():
    """Same graph with an attachment root; the twin set shrinks to {0,1,2}."""
    return dectree.loads(json.dumps(_ex7_tree_obj("A")))


@pytest.fixture(scope="session")
def data_dir():
    return DATA


def leaf(vertex):
    """A leaf as `DecompTree.nodes` and `dectree.from_nodes` show it."""
    return (dectree.LEAF, vertex)


def has_edge(g, u, v):
    return v in g.adjacency[u]


# a pruning step is (label byte of the node its merge creates, removed, anchor)
_KIND_ORDER = {dectree.ATTACH_TAG: 0,
               dectree.TRUE_TWIN_TAG: 1,
               dectree.FALSE_TWIN_TAG: 2}


def _reductions_at(adj, u):
    """All valid pruning steps removing u, in kind-then-anchor order."""
    nu = adj[u]
    out = []
    if len(nu) == 1:
        out.append((dectree.ATTACH_TAG, u, next(iter(nu))))
    closed_u = nu | {u}
    for v in sorted(adj):
        if v == u:
            continue
        if v in nu:
            if (adj[v] | {v}) == closed_u:
                out.append((dectree.TRUE_TWIN_TAG, u, v))
        elif adj[v] == nu:
            out.append((dectree.FALSE_TWIN_TAG, u, v))
    out.sort(key=lambda step: (_KIND_ORDER[step[0]], step[2]))
    return out


def find_reduction(g):
    """Deterministic choice of a pruning step: smallest removed id, then
    pendant < true twin < false twin, then smallest anchor. A scan over all
    vertex pairs, the reference one pruning step of `recognition.decompose`
    is checked against."""
    adj = {v: set(g.adjacency[v]) for v in range(g.n)}
    for u in range(g.n):
        cands = _reductions_at(adj, u)
        if cands:
            return cands[0]
    return None


def is_leaf(t, node):
    return t.labels[node] == dectree.LEAF_TAG


def label(t, node):
    return dectree.LEAF if is_leaf(t, node) else chr(t.labels[node])


def children(t, node):
    lefts, rights = dectree.children(t.labels)
    return lefts[node], rights[node]


def post_order(labels, lefts, rights, root):
    """The checked tree below `root` of node columns in any order, a leaf
    keeping its vertex in `lefts`: a layout reference independent of
    `dectree`'s builders. Popping node, right, left visits the nodes in
    reverse post-order."""
    out, vertices = bytearray(), array("i")
    stack = [root]
    while stack:
        node = stack.pop()
        out.append(labels[node])
        if labels[node] == dectree.LEAF_TAG:
            vertices.append(lefts[node])
        else:
            stack += (lefts[node], rights[node])
    out.reverse()
    vertices.reverse()
    return dectree.DecompTree(bytes(out), vertices)


def leaf_vertex(t, node):
    return t.nodes[node][1]


def twin_set(t, node):
    """Twin set of the subtree rooted at `node`, from the node tuples alone:
    a leaf's vertex, an A node's left child's set, or a T or F node's union
    of both children's sets. A walk down from `node` with a stack."""
    nodes = t.nodes
    out, stack = [], [node]
    while stack:
        nd = nodes[stack.pop()]
        if nd[0] == dectree.LEAF:
            out.append(nd[1])
        elif nd[0] == dectree.ATTACH:
            stack.append(nd[1])
        else:
            stack += nd[1:]
    return tuple(sorted(out))


def node_state(min, alpha, beta, ts_size, gamma_p, mty_ts, mty_pr):
    """A solver state, the plain tuple `dp` keeps, from its named fields."""
    return (min, alpha, beta, ts_size, gamma_p, mty_ts, mty_pr)


_COMBINE = {
    dectree.TRUE_TWIN_TAG: dp.combine_true_twin,
    dectree.FALSE_TWIN_TAG: dp.combine_false_twin,
    dectree.ATTACH_TAG: dp.combine_attach,
}


def reference_states(t):
    """Per-node solver states from a plain loop that combines every internal
    node from its children's states, with no memo."""
    states = []
    for tag, left, right in zip(t.labels, *dectree.children(t.labels)):
        if tag == dectree.LEAF_TAG:
            states.append(dp.leaf_state())
        else:
            states.append(_COMBINE[tag](states[left], states[right]))
    return states


Solved = namedtuple("Solved", "gamma_p states witness")


def solve_with_witness(t):
    """gamma_p, the per-node states and the witness of a tree, the witness
    None when gamma_p is infinite."""
    res = dp.solve(t)
    witness = None if res.gamma_p == dp.INF else reconstruct_witness(t, res.states)
    return Solved(res.gamma_p, res.states, witness)


def caterpillar(n, shape):
    """A tree of n leaves joined one at a time onto a spine, in post-order.
    "star" is A(spine, v), K_{1,n-1}, and "clique" is T(spine, v), K_n, with
    the spine on the left; "path" is A(v, spine), P_n, with the spine on the
    right, so all its leaves come first. Each state differs from its
    child's on a path or a clique; a star's states take at most two values."""
    if shape == "path":
        nodes = [leaf(v) for v in range(n)]
        spine = n - 1
        for v in range(n - 2, -1, -1):
            nodes.append(("A", v, spine))
            spine = len(nodes) - 1
    else:
        label = {"star": "A", "clique": "T"}[shape]
        nodes = [leaf(0)]
        for v in range(1, n):
            nodes += [leaf(v), (label, len(nodes) - 1, len(nodes))]
    return dectree.from_nodes(nodes, len(nodes) - 1)


def induced_subgraph(g, vertices):
    """Subgraph induced by `vertices`, relabeled to 0..k-1.

    Returns the subgraph and the old-id -> new-id mapping.
    """
    order = sorted(set(vertices))
    relabel = {v: i for i, v in enumerate(order)}
    edges = [
        (relabel[u], relabel[v])
        for u in order
        for v in g.adjacency[u]
        if u < v and v in relabel
    ]
    return build_graph(len(order), edges), relabel


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def node_subproblems(t, g):
    """Per tree node: (node, induced subgraph of its leaves, local twin set)."""
    vhat, twin = {}, {}
    out = []
    for node in range(len(t.labels)):
        if is_leaf(t, node):
            v = leaf_vertex(t, node)
            vhat[node] = {v}
            twin[node] = {v}
        else:
            left, right = children(t, node)
            vhat[node] = vhat[left] | vhat[right]
            if label(t, node) == dectree.ATTACH:
                twin[node] = twin[left]
            else:
                twin[node] = twin[left] | twin[right]
        sub, relabel = induced_subgraph(g, sorted(vhat[node]))
        out.append((node, sub, sorted(relabel[v] for v in twin[node])))
    return out
