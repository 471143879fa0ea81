import json
from pathlib import Path

import pytest

from pairdom import dectree
from pairdom.graph import build_graph

DATA = Path(__file__).parent / "data"

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


def is_leaf(t, node):
    return t.labels[node] == dectree.LEAF_TAG


def label(t, node):
    return dectree.LEAF if is_leaf(t, node) else chr(t.labels[node])


def children(t, node):
    return t.left[node], t.right[node]


def leaf_vertex(t, node):
    return t.left[node]


def node_state(min, alpha, beta, ts_size, gamma_p, mty_ts, mty_pr):
    """A solver state, the plain tuple `dp` keeps, from its named fields."""
    return (min, alpha, beta, ts_size, gamma_p, mty_ts, mty_pr)


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
