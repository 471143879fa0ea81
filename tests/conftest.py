from pathlib import Path

import pytest

from pairdom import dectree
from pairdom.graph import build_graph, induced_subgraph

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
    return dectree.from_json_obj(_ex7_tree_obj("T"))


@pytest.fixture(scope="session")
def ex7_tree_attach_root():
    """Same graph with an attachment root; the twin set shrinks to {0,1,2}."""
    return dectree.from_json_obj(_ex7_tree_obj("A"))


@pytest.fixture(scope="session")
def data_dir():
    return DATA


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def node_subproblems(t, g):
    """Per tree node: (node, induced subgraph of its leaves, local twin set)."""
    vhat, twin = {}, {}
    out = []
    for node in range(len(t.nodes)):
        if t.is_leaf(node):
            v = t.leaf_vertex(node)
            vhat[node] = {v}
            twin[node] = {v}
        else:
            left, right = t.children(node)
            vhat[node] = vhat[left] | vhat[right]
            if t.label(node) == dectree.ATTACH:
                twin[node] = twin[left]
            else:
                twin[node] = twin[left] | twin[right]
        sub, relabel = induced_subgraph(g, sorted(vhat[node]))
        out.append((node, sub, sorted(relabel[v] for v in twin[node])))
    return out
