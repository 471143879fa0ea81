import pytest
from hypothesis import given, settings, strategies as st

from pairdom import dectree
from pairdom.dectree import DecompTree, TreeError


def test_expand_ex7(ex7_tree, ex7_graph):
    g, ts = dectree.expand(ex7_tree)
    assert set(g.edges()) == set(ex7_graph.edges())
    assert ts == (0, 1, 2, 3, 4)


def test_expand_single_leaf():
    t = DecompTree((dectree.leaf(0),), 0)
    g, ts = dectree.expand(t)
    assert g.n == 1 and g.m == 0 and ts == (0,)


def test_expand_attach_of_two_leaves():
    t = DecompTree((dectree.leaf(0), dectree.leaf(1), ("A", 0, 1)), 2)
    g, ts = dectree.expand(t)
    assert g.m == 1 and g.has_edge(0, 1)
    assert ts == (0,)  # left child keeps the twin set


def test_twin_sets_ex7(ex7_tree):
    t = ex7_tree
    left, right = t.children(t.root)
    assert dectree.twin_set(t, left) == (0, 1, 2)
    assert dectree.twin_set(t, right) == (3, 4)
    for i, nd in enumerate(t.nodes):
        if nd[0] == "leaf":
            assert dectree.twin_set(t, i) == (nd[1],)


def test_validate_ok(ex7_tree):
    assert dectree.validate(ex7_tree) == []


def test_validate_duplicate_leaf_vertex():
    t = DecompTree((dectree.leaf(0), dectree.leaf(0), ("T", 0, 1)), 2)
    assert dectree.validate(t)


def test_validate_shared_child():
    t = DecompTree((dectree.leaf(0), ("T", 0, 0)), 1)
    assert dectree.validate(t)


def test_validate_rejects_broken_post_order():
    # node 1 names node 2 as a child, but children must come first
    child_after_parent = DecompTree(
        (dectree.leaf(0), ("T", 0, 2), dectree.leaf(1), dectree.leaf(2), ("F", 1, 3)), 4)
    assert any("node 1" in v for v in dectree.validate(child_after_parent))
    # node 3 comes after the root and has no parent
    root_not_last = DecompTree(
        (dectree.leaf(0), dectree.leaf(1), ("T", 0, 1), dectree.leaf(2)), 2)
    assert any("root 2" in v for v in dectree.validate(root_not_last))
    # node 0 is a child of node 2 and of node 3: node 3's left child is not
    # the root of a subtree ending right before its right subtree
    two_parents = DecompTree(
        (dectree.leaf(0), dectree.leaf(1), ("T", 0, 1), ("F", 0, 2)), 3)
    assert any("node 3" in v for v in dectree.validate(two_parents))
    # children come first and each has one parent, but node 4's left
    # subtree {0} is not contiguous with its right subtree {1, 2, 3}
    split_subtree = DecompTree(
        (dectree.leaf(0), dectree.leaf(1), dectree.leaf(2), ("T", 0, 2), ("F", 3, 1)), 4)
    assert any("node 3" in v for v in dectree.validate(split_subtree))
    with pytest.raises(TreeError):
        dectree.dumps(split_subtree)
    # node 0 lies outside the root's subtree
    orphan = DecompTree(
        (dectree.leaf(2), dectree.leaf(0), dectree.leaf(1), ("T", 1, 2)), 3)
    assert any("outside the root's subtree" in v for v in dectree.validate(orphan))


def test_validate_bad_label():
    t = DecompTree((dectree.leaf(0), dectree.leaf(1), ("X", 0, 1)), 2)
    assert dectree.validate(t)


def test_generate_single_leaf():
    t = dectree.generate(1, seed=5)
    assert len(t.nodes) == 1 and t.is_leaf(t.root)


def test_generate_deterministic():
    a = dectree.generate(40, seed=11)
    b = dectree.generate(40, seed=11)
    assert a == b
    assert a != dectree.generate(40, seed=12)


def test_generate_rejects_bad_args():
    with pytest.raises(TreeError):
        dectree.generate(0, seed=1)
    with pytest.raises(TreeError):
        dectree.generate(3, seed=1, weights=(0, 0, 0))


def _connected(g):
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in g.adjacency[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 60), st.integers(0, 10_000))
def test_generated_expansion_is_connected(n, seed):
    g, ts = dectree.expand(dectree.generate(n, seed))
    assert _connected(g)
    assert len(ts) >= 1


def test_generate_200_connected():
    g, _ = dectree.expand(dectree.generate(200, seed=7))
    assert _connected(g)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 50), st.integers(0, 10_000))
def test_json_round_trip(n, seed):
    t = dectree.generate(n, seed)
    again = dectree.loads(dectree.dumps(t))
    assert dectree.expand(again) == dectree.expand(t)


def test_json_rejects_garbage():
    with pytest.raises(TreeError):
        dectree.loads("not json")
    with pytest.raises(TreeError):
        dectree.loads('{"op": "T", "l": {"leaf": 0}}')
    with pytest.raises(TreeError):
        dectree.loads('{"leaf": "zero"}')
    text = dectree.dumps(dectree.generate(5, seed=1))
    for bad in (text[:-5],                    # truncated
                text.rstrip() + "}",          # an extra closing brace
                "[" + text.rstrip() + "]",    # a top-level array
                text.rstrip() + " x",         # trailing junk
                '{"leaf": \u0663}',           # a non-ASCII digit
                '{"leaf": 03}',               # a leading zero
                '{"leaf":\u00a00}',           # non-JSON whitespace
                '{"op": "T\x01", "l": {"leaf": 0}, "r": {"leaf": 1}}',  # a control character
                '{"op": "T", "r": {"leaf": 1}, "l": {"leaf": 0}}'):     # "r" before "l"
        with pytest.raises(TreeError):
            dectree.loads(bad)


def test_deep_tree_no_recursion_limit():
    # a 5000-leaf caterpillar exercises the iterative walks
    obj = {"leaf": 0}
    for v in range(1, 5000):
        obj = {"op": "A", "l": obj, "r": {"leaf": v}}
    t = dectree.from_json_obj(obj)
    assert t.n_leaves == 5000
    assert dectree.loads(dectree.dumps(t)).n_leaves == 5000
    g, ts = dectree.expand(t)
    assert _connected(g)
