import io
import json
import random
import re
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (DATA, LABEL_MIXES, caterpillar, children, has_edge, is_leaf, leaf,
                      post_order, twin_set)
from pairdom import dectree, dp
from pairdom.dectree import DecompTree, TreeError, from_nodes
from pairdom.graph import Graph


def test_expand_ex7(ex7_tree, ex7_graph):
    g, ts = dectree.expand(ex7_tree)
    assert set(g.edges()) == set(ex7_graph.edges())
    assert ts == (0, 1, 2, 3, 4)


def test_expand_single_leaf():
    t = from_nodes((leaf(0),), 0)
    g, ts = dectree.expand(t)
    assert g.n == 1 and g.m == 0 and ts == (0,)


def test_expand_attach_of_two_leaves():
    t = from_nodes((leaf(0), leaf(1), ("A", 0, 1)), 2)
    g, ts = dectree.expand(t)
    assert g.m == 1 and has_edge(g, 0, 1)
    assert ts == (0,)  # left child keeps the twin set


def test_twin_sets_ex7(ex7_tree):
    t = ex7_tree
    left, right = children(t, t.root)
    assert twin_set(t, left) == (0, 1, 2)
    assert twin_set(t, right) == (3, 4)
    for i, nd in enumerate(t.nodes):
        if nd[0] == "leaf":
            assert twin_set(t, i) == (nd[1],)


def test_decomp_tree_compares_and_hashes_by_fields():
    nodes = (leaf(0), leaf(1), ("A", 0, 1))
    t = from_nodes(nodes, 2)
    same = from_nodes(nodes=(leaf(0), leaf(1), ("A", 0, 1)), root=2)
    assert t == same and hash(t) == hash(same) and len({t, same}) == 1
    assert t != from_nodes((leaf(1), leaf(0), ("A", 0, 1)), 2)
    assert t != from_nodes((leaf(0), leaf(1), ("T", 0, 1)), 2)


def test_validate_ok(ex7_tree):
    assert dectree.validate(ex7_tree.labels, ex7_tree.vertices) == []


def test_validate_duplicate_leaf_vertex():
    with pytest.raises(TreeError, match="node 1: leaf vertex 0 is repeated"):
        from_nodes((leaf(0), leaf(0), ("T", 0, 1)), 2)
    assert any("node 1" in v for v in dectree.validate(b"LLT", array("i", [0, 0])))


def test_validate_names_the_leaf_of_a_bad_vertex_after_the_first():
    for vertices, v in (([0, 1, 5], 5), ([0, 1, 1], 1)):
        assert dectree.validate(b"LLTLF", array("i", vertices)) == [
            f"node 3: leaf vertex {v} is repeated or outside 0..2"]


def test_validate_names_the_first_bad_vertex_in_order():
    # a stray before a repeat, then a repeat before a stray
    for vertices, v in (([0, 5, 0], 5), ([0, 0, 5], 0)):
        with pytest.raises(TreeError, match=f"^node 1: leaf vertex {v} is repeated or "
                                            r"outside 0\.\.2$"):
            DecompTree(b"LLTLF", array("i", vertices))


def test_scan_ids_names_the_first_fault_and_marks_the_ids_before_it():
    assert dectree.scan_ids([2, 0, 1], 3) == (-1, bytearray(b"\1\1\1"))
    assert dectree.scan_ids([], 0) == (-1, bytearray())
    assert dectree.scan_ids([2, 5, 2], 3) == (1, bytearray(b"\0\0\1"))  # a stray, then a repeat
    assert dectree.scan_ids([2, 2, 5], 3) == (1, bytearray(b"\0\0\1"))  # a repeat, then a stray
    assert dectree.scan_ids(iter([1, 0, -1]), 2)[0] == 2


def test_validate_shared_child():
    with pytest.raises(TreeError, match="node 1"):
        from_nodes((leaf(0), ("T", 0, 0)), 1)
    assert any("node 1" in v for v in dectree.validate(b"LT", array("i", [0])))


def test_validate_rejects_broken_post_order():
    # node 1 names node 2 as a child, but children must come first
    with pytest.raises(TreeError, match="node 1"):
        from_nodes((leaf(0), ("T", 0, 2), leaf(1), leaf(2),
                    ("F", 1, 3)), 4)
    # node 3 comes after the root and has no parent
    with pytest.raises(TreeError, match="root 2"):
        from_nodes((leaf(0), leaf(1), ("T", 0, 1), leaf(2)), 2)
    # node 0 is a child of node 2 and of node 3: node 3's left child is not
    # the root of a subtree ending right before its right subtree
    with pytest.raises(TreeError, match="node 3"):
        from_nodes((leaf(0), leaf(1), ("T", 0, 1), ("F", 0, 2)), 3)
    # children come first and each has one parent, but node 4's left
    # subtree {0} is not contiguous with its right subtree {1, 2, 3}
    with pytest.raises(TreeError, match=r"node 3: children \(0, 2\) are not the roots"):
        from_nodes((leaf(0), leaf(1), leaf(2), ("T", 0, 2),
                    ("F", 3, 1)), 4)
    # node 0 lies outside the root's subtree
    with pytest.raises(TreeError, match=r"nodes \[0\] are outside the root's subtree"):
        from_nodes((leaf(2), leaf(0), leaf(1), ("T", 1, 2)), 3)


def test_validate_bad_label():
    assert dectree.validate(b"LLX", array("i", [0, 1]))


def test_malformed_nodes_are_reported():
    # node tuples the columns cannot hold are refused when the tree is built
    for nodes in ([leaf(0), leaf(1), ("X", 0, 1)],
                  [leaf(0), ("T", 0)],
                  [("leaf", 0, 1)],
                  [leaf(1 << 40)]):
        with pytest.raises(TreeError, match="node "):
            from_nodes(nodes, len(nodes) - 1)
    # the rest are trees that `validate` reports, and `from_nodes` refuses
    for nodes in ((),
                  (leaf(0), leaf(2), ("T", 0, 1)),
                  (leaf(-1), leaf(1), ("T", 0, 1))):
        with pytest.raises(TreeError):
            from_nodes(nodes, len(nodes) - 1)
    for labels, vertices in ((b"", []), (b"LLT", [0, 2]), (b"LLT", [-1, 1]),
                             (b"LLT", [0])):  # columns of unequal length
        assert dectree.validate(labels, array("i", vertices))
        with pytest.raises(TreeError):
            DecompTree(labels, array("i", vertices))


def test_columns_take_at_most_4_bytes_per_node():
    t = dectree.generate(100_000, seed=1)
    for tree in (t, dectree.loads(dectree.dumps(t))):
        size = sum(map(sys.getsizeof, (tree.labels, tree.vertices)))
        assert size <= 4 * len(tree.labels)


def _reference_validate(labels, vertices):
    """Whether the columns are a valid tree, by an explicit stack of
    subtrees and a set of the vertices."""
    stack = []
    for tag in labels:
        if tag == dectree.LEAF_TAG:
            stack.append(1)
        elif tag in dectree.LABEL_TAGS and len(stack) >= 2:
            stack.append(stack.pop() + stack.pop() + 1)
        else:
            return False
    n = len(vertices)
    return (stack == [len(labels)] and labels.count(dectree.LEAF_TAG) == n
            and set(vertices) == set(range(n)))


def _validate_and_construct(labels, vertices):
    """The columns' `validate` violations, once `DecompTree` has raised
    them, joined by "; ", if there are any, and built the tree if not."""
    violations = dectree.validate(labels, vertices)
    try:
        t = DecompTree(labels, vertices)
    except TreeError as exc:
        assert str(exc) == "; ".join(violations) and violations
    else:
        assert not violations and (t.labels, t.vertices) == (labels, vertices)
    return violations


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(b"LTFA?"), max_size=12),
       st.lists(st.integers(-1, 7), max_size=7))
def test_validate_agrees_with_a_reference_on_random_columns(labels, vertices):
    violations = _validate_and_construct(bytes(labels), array("i", vertices))
    assert (violations == []) == _reference_validate(bytes(labels), vertices)


def _mutants(t, rng):
    """Columns of `t` with one change each: a label replaced, inserted or
    deleted, a vertex replaced, inserted or deleted, or two labels swapped."""
    labels, vertices = bytearray(t.labels), list(t.vertices)
    at, v = rng.randrange(len(labels)), rng.randrange(len(vertices))
    tag = rng.choice(b"LTFA?")
    other = rng.randrange(len(labels))
    swapped = bytearray(labels)
    swapped[at], swapped[other] = labels[other], labels[at]
    return [(labels[:at] + bytes([tag]) + labels[at + 1:], vertices),
            (labels[:at] + bytes([tag]) + labels[at:], vertices),
            (labels[:at] + labels[at + 1:], vertices),
            (swapped, vertices),
            (labels, vertices[:v] + [rng.randrange(-1, len(vertices) + 1)] + vertices[v + 1:]),
            (labels, vertices[:v] + [rng.randrange(len(vertices))] + vertices[v:]),
            (labels, vertices[:v] + vertices[v + 1:])]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(0, 10_000), st.sampled_from(LABEL_MIXES),
       st.randoms(use_true_random=False))
def test_validate_agrees_with_a_reference_on_mutated_trees(n, seed, weights, rng):
    t = dectree.generate(n, seed, weights)
    assert dectree.validate(t.labels, t.vertices) == []
    assert _reference_validate(t.labels, list(t.vertices))
    for labels, vertices in _mutants(t, rng):
        violations = _validate_and_construct(bytes(labels), array("i", vertices))
        assert (violations == []) == _reference_validate(bytes(labels), vertices)


@pytest.mark.parametrize("shape", [*LABEL_MIXES, "path", "star", "clique"])
def test_edge_count_equals_the_expansion(shape):
    # a label mix gives generated trees, a name a caterpillar
    for n in (1, 2, 40, 300):
        t = caterpillar(n, shape) if isinstance(shape, str) else dectree.generate(n, n, shape)
        m = dectree.expand(t)[0].m
        # the solver counts the edges in its pass, with or without the states
        assert [dp.solve(t, keep_states=ks).m for ks in (True, False)] == [m, m]


def _reference_expansion(t):
    """The expansion as a set of edges: each node copies its twin list from
    its children's, and each T or A node adds the pairs across them."""
    lefts = dectree.children(t.labels)
    vertex = iter(t.vertices).__next__
    twins, edges = [], set()
    for i, tag in enumerate(t.labels):
        if tag == dectree.LEAF_TAG:
            twins.append([vertex()])
            continue
        left, right = twins[lefts[i]], twins[i - 1]
        if tag != dectree.FALSE_TWIN_TAG:
            edges.update(frozenset((u, v)) for u in left for v in right)
        twins.append(left if tag == dectree.ATTACH_TAG else left + right)
    adj = [set() for _ in range(t.n_leaves)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return Graph(t.n_leaves, len(edges), tuple(tuple(sorted(a)) for a in adj))


@pytest.mark.parametrize("shape", [*LABEL_MIXES, "path", "star", "clique"])
def test_expansion_equals_a_reference_edge_set(shape):
    for n in (1, 2, 40, 300):
        t = caterpillar(n, shape) if isinstance(shape, str) else dectree.generate(n, n, shape)
        g, ts = dectree.expand(t)
        assert g == _reference_expansion(t) and ts == twin_set(t, t.root)


def test_expand_peak_is_at_most_64_bytes_per_edge():
    t = dectree.generate(200, seed=1, weights=(1, 0, 0))  # all T: K_200
    tracemalloc.start()
    try:
        g, _ = dectree.expand(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m == 19_900 and peak <= 64 * g.m


def test_loads_frees_the_text_before_its_python_passes(tmp_path):
    # a path caterpillar's JSON nests 30 000 objects deep. `translate`
    # allocates an output as long as its input before it shrinks it, so the
    # text and one such buffer are alive while the streams are made; after
    # them, only per-leaf columns and streams may be
    n = 30_000
    path = tmp_path / "path.json"
    path.write_text(dectree.dumps(caterpillar(n, "path")))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        t = dectree.loads(path.read_bytes())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.n_leaves == n and peak <= 2 * size + 9 * n


def test_dump_holds_no_text(tmp_path):
    # written to a file, the tree's text is never held: what dump keeps is
    # the left-child column, a few bytes a node, and its walk's stack
    t = dectree.generate(30_000, 1)
    path = tmp_path / "tree.json"
    with open(path, "w", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            dectree.dump(t, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 10 * len(t.labels)
    assert path.read_text() == dectree.dumps(t)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 40), st.integers(0, 10_000))
def test_node_tuples_round_trip_through_the_columns(n, seed):
    t = dectree.generate(n, seed)
    again = from_nodes(t.nodes, t.root)
    assert again.nodes == t.nodes
    assert again == t and hash(again) == hash(t)
    with pytest.raises(TreeError, match=f"root {t.root - 1} is not the last"):
        from_nodes(t.nodes, t.root - 1)


def test_generate_single_leaf():
    t = dectree.generate(1, seed=5)
    assert len(t.nodes) == 1 and is_leaf(t, t.root)


def test_generate_deterministic():
    a = dectree.generate(40, seed=11)
    b = dectree.generate(40, seed=11)
    assert a == b
    assert a != dectree.generate(40, seed=12)


def _generate_with_choices(n, seed, weights):
    """`generate` as a plain loop that draws each label with `rng.choices`
    and names each merged subtree by a new node id, laid out by the
    test-only reference `post_order`."""
    rng = random.Random(seed)
    labels, lefts, rights = [dectree.LEAF_TAG] * n, list(range(n)), [0] * n
    roots = list(range(n))
    while len(roots) > 1:
        picked = []
        for _ in range(2):
            i = rng.randrange(len(roots))
            roots[i], roots[-1] = roots[-1], roots[i]
            picked.append(roots.pop())
        a, b = picked
        wt, _, wa = weights
        w = weights if roots else ((wt, 0.0, wa) if wt + wa else (1.0, 0.0, 1.0))
        tag = rng.choices(dectree.LABEL_TAGS, weights=w)[0]
        if tag == dectree.ATTACH_TAG and rng.random() < 0.5:
            a, b = b, a
        roots.append(len(labels))
        labels.append(tag)
        lefts.append(a)
        rights.append(b)
    return post_order(labels, lefts, rights, roots[0])


def test_generate_draws_labels_as_random_choices_does():
    # (0, 1, 0) leaves the root merge no T or A weight
    for weights in [(1.0, 1.0, 1.0), (0, 1, 0), (0.25, 2.5, 1e-3)] + LABEL_MIXES:
        for seed in range(8):
            for n in (1, 2, 3, 50, 300):
                assert (dectree.generate(n, seed, weights)
                        == _generate_with_choices(n, seed, weights)), (weights, seed, n)


def _merged_by_reference(n, tags, absorbed, keepers):
    """`_from_merges`' tree from explicit node columns: merge s is node
    n+s, and each subtree name maps to its current root node."""
    labels, lefts, rights = [dectree.LEAF_TAG] * n, list(range(n)), [0] * n
    root = list(range(n))
    for tag, u, w in zip(tags, absorbed, keepers):
        labels.append(tag)
        lefts.append(root[w])
        rights.append(root[u])
        root[w] = len(labels) - 1
    return post_order(labels, lefts, rights, root[keepers[-1]] if tags else 0)


def test_from_merges_lays_out_as_the_reference():
    rng = random.Random(3)
    cases = []
    for n in (1, 2, 3, 50, 300):
        for _ in range(20):
            live = list(range(n))
            tags, absorbed, keepers = bytearray(), array("i"), array("i")
            while len(live) > 1:
                w, u = rng.sample(live, 2)
                live.remove(u)
                tags.append(rng.choice(dectree.LABEL_TAGS))
                absorbed.append(u)
                keepers.append(w)
            cases.append((n, tags, absorbed, keepers))
    # two chains of 10^5 merges: one keeper absorbs every other leaf, and
    # each fresh leaf absorbs the subtree grown so far
    n = 100_001
    chain = bytes(rng.choice(dectree.LABEL_TAGS) for _ in range(n - 1))
    cases.append((n, chain, array("i", range(1, n)), array("i", [0] * (n - 1))))
    cases.append((n, chain, array("i", range(n - 1)), array("i", range(1, n))))
    for i, (n, tags, absorbed, keepers) in enumerate(cases):
        t = dectree._from_merges(n, tags, absorbed, keepers)
        assert dectree.validate(t.labels, t.vertices) == [], i
        assert t == _merged_by_reference(n, tags, absorbed, keepers), i


def test_generate_rejects_bad_args():
    with pytest.raises(TreeError):
        dectree.generate(0, seed=1)
    with pytest.raises(TreeError):
        dectree.generate(3, seed=1, weights=(0, 0, 0))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(TreeError):
            dectree.generate(3, seed=1, weights=(bad, 1, 1))


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


# the key orders the reader accepts for an internal node: "l" before "r"
KEY_ORDERS = (("op", "l", "r"), ("l", "op", "r"), ("l", "r", "op"))
MUTANTS = ("r before l", "repeated op", "extra key", "missing r", "missing op",
           "duplicate vertex")


def _render(t, rng, mutant=None, at=None):
    """JSON text of `t` with random key orders and random JSON whitespace
    between tokens; `mutant` breaks the node `at` in the named way."""
    nodes = t.nodes

    def tokens(i):
        nd = nodes[i]
        if nd[0] == "leaf":
            v = nodes[at][1] if mutant == "duplicate vertex" and i == at + 1 else nd[1]
            return ["{", '"leaf"', ":", str(v), "}"]
        members = {"op": ['"%s"' % nd[0]], "l": tokens(nd[1]), "r": tokens(nd[2])}
        order = list(rng.choice(KEY_ORDERS))
        if i == at:
            if mutant == "r before l":
                order.remove("r")
                order.insert(order.index("l"), "r")
            elif mutant == "repeated op":
                order.insert(rng.randrange(4), "op")
            elif mutant == "extra key":
                members["x"] = ["1"]
                order.insert(rng.randrange(4), "x")
            elif mutant == "missing r":
                order.remove("r")
            elif mutant == "missing op":
                order.remove("op")
        out = ["{"]
        for k in order:
            out += ([","] if len(out) > 1 else []) + ['"%s"' % k, ":"] + members[k]
        return out + ["}"]

    def ws():
        return "".join(rng.choice(" \t\n\r") for _ in range(rng.choice((0, 0, 1, 3))))

    return "".join(ws() + tok for tok in tokens(t.root)) + ws()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.integers(0, 10_000), st.randoms(use_true_random=False))
def test_loads_accepts_every_key_order_and_rejects_mutants(n, seed, rng):
    t = dectree.generate(n, seed)
    again = dectree.loads(_render(t, rng))
    assert again == t
    assert dectree.validate(again.labels, again.vertices) == []
    nodes = t.nodes
    internal = [i for i, nd in enumerate(nodes) if nd[0] != "leaf"]
    # two leaves in a row: the duplicate mutant gives the second the first's vertex
    leaf_pairs = [i for i in range(len(nodes) - 1)
                  if nodes[i][0] == nodes[i + 1][0] == "leaf"]
    for mutant in MUTANTS:
        at = rng.choice(leaf_pairs if mutant == "duplicate vertex" else internal)
        with pytest.raises(TreeError):
            dectree.loads(_render(t, rng, mutant, at))


_TEXT = dectree.dumps(dectree.generate(5, seed=1))
GARBAGE = ("not json",
           '{"op": "T", "l": {"leaf": 0}}',
           '{"leaf": "zero"}',
           _TEXT[:-5],                    # truncated
           _TEXT.rstrip() + "}",          # an extra closing brace
           "[" + _TEXT.rstrip() + "]",    # a top-level array
           _TEXT.rstrip() + " x",         # trailing junk
           '{"leaf": \u0663}',           # a non-ASCII digit
           '{"leaf": 03}',               # a leading zero
           '{"leaf":\u00a00}',           # non-JSON whitespace
           '{"op": "T\x01", "l": {"leaf": 0}, "r": {"leaf": 1}}',  # a control character
           '{"op": "T", "r": {"leaf": 1}, "l": {"leaf": 0}}',      # "r" before "l"
           # a repeated "r" whose leaves still number 0..n-1
           '{"op": "T", "l": {"leaf": 0}, "r": {"leaf": 1}, "r": {"leaf": 2}}',
           '{"leaf": %s}' % ("9" * 5000))  # more digits than int() reads


def test_json_rejects_garbage():
    for bad in GARBAGE:
        with pytest.raises(TreeError):
            dectree.loads(bad)


def _reference_loads(text):
    """The tree of `text` by the format's rules on top of the json module,
    or None where they refuse it: a reference for small texts (it recurses)."""
    def pairs(items):  # an object becomes a tuple of its pairs, an array a list
        keys = [k for k, _ in items]
        if len(set(keys)) != len(keys):
            raise ValueError("repeated key")
        return tuple(items)

    def node(items):
        if type(items) is not tuple:
            raise ValueError("not an object")
        keys, obj = [k for k, _ in items], dict(items)
        if keys == ["leaf"]:
            if type(obj["leaf"]) is not int:
                raise ValueError("leaf vertex is not an integer")
            return leaf(obj["leaf"])
        if (sorted(keys) != ["l", "op", "r"] or keys.index("l") > keys.index("r")
                or obj["op"] not in ("T", "F", "A")):
            raise ValueError("not a T/F/A node with l before r")
        return (obj["op"], node(obj["l"]), node(obj["r"]))

    def post_order(nd, out):
        if nd[0] == "leaf":
            out.append(nd)
        else:
            post_order(nd[1], out)
            left = len(out) - 1
            post_order(nd[2], out)
            out.append((nd[0], left, len(out) - 1))
        return out

    try:
        root = json.loads(text, object_pairs_hook=pairs)
        nodes = post_order(node(root), [])
    except (ValueError, TypeError, KeyError, AttributeError):
        return None
    leaves = sorted(nd[1] for nd in nodes if nd[0] == "leaf")
    if leaves != list(range(len(leaves))) or "\\" in text:  # no string escapes
        return None
    return from_nodes(nodes, len(nodes) - 1)


# what a mutant deletes, duplicates or inserts; "0" stands for any digit
MUTATION_PIECES = ("{", "}", ",", '"r":', "0", " ")


def _mutate(text, rng):
    piece = rng.choice(MUTATION_PIECES)
    how = rng.choice(("delete", "duplicate", "insert"))
    if how == "insert":
        at = rng.randrange(len(text) + 1)
        return text[:at] + (str(rng.randrange(10)) if piece == "0" else piece) + text[at:]
    pattern = "[0-9]" if piece == "0" else re.escape(piece)
    spots = [m.span() for m in re.finditer(pattern, text)]
    if not spots:
        return text
    start, end = rng.choice(spots)
    return text[:start] + (text[start:end] * 2 if how == "duplicate" else "") + text[end:]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10_000), st.randoms(use_true_random=False))
def test_loads_refuses_or_round_trips_every_mutant(n, seed, rng):
    text = _render(dectree.generate(n, seed), rng)
    for _ in range(8):
        mutant = _mutate(text, rng)
        expected = _reference_loads(mutant)
        try:
            t = dectree.loads(mutant)
        except TreeError:
            assert expected is None, mutant
            continue
        assert dectree.validate(t.labels, t.vertices) == []
        assert dectree.loads(dectree.dumps(t)) == t
        assert t == expected, mutant


_LEAF, _PAIR = '{"leaf": 0}', '"l": {"leaf": 0}, "r": {"leaf": 1}'
# texts the reader refuses, by what its error names: the offset of a
# grammar error, the node of a structure error or the leaf vertex at fault
MALFORMED = {
    "offset": ('{"le af": 0}',
               '{"leaf": 1 2}',
               '{"o p": "T", %s}' % _PAIR,
               '{"op": " T", %s}' % _PAIR,
               '{"op": "T", "l": {"leaf": 0} {"leaf": 1}}',  # no "r"
               '{"op": "T", "l": , "r": {"leaf": 0}}'),      # no left child
    "node": ('{"op": "T", "l": {"leaf": 0}}',                          # one child
             '{"l": {"leaf": 0}, "op": "T"}',
             '{"op": "T", %s, "r": {"leaf": 2}}' % _PAIR,                # three children
             '{"op": "T", "l": {"leaf": 0}}, "r": {"leaf": 1}}',        # a "}" mid-text
             '{%s}' % _PAIR,                                             # no label
             '{"op": "T", "l": {"leaf": 0}, "op": "F", "r": {"leaf": 1}}',  # two labels
             '{"l": {"leaf": 0}, "op": "T", "r": {"leaf": 1}, "op": "T"}',
             _LEAF + ', "r": {"leaf": 1}',                               # two roots
             _LEAF + ', "op": "T"'),
    "vertex": ('{"leaf": 4294967296}', '{"leaf": 1}', '{"leaf": -1}',
               '{"op": "T", "l": {"leaf": 0}, "r": {"leaf": 0}}'),
}


def test_loads_refuses_malformed_nodes():
    for names, texts in MALFORMED.items():
        for text in texts:
            for data in (text, text.encode()):
                with pytest.raises(TreeError, match=names):
                    dectree.loads(data)
    # whitespace inside a number: the text without it is a valid tree
    text = dectree.dumps(dectree.generate(12, seed=1))
    assert '"leaf": 11}' in text
    dectree.loads(text)
    with pytest.raises(TreeError, match="offset"):
        dectree.loads(text.replace('"leaf": 11}', '"leaf": 1 1}'))


AFTER_WHITESPACE = [
    ('{"leaf": 0}  x', r'offset 11: expected "}", '),
    ('{"op": "T", "l":   x', r'offset 16: expected a node '),
]


@pytest.mark.parametrize("text, message", AFTER_WHITESPACE)
def test_syntax_error_after_whitespace_names_what_may_follow_the_piece(text, message):
    # the offset is where the last piece ends, before the whitespace, so the
    # expectation follows from the byte before it
    with pytest.raises(TreeError, match=re.escape(message)):
        dectree.loads(text)


def _columns_or_error(read, data):
    """The columns of the tree that `read` makes of `data`, or its TreeError's text."""
    try:
        t = read(data)
    except TreeError as exc:
        return str(exc)
    return t.labels, t.vertices


def _load(data):
    return dectree.load(io.BytesIO(data))


CHUNK_SIZES = [1, 2, 3, 7, 4096]


@pytest.fixture(scope="module")
def tree_files():
    """Tree files, each with the columns, or the error, that reading it must
    give: the test data files, whose graphs `loads` refuses, then generated
    trees and caterpillars that nest 30 000 objects deep."""
    data = [p.read_bytes() for p in sorted(DATA.iterdir())]
    files = [(d, _columns_or_error(dectree.loads, d)) for d in data]
    trees = [dectree.generate(n, n, w) for n in (1, 2, 50, 300) for w in LABEL_MIXES]
    trees += [caterpillar(30_000, shape) for shape in ("path", "star")]
    return files + [(dectree.dumps(t).encode(), (t.labels, t.vertices)) for t in trees]


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_load_reads_as_loads_in_chunks_of_any_size(chunk, tree_files, monkeypatch):
    monkeypatch.setattr(dectree, "CHUNK", chunk)
    for data, expected in tree_files:
        assert _columns_or_error(_load, data) == expected


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_load_refuses_as_loads_in_chunks_of_any_size(chunk, monkeypatch):
    # whole-text reads are the reference. A piece may run over many chunks:
    # a 100 000-byte whitespace run, or a leaf of 5000 digits, which int()
    # refuses
    texts = [text for texts in MALFORMED.values() for text in texts]
    texts += [*GARBAGE, *(text for text, _ in AFTER_WHITESPACE)]
    texts += ['{"leaf":%s0}' % (" " * 100_000), '{"leaf": 0}%s' % ("\n" * 100_000),
              '{"leaf": %s}' % ("9" * 5000), '{"leaf": %s 1}' % ("1" * 5000),
              '{"op": "T", "l": {"leaf": 1}, "r": {"leaf": %s}}' % ("9" * 5000)]
    data = [text.encode("utf-8") for text in texts]
    monkeypatch.setattr(dectree, "CHUNK", max(map(len, data)))
    expected = [_columns_or_error(dectree.loads, d) for d in data]
    monkeypatch.setattr(dectree, "CHUNK", chunk)
    for d, e in zip(data, expected):
        assert _columns_or_error(_load, d) == e
        assert _columns_or_error(dectree.loads, d) == e


@pytest.mark.parametrize("chunk", [1, 4096])
def test_reader_names_the_first_bad_vertex_in_order(chunk, monkeypatch):
    # a stray before a repeat, and a repeat before a stray, where the stray
    # fits the column, does not fit it, or has more digits than int() reads
    monkeypatch.setattr(dectree, "CHUNK", chunk)
    for stray, message in (("5", "leaf vertex 5 is repeated"),
                           ("4294967296", "leaf vertex 4294967296 is repeated"),
                           ("9" * 5000, "a leaf vertex has more digits than int() reads")):
        for vertices, first in (((0, stray, 0), message),
                                ((0, 0, stray), "leaf vertex 0 is repeated")):
            text = ('{"op": "T", "l": {"op": "F", "l": {"leaf": %s}, "r": {"leaf": %s}}, '
                    '"r": {"leaf": %s}}' % vertices).encode()
            for read in (dectree.loads, _load):
                with pytest.raises(TreeError, match="^" + re.escape(first)):
                    read(text)


def test_load_stops_reading_a_chunk_after_a_grammar_error():
    # what follows the fault, here a whitespace run ten chunks long, is not read
    fh = io.BytesIO(b'{"op": "T", "l": {"leaf": 0} x' + b" " * (10 * dectree.CHUNK))
    with pytest.raises(TreeError, match=re.escape('offset 28: expected "}", ')):
        dectree.load(fh)
    assert fh.tell() <= 2 * dectree.CHUNK


def test_load_holds_a_chunk_and_per_leaf_columns_not_the_file(tmp_path, monkeypatch):
    # the path caterpillar nests 30 000 objects deep, so its event loop holds
    # one stack entry per leaf. Padding every ": " with whitespace makes the
    # file ten times larger and must not move the peak. A chunk of the file's
    # size is read and matched whole: the peak is the chunk and its copy in
    # the buffer, with no state kept per piece by the match
    n = 30_000
    text = dectree.dumps(caterpillar(n, "path"))
    default = dectree.CHUNK
    bound = default + 20 * n
    path = tmp_path / "path.json"
    for padding in ("", " " * 100):
        path.write_text(text.replace(": ", ": " + padding))
        size = path.stat().st_size
        for chunk, chunk_bound in ((default, bound), (size, 2 * size + 20 * n)):
            monkeypatch.setattr(dectree, "CHUNK", chunk)
            with open(path, "rb") as fh:
                tracemalloc.start()
                try:
                    t = dectree.load(fh)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert t.n_leaves == n and peak <= chunk_bound
    assert path.stat().st_size > 10 * bound


def test_loads_reads_text_and_bytes_alike():
    t = dectree.generate(300, seed=4)
    text = dectree.dumps(t)
    assert dectree.loads(text) == dectree.loads(text.encode()) == t
    assert dectree.loads(f'{{"l": {{"leaf": 1}}, "r": {{"leaf": 0}}, "op": "A"}}') == \
        from_nodes((leaf(1), leaf(0), ("A", 0, 1)), 2)


def test_deep_tree_no_recursion_limit():
    # a 5000-leaf caterpillar exercises the iterative walks
    nodes = [leaf(0)]
    for v in range(1, 5000):
        nodes += [leaf(v), ("A", len(nodes) - 1, len(nodes))]
    t = from_nodes(tuple(nodes), len(nodes) - 1)
    assert t.n_leaves == 5000
    assert dectree.loads(dectree.dumps(t)).n_leaves == 5000
    g, ts = dectree.expand(t)
    assert _connected(g)
