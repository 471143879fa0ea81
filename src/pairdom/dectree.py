"""Decomposition trees: structure, expansion into a graph, and generation.

A tree node is either ("leaf", vertex) or (label, left, right) with label one
of "T" (true twin), "F" (false twin), "A" (attachment, left child keeps the
twin set). Nodes live in a flat tuple indexed by node id, in post-order:
every subtree is a contiguous block of ids that ends at its root, with the
left subtree's block right before the right subtree's. So an internal node
i has right child i-1 and left child i-1-(size of the right subtree), the
root is the last node, and every node but the root has exactly one parent.
`validate` checks this layout, so each walk over a tree, or over one
subtree, is one forward loop over `nodes`, and no tree, however deep,
touches the call stack. The JSON reader emits nodes in this order by
construction, so tree files of any nesting depth load.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .graph import Graph, build_graph

LEAF = "leaf"
TRUE_TWIN = "T"
FALSE_TWIN = "F"
ATTACH = "A"
LABELS = (TRUE_TWIN, FALSE_TWIN, ATTACH)


class TreeError(ValueError):
    """Raised when a structurally invalid tree is used where a valid one is required."""


@dataclass(frozen=True)
class DecompTree:
    nodes: tuple[tuple, ...]
    root: int

    def is_leaf(self, node: int) -> bool:
        return self.nodes[node][0] == LEAF

    def label(self, node: int) -> str:
        return self.nodes[node][0]

    def children(self, node: int) -> tuple[int, int]:
        _, left, right = self.nodes[node]
        return left, right

    def leaf_vertex(self, node: int) -> int:
        return self.nodes[node][1]

    @property
    def n_leaves(self) -> int:
        return (len(self.nodes) + 1) // 2


def leaf(vertex: int) -> tuple:
    return (LEAF, vertex)


def internal(label: str, left: int, right: int) -> tuple:
    if label not in LABELS:
        raise TreeError(f"unknown label {label!r}")
    return (label, left, right)


_NO_ROOT = object()


def validate(t: DecompTree) -> list[str]:
    """Check the structural invariants; empty list means ok.

    The node array must be in post-order: each internal node's children are
    the roots of the two subtrees that end right before it, left then right;
    the root is the last node and its subtree holds every node; the leaves
    carry the vertices 0..n-1. Then every subtree is a contiguous block
    ending at its root, and each node but the root has exactly one parent.
    One forward pass checks it all, keeping the roots of the finished
    subtrees on a stack. The structure past the first misplaced child is
    not read, so the report stops there.
    """
    nodes = t.nodes
    n_nodes = len(nodes)
    if n_nodes == 0 or t.root != n_nodes - 1:
        return [f"root {t.root} is not the last of {n_nodes} node(s)"]
    violations: list[str] = []
    n = (n_nodes + 1) // 2  # the leaf count of a well-formed tree
    seen = bytearray(n)
    # roots of the finished subtrees in node order, after two placeholders
    # that no child id matches
    roots: list = [_NO_ROOT, _NO_ROOT]
    push, pop = roots.append, roots.pop
    for i, nd in enumerate(nodes):
        tag = nd[0]
        if tag == LEAF:
            v = nd[1]
            if not 0 <= v < n or seen[v]:
                violations.append(f"node {i}: leaf vertex {v} is repeated or outside 0..{n - 1}")
            else:
                seen[v] = 1
            push(i)
            continue
        if tag not in LABELS or len(nd) != 3:
            violations.append(f"node {i}: {nd!r} is neither a leaf nor a T/F/A node "
                              "with two children")
            return violations
        _, left, right = nd
        if roots[-1] != right or roots[-2] != left:
            last_two = [r for r in roots[-2:] if r is not _NO_ROOT]
            violations.append(f"node {i}: children ({left}, {right}) are not the roots "
                              f"of the two subtrees ending right before it, {last_two}")
            return violations
        pop()
        roots[-1] = i
    if len(roots) > 3:
        violations.append(f"the subtrees rooted at nodes {roots[2:-1]} are outside the "
                          "root's subtree")
    return violations


def require_valid(t: DecompTree) -> None:
    violations = validate(t)
    if violations:
        raise TreeError("; ".join(violations))


def twin_sets(t: DecompTree, node: Optional[int] = None) -> Iterator[tuple]:
    """The twin-set recurrence of the expansion over the subtree of `node`
    (the whole tree by default), children first.

    Yields (i, label, ts_l, ts_r, ts) for each node i of the subtree: its
    label, its children's twin sets (None for a leaf) and its own, as
    frozensets of vertices. A leaf's twin set is its vertex; an "A" node
    keeps its left child's (the same object), "T" and "F" nodes take the
    union. The subtree is the block of nodes ending at `node`, so the walk
    reads only the subtree's nodes. `t` must be valid.
    """
    nodes = t.nodes
    last = t.root if node is None else node
    first = last
    while nodes[first][0] != LEAF:  # a subtree's first node is its leftmost leaf
        first = nodes[first][1]
    twin: list = [None] * (last + 1 - first)
    for i in range(first, last + 1):
        nd = nodes[i]
        if nd[0] == LEAF:
            ts = twin[i - first] = frozenset((nd[1],))
            yield i, LEAF, None, None, ts
            continue
        label, left, right = nd
        ts_l, ts_r = twin[left - first], twin[right - first]
        twin[left - first] = twin[right - first] = None  # each node has one parent
        ts = twin[i - first] = ts_l if label == ATTACH else ts_l | ts_r
        yield i, label, ts_l, ts_r, ts


def expand(t: DecompTree) -> tuple[Graph, tuple[int, ...]]:
    """Materialize the graph described by the tree and its root twin set.

    "T" and "A" nodes add a biclique between their children's twin sets,
    "F" nodes add no edge.
    """
    require_valid(t)
    edges: list[tuple[int, int]] = []
    for _, label, ts_l, ts_r, ts in twin_sets(t):
        if label == TRUE_TWIN or label == ATTACH:
            edges.extend((u, v) for u in ts_l for v in ts_r)
    return build_graph(t.n_leaves, edges), tuple(sorted(ts))


def twin_set(t: DecompTree, node: int) -> tuple[int, ...]:
    """Twin set of the subtree rooted at `node` of a valid tree; reads only
    that subtree's nodes."""
    if not (0 <= node < len(t.nodes)):
        raise TreeError(f"unknown node id {node}")
    for *_, ts in twin_sets(t, node):
        pass
    return tuple(sorted(ts))


def generate(
    n: int,
    seed: int,
    weights: Sequence[float] = (1.0, 1.0, 1.0),
) -> DecompTree:
    """Deterministic random tree with n leaves.

    Labels are drawn per `weights` (T, F, A), except the final merge which is
    forced to T or A so the expansion is connected. Built by repeatedly
    merging two uniformly chosen subtrees from a work list; "A" orientation
    (which child keeps the twin set) is a fair coin.
    """
    if n < 1:
        raise TreeError(f"need at least one leaf, got n={n}")
    if len(weights) != 3 or any(w < 0 for w in weights) or sum(weights) == 0:
        raise TreeError(f"bad label weights {weights!r}")
    rng = random.Random(seed)
    nodes: list[tuple] = [leaf(v) for v in range(n)]
    roots = list(range(n))
    while len(roots) > 1:
        i = rng.randrange(len(roots))
        roots[i], roots[-1] = roots[-1], roots[i]
        a = roots.pop()
        j = rng.randrange(len(roots))
        roots[j], roots[-1] = roots[-1], roots[j]
        b = roots.pop()
        if len(roots) == 0:
            # root merge: keep the expansion connected
            wt, _, wa = weights
            connected = (wt, 0.0, wa)
            if wt + wa == 0:
                connected = (1.0, 0.0, 1.0)
            label = rng.choices(LABELS, weights=connected)[0]
        else:
            label = rng.choices(LABELS, weights=weights)[0]
        if label == ATTACH and rng.random() < 0.5:
            a, b = b, a
        nodes.append(internal(label, a, b))
        roots.append(len(nodes) - 1)
    # renumber into DFS post-order so children sit near parents in the node
    # array; same tree, much friendlier to the solver's cache at 10^6 leaves.
    # Popping node, right, left and reversing gives left, right, node.
    order: list[int] = []
    stack = [roots[0]]
    while stack:
        old = stack.pop()
        order.append(old)
        nd = nodes[old]
        if nd[0] != LEAF:
            stack.append(nd[1])
            stack.append(nd[2])
    order.reverse()
    remap = [0] * len(nodes)
    new_nodes: list[tuple] = []
    for old in order:
        nd = nodes[old]
        remap[old] = len(new_nodes)
        new_nodes.append(nd if nd[0] == LEAF else (nd[0], remap[nd[1]], remap[nd[2]]))
    return DecompTree(tuple(new_nodes), len(new_nodes) - 1)


# --- JSON tree file format -------------------------------------------------
#
# leaf     -> {"leaf": <int>}
# internal -> {"op": "T"|"F"|"A", "l": <node>, "r": <node>}


def from_json_obj(obj: dict) -> DecompTree:
    nodes: list[tuple] = []
    # iterative two-phase walk so deep trees do not recurse
    stack: list[tuple[dict, bool]] = [(obj, False)]
    ids: dict[int, int] = {}
    while stack:
        cur, expanded = stack.pop()
        if not isinstance(cur, dict):
            raise TreeError(f"tree node must be an object, got {cur!r}")
        if "leaf" in cur:
            if not isinstance(cur["leaf"], int):
                raise TreeError(f"leaf id must be an integer, got {cur['leaf']!r}")
            nodes.append(leaf(cur["leaf"]))
            ids[id(cur)] = len(nodes) - 1
        elif expanded:
            nodes.append(internal(cur.get("op"), ids[id(cur["l"])], ids[id(cur["r"])]))
            ids[id(cur)] = len(nodes) - 1
        else:
            if "op" not in cur or "l" not in cur or "r" not in cur:
                raise TreeError(f"internal node needs op/l/r keys: {cur!r}")
            stack.append((cur, True))
            stack.append((cur["r"], False))
            stack.append((cur["l"], False))
    t = DecompTree(tuple(nodes), len(nodes) - 1)
    require_valid(t)
    return t


def dumps(t: DecompTree) -> str:
    """Nested JSON text of the tree, in time linear in its length.

    Leaves and closing braces appear in the text in node order. What the
    text puts before a leaf -- the openings of the nodes whose leftmost leaf
    it is, and the separator before the right subtree it starts -- is
    gathered per leaf, innermost first, and emitted reversed.
    """
    require_valid(t)
    nodes = t.nodes
    out: list = []
    leftmost: list = [None] * len(nodes)  # per node: its leftmost leaf's pieces
    close = ("}",)
    for i, nd in enumerate(nodes):
        if nd[0] == LEAF:
            leftmost[i] = pieces = ['{"leaf": %d}' % nd[1]]
            out.append(pieces)
        else:
            label, left, right = nd
            leftmost[left].append('{"op": "%s", "l": ' % label)
            leftmost[right].append(', "r": ')
            leftmost[i] = leftmost[left]
            out.append(close)
    return "".join(s for pieces in out for s in reversed(pieces)) + "\n"


# One token per match, told apart by the group that matched: braces, a comma,
# a key with its colon, a string, an integer, or any other character (always
# an error, so only whitespace goes unread). As in JSON, whitespace is
# space, tab, LF or CR, integers have no leading zeros, and strings hold no
# control characters; strings take no escapes.
_TOKEN = re.compile(r'[ \t\n\r]*(?:(\{)|(\})|(,)|"([^"\\\x00-\x1f]*)"[ \t\n\r]*:'
                    r'|"([^"\\\x00-\x1f]*)"|(-?(?:0|[1-9][0-9]*))|([^ \t\n\r]))', re.ASCII)
_OPEN, _CLOSE, _COMMA, _KEY, _STRING, _INTEGER = range(1, 7)
_TOKEN_NAME = {_OPEN: "'{'", _CLOSE: "'}'", _COMMA: "','", _KEY: "a key",
               _STRING: "a string", _INTEGER: "an integer"}
# the value each key takes: a vertex id, a label, or a child node
_FIELD = {"leaf": _INTEGER, "op": _STRING, "l": _OPEN, "r": _OPEN}


def _expected(want: tuple[int, ...]) -> str:
    return " or ".join(_TOKEN_NAME[w] for w in want) or "the end of the text"


def loads(text: str) -> DecompTree:
    """Read the nested JSON tree format without recursion.

    Each object becomes a node when it closes, so the nodes come out
    children first with the root last, and files of any nesting depth load.
    Keys may come in any order, except that "l" comes before "r", which
    puts the left subtree's nodes first; other keys are rejected.
    """
    nodes: list[tuple] = []
    stack: list[tuple[dict, str]] = []  # enclosing objects: (fields, key of this one)
    fields: dict = {}
    key = ""
    want: tuple[int, ...] = (_OPEN,)  # token kinds allowed next
    for m in _TOKEN.finditer(text):
        tok = m.lastindex
        if tok not in want:
            raise TreeError(f"offset {m.start(tok)}: expected {_expected(want)}, "
                            f"got {m.group(tok)!r}")
        if tok == _OPEN:
            stack.append((fields, key))
            fields = {}
            want = (_KEY, _CLOSE)
        elif tok == _KEY:
            key = m.group(_KEY)
            if key not in _FIELD or key in fields or (key == "r" and "l" not in fields):
                raise TreeError(f"offset {m.start(tok)}: unknown, repeated or "
                                f"out-of-order key {key!r}")
            want = (_FIELD[key],)
        elif tok == _COMMA:
            want = (_KEY,)
        elif tok == _CLOSE:
            if fields.keys() == {"leaf"}:
                nodes.append(leaf(fields["leaf"]))
            elif fields.keys() == {"op", "l", "r"}:
                nodes.append(internal(fields["op"], fields["l"], fields["r"]))
            else:
                raise TreeError(f"offset {m.start(tok)}: a node needs the key leaf, "
                                f"or the keys op, l and r; got {sorted(fields)}")
            fields, key = stack.pop()
            fields[key] = len(nodes) - 1
            want = (_COMMA, _CLOSE) if stack else ()
        else:
            fields[key] = m.group(tok) if tok == _STRING else int(m.group(tok))
            want = (_COMMA, _CLOSE)
    if want:
        raise TreeError(f"tree JSON ends early: expected {_expected(want)}")
    t = DecompTree(tuple(nodes), len(nodes) - 1)
    require_valid(t)
    return t
