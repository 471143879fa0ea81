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
touches the call stack. The functions that create nodes in another order,
`generate` and recognition's replay, lay them out with `renumber`. The
JSON reader `loads` emits nodes in this order by construction and checks
only that the leaves carry the vertices 0..n-1, so what it returns is
valid without a `validate` pass, and tree files of any nesting depth load.
"""

from __future__ import annotations

import math
import random
import re
from typing import Iterator, Optional, Sequence

from .graph import Graph, build_graph
from .record import Record

LEAF = "leaf"
TRUE_TWIN = "T"
FALSE_TWIN = "F"
ATTACH = "A"
LABELS = (TRUE_TWIN, FALSE_TWIN, ATTACH)


class TreeError(ValueError):
    """Raised when a structurally invalid tree is used where a valid one is required."""


class DecompTree(Record):
    __slots__ = ("nodes", "root")

    def __init__(self, nodes: tuple[tuple, ...], root: int):
        self.nodes = nodes
        self.root = root

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
    label, its children's twin lists (None for a leaf) and the list that
    becomes its own. A leaf's is [vertex], an "A" node keeps its left
    child's, and a "T" or "F" node appends the shorter child list to the
    longer (ts) once the item is used, so a chain of joins costs linear
    time and ts is whole once the walk has moved past it. The walk reads
    only the block of nodes ending at `node`. `t` must be valid.
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
            ts = twin[i - first] = [nd[1]]
            yield i, LEAF, None, None, ts
            continue
        label, left, right = nd
        ts_l, ts_r = twin[left - first], twin[right - first]
        twin[left - first] = twin[right - first] = None  # each node has one parent
        ts = twin[i - first] = ts_l if label == ATTACH or len(ts_l) >= len(ts_r) else ts_r
        yield i, label, ts_l, ts_r, ts
        if label != ATTACH:
            ts.extend(ts_r if ts is ts_l else ts_l)


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
    if (len(weights) != 3 or any(not 0 <= w < math.inf for w in weights)
            or not 0 < sum(weights) < math.inf):
        raise TreeError(f"bad label weights {weights!r}: need three finite "
                        "non-negative numbers, not all zero")
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
    return renumber(nodes, roots[0])


def renumber(nodes: Sequence[tuple], root: int) -> DecompTree:
    """The tree below `root` of `nodes`, a list in any order, laid out in
    post-order, which keeps children near parents for the solver's cache."""
    # popping node, right, left and reversing gives left, right, node
    order: list[int] = []
    stack = [root]
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


# One match per piece of the text, told apart by the one group each piece
# has: an internal node's end, its right child's start, a whole leaf, an
# opening with or without the label, a label after a child, or any other
# character (always an error, so only whitespace goes unread). The two most
# common pieces after leaves come first. "~" stands for JSON whitespace:
# space, tab, LF or CR. Integers have no leading zeros.
_PIECE = re.compile(r"""~(?:
      (\})
    | (,~"r"~:)
    | \{~(?: "leaf"~:~(-?(?:0|[1-9][0-9]*))~\}
         | "op"~:~"([TFA])"~,~"l"~:
         | ("l")~: )
    | ,~"op"~:~"([TFA])"
    | ([^ \t\n\r])
)""".replace("~", r"[ \t\n\r]*"), re.ASCII | re.VERBOSE)
_CLOSE, _RIGHT, _LEAF, _OPEN_OP, _OPEN, _OP = range(1, 7)


def _fail(text: str, m, expected: str) -> TreeError:
    start = m.end() - len(m.group().lstrip(" \t\n\r"))
    return TreeError(f"offset {start}: expected {expected}, got {text[start:start + 24]!r}")


def loads(text: str) -> DecompTree:
    """Read the nested JSON tree format without recursion.

    Each regular-expression match is a whole leaf or one piece of an
    internal node, and a node joins the array when it closes, so the nodes
    come out in post-order by construction and files of any nesting depth
    load. Keys may come in any order, except that "l" comes before "r";
    other keys are rejected, as are string escapes. The only check left for
    the end is that the leaves carry the vertices 0..n-1, so the tree
    returned is valid without a `validate` pass.
    """
    nodes: list[tuple] = []
    vertices: list[int] = []
    opened: list[list] = []  # internal nodes not closed yet: [label, left child id]
    want_node = True  # a node starts next; otherwise one has just ended
    for m in _PIECE.finditer(text):
        piece = m.lastindex
        if want_node:
            if piece == _LEAF:
                try:
                    v = int(m.group(_LEAF))
                except ValueError:  # past int()'s digit limit, which no tree reaches
                    raise _fail(text, m, "a vertex id int() can read") from None
                vertices.append(v)
                nodes.append((LEAF, v))
                want_node = False
            elif piece == _OPEN_OP or piece == _OPEN:
                opened.append([m.group(_OPEN_OP), None])  # None without a label
            else:
                raise _fail(text, m, 'a node {"leaf": <int>} or {"op": "T"|"F"|"A", '
                                     '"l": ..., "r": ...}')
            continue
        if not opened:
            raise _fail(text, m, "the end of the text")
        top = opened[-1]
        if piece == _CLOSE and top[1] is not None and top[0] is not None:
            nodes.append((top[0], top[1], len(nodes) - 1))
            opened.pop()
        elif piece == _RIGHT and top[1] is None:
            top[1] = len(nodes) - 1  # the left child has just ended
            want_node = True
        elif piece == _OP and top[0] is None:
            top[0] = m.group(_OP)
        else:
            raise _fail(text, m, ('"r"' if top[0] else '"op" or "r"') if top[1] is None
                        else ("'}'" if top[0] else '"op"'))
    if want_node or opened:
        raise TreeError(f"tree JSON ends early at offset {len(text)}")
    n = len(vertices)
    if len(set(vertices)) != n or min(vertices) < 0 or max(vertices) >= n:
        seen = set()
        for i, v in enumerate(vertices):
            if not 0 <= v < n or v in seen:
                m = [m for m in _PIECE.finditer(text) if m.lastindex == _LEAF][i]
                raise TreeError(f"offset {m.start(_LEAF)}: leaf vertex {v} is repeated "
                                f"or outside 0..{n - 1}")
            seen.add(v)
    return DecompTree(tuple(nodes), len(nodes) - 1)
