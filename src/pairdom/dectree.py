"""Decomposition trees: structure, expansion into a graph, and generation.

A tree is three columns indexed by node id. `labels` holds one byte per
node: "L" for a leaf, else the node's label, one of "T" (true twin), "F"
(false twin) or "A" (attachment, left child keeps the twin set). `left`
and `right` are `array('i')` columns of child ids; a leaf keeps its vertex
in `left` and 0 in `right`. So a node costs 9 bytes. The nodes are in
post-order: every subtree is a contiguous block of ids that ends at its
root, with the left subtree's block right before the right subtree's. So
an internal node i has right child i-1 and left child i-1-(size of the
right subtree), the root is the last node, and every node but the root has
exactly one parent. `validate` checks this layout, so each walk over a
tree, or over one subtree, is one loop over the zipped columns, children
first or parents first, and no tree, however deep, touches the call stack
(`dumps`, which writes in pre-order, keeps its own stack). The functions
that create nodes in another order, `generate` and recognition's replay,
lay them out with `renumber`. The JSON reader `loads` emits nodes in this
order by construction and checks only that the leaves carry the vertices
0..n-1, so what it returns is valid without a `validate` pass, and tree
files of any nesting depth load.

`DecompTree.nodes` shows the same tree as tuples, ("leaf", vertex) or
(label, left, right), built on each access; `from_nodes` is its inverse.
"""

from __future__ import annotations

import math
import random
import re
from array import array
from typing import Iterable, Iterator, Optional, Sequence

from .graph import Graph, build_graph
from .record import Record

LEAF = "leaf"
TRUE_TWIN = "T"
FALSE_TWIN = "F"
ATTACH = "A"
# the label column's byte for a leaf and for each label
LEAF_TAG, TRUE_TWIN_TAG, FALSE_TWIN_TAG, ATTACH_TAG = b"LTFA"
LABEL_TAGS = (TRUE_TWIN_TAG, FALSE_TWIN_TAG, ATTACH_TAG)
_TAG = {LEAF: LEAF_TAG, TRUE_TWIN: TRUE_TWIN_TAG, FALSE_TWIN: FALSE_TWIN_TAG,
        ATTACH: ATTACH_TAG}


class TreeError(ValueError):
    """Raised when a structurally invalid tree is used where a valid one is required."""


class DecompTree(Record):
    __slots__ = ("labels", "left", "right", "root")

    def __init__(self, labels: bytes, left: array, right: array, root: int):
        self.labels = labels
        self.left = left
        self.right = right
        self.root = root

    def __hash__(self) -> int:
        return hash((self.labels, self.left.tobytes(), self.right.tobytes(), self.root))

    @property
    def n_leaves(self) -> int:
        return (len(self.labels) + 1) // 2

    @property
    def nodes(self) -> tuple[tuple, ...]:
        """The nodes as tuples, ("leaf", vertex) or (label, left, right):
        a read-only view built on each access."""
        return tuple((LEAF, lt) if tag == LEAF_TAG else (chr(tag), lt, rt)
                     for tag, lt, rt in zip(self.labels, self.left, self.right))


def leaf(vertex: int) -> tuple:
    return (LEAF, vertex)


def from_nodes(nodes: Iterable[tuple], root: int) -> DecompTree:
    """The tree whose node i is the i-th of `nodes`, each ("leaf", vertex)
    or (label, left, right): the inverse of `DecompTree.nodes`. A node the
    columns cannot hold raises TreeError; `validate` checks the rest."""
    labels = bytearray()
    left, right = array("i"), array("i")
    for i, nd in enumerate(nodes):
        tag = _TAG.get(nd[0])
        if tag is None or len(nd) != (2 if tag == LEAF_TAG else 3):
            raise TreeError(f"node {i}: {nd!r} is neither a leaf nor a T/F/A node "
                            "with two children")
        try:
            left.append(nd[1])
            right.append(0 if tag == LEAF_TAG else nd[2])
        except OverflowError:
            raise TreeError(f"node {i}: {nd!r} has an id outside the columns' range") from None
        labels.append(tag)
    return DecompTree(bytes(labels), left, right, root)


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
    n_nodes = len(t.labels)
    if len(t.left) != n_nodes or len(t.right) != n_nodes:
        return [f"the columns hold {n_nodes}, {len(t.left)} and {len(t.right)} "
                "entries, not one per node"]
    if n_nodes == 0 or t.root != n_nodes - 1:
        return [f"root {t.root} is not the last of {n_nodes} node(s)"]
    violations: list[str] = []
    n = (n_nodes + 1) // 2  # the leaf count of a well-formed tree
    seen = bytearray(n)
    # roots of the finished subtrees in node order, after two placeholders
    # that no child id matches
    roots: list = [_NO_ROOT, _NO_ROOT]
    push, pop = roots.append, roots.pop
    for i, (tag, left, right) in enumerate(zip(t.labels, t.left, t.right)):
        if tag == LEAF_TAG:
            if not 0 <= left < n or seen[left]:
                violations.append(f"node {i}: leaf vertex {left} is repeated or outside "
                                  f"0..{n - 1}")
            else:
                seen[left] = 1
            push(i)
            continue
        if tag not in LABEL_TAGS:
            violations.append(f"node {i}: label {chr(tag)!r} is neither L (leaf) nor "
                              "T, F or A")
            return violations
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

    Yields (i, tag, ts_l, ts_r, ts) for each node i of the subtree: its
    label column byte, its children's twin lists (None for a leaf) and the
    list that becomes its own. A leaf's is [vertex], an "A" node keeps its
    left child's, and a "T" or "F" node appends the shorter child list to
    the longer (ts) once the item is used, so a chain of joins costs linear
    time and ts is whole once the walk has moved past it. The walk reads
    only the block of nodes ending at `node`. `t` must be valid.
    """
    labels, lefts = t.labels, t.left
    last = t.root if node is None else node
    first = last
    while labels[first] != LEAF_TAG:  # a subtree's first node is its leftmost leaf
        first = lefts[first]
    twin: list = [None] * (last + 1 - first)
    end = last + 1
    for i, tag, left, right in zip(range(first, end), labels[first:end],
                                   lefts[first:end], t.right[first:end]):
        if tag == LEAF_TAG:
            ts = twin[i - first] = [left]
            yield i, tag, None, None, ts
            continue
        ts_l, ts_r = twin[left - first], twin[right - first]
        twin[left - first] = twin[right - first] = None  # each node has one parent
        ts = twin[i - first] = ts_l if tag == ATTACH_TAG or len(ts_l) >= len(ts_r) else ts_r
        yield i, tag, ts_l, ts_r, ts
        if tag != ATTACH_TAG:
            ts.extend(ts_r if ts is ts_l else ts_l)


def expand(t: DecompTree) -> tuple[Graph, tuple[int, ...]]:
    """Materialize the graph described by the tree and its root twin set.

    "T" and "A" nodes add a biclique between their children's twin sets,
    "F" nodes add no edge.
    """
    require_valid(t)
    edges: list[tuple[int, int]] = []
    for _, tag, ts_l, ts_r, ts in twin_sets(t):
        if tag == TRUE_TWIN_TAG or tag == ATTACH_TAG:
            edges.extend((u, v) for u in ts_l for v in ts_r)
    return build_graph(t.n_leaves, edges), tuple(sorted(ts))


def edge_count(t: DecompTree, states: Sequence[tuple]) -> int:
    """Edge count of the tree's expansion without building it: each T or A
    node adds a biclique between its children's twin sets, whose sizes the
    solver's states (`dp.solve(t).states`) carry."""
    from .dp import TS_SIZE

    return sum(states[left][TS_SIZE] * states[right][TS_SIZE]
               for tag, left, right in zip(t.labels, t.left, t.right)
               if tag == TRUE_TWIN_TAG or tag == ATTACH_TAG)


def twin_set(t: DecompTree, node: int) -> tuple[int, ...]:
    """Twin set of the subtree rooted at `node` of a valid tree; reads only
    that subtree's nodes."""
    if not (0 <= node < len(t.labels)):
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
    labels = bytearray([LEAF_TAG]) * n
    lefts, rights = array("i", range(n)), array("i", bytes(4 * n))
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
            tag = rng.choices(LABEL_TAGS, weights=connected)[0]
        else:
            tag = rng.choices(LABEL_TAGS, weights=weights)[0]
        if tag == ATTACH_TAG and rng.random() < 0.5:
            a, b = b, a
        roots.append(len(labels))
        labels.append(tag)
        lefts.append(a)
        rights.append(b)
    return renumber(labels, lefts, rights, roots[0])


def renumber(labels: Sequence[int], lefts: Sequence[int], rights: Sequence[int],
             root: int) -> DecompTree:
    """The tree below `root` of the columns, whose nodes come in any order,
    laid out in post-order, which keeps children near parents for the
    solver's cache."""
    # popping node, right, left and reversing gives left, right, node
    order = array("i")
    stack = [root]
    while stack:
        old = stack.pop()
        order.append(old)
        if labels[old] != LEAF_TAG:
            stack.append(lefts[old])
            stack.append(rights[old])
    order.reverse()
    remap = array("i", bytes(4 * len(labels)))
    new_left, new_right = array("i"), array("i")
    for new, old in enumerate(order):
        remap[old] = new
        if labels[old] == LEAF_TAG:
            new_left.append(lefts[old])
            new_right.append(0)
        else:
            new_left.append(remap[lefts[old]])
            new_right.append(remap[rights[old]])
    return DecompTree(bytes(map(labels.__getitem__, order)), new_left, new_right,
                      len(order) - 1)


# --- JSON tree file format -------------------------------------------------
#
# leaf     -> {"leaf": <int>}
# internal -> {"op": "T"|"F"|"A", "l": <node>, "r": <node>}


def dumps(t: DecompTree) -> str:
    """Nested JSON text of the tree, in time linear in its length.

    The text is the tree in pre-order, so one walk with an explicit stack
    writes it: a node pushes its closing brace, its right child, the
    separator before it and its left child. The pieces are joined into a
    chunk once 2**16 have gathered, which keeps the memory near the text's
    size.
    """
    require_valid(t)
    labels, lefts, rights = t.labels, t.left, t.right
    opening = {tag: '{"op": "%c", "l": ' % tag for tag in LABEL_TAGS}
    chunks: list[str] = []
    out: list[str] = []
    emit = out.append
    stack: list = [t.root]  # node ids and the strings between them
    push, pop = stack.append, stack.pop
    while stack:
        x = pop()
        if x.__class__ is str:
            emit(x)
        elif labels[x] == LEAF_TAG:
            emit('{"leaf": %d}' % lefts[x])
            if len(out) >= 1 << 16:
                chunks.append("".join(out))
                out.clear()
        else:
            emit(opening[labels[x]])
            push("}")
            push(rights[x])
            push(', "r": ')
            push(lefts[x])
    out.append("\n")
    chunks.append("".join(out))
    return "".join(chunks)


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
    internal node, and a node joins the columns when it closes, so the nodes
    come out in post-order by construction and files of any nesting depth
    load. Keys may come in any order, except that "l" comes before "r";
    other keys are rejected, as are string escapes. Each leaf's vertex is
    checked as it is read; what is left for the end is that no vertex
    reaches the leaf count, so the tree returned is valid without a
    `validate` pass.
    """
    # a leaf takes at least the 10 characters of {"leaf":0}, so the
    # vertices of a valid tree stay below len(text) // 10
    seen = bytearray(len(text) // 10 + 1)
    labels = bytearray()
    lefts, rights = array("i"), array("i")
    add_label, add_left, add_right = labels.append, lefts.append, rights.append
    tag_of, leaf_tag = _TAG, LEAF_TAG
    opened: list[list] = []  # internal nodes not closed yet: [tag, left child id]
    want_node = True  # a node starts next; otherwise one has just ended
    for m in _PIECE.finditer(text):
        piece = m.lastindex
        if want_node:
            if piece == _LEAF:
                try:
                    v = int(m[_LEAF])
                    repeated = seen[v]
                except (ValueError, IndexError):  # past int()'s digit limit or `seen`
                    repeated = True
                if repeated or v < 0:
                    raise TreeError(f"offset {m.start(_LEAF)}: leaf vertex "
                                    f"{m[_LEAF][:24]} is repeated or outside 0..n-1")
                seen[v] = 1
                add_left(v)
                add_right(0)
                add_label(leaf_tag)
                want_node = False
            elif piece == _OPEN_OP:
                opened.append([tag_of[m[_OPEN_OP]], None])
            elif piece == _OPEN:
                opened.append([None, None])  # the label comes after "l"
            else:
                raise _fail(text, m, 'a node {"leaf": <int>} or {"op": "T"|"F"|"A", '
                                     '"l": ..., "r": ...}')
            continue
        if not opened:
            raise _fail(text, m, "the end of the text")
        top = opened[-1]
        if piece == _CLOSE and top[1] is not None and top[0] is not None:
            add_right(len(labels) - 1)
            add_label(top[0])
            add_left(top[1])
            opened.pop()
        elif piece == _RIGHT and top[1] is None:
            top[1] = len(labels) - 1  # the left child has just ended
            want_node = True
        elif piece == _OP and top[0] is None:
            top[0] = tag_of[m[_OP]]
        else:
            raise _fail(text, m, ('"r"' if top[0] else '"op" or "r"') if top[1] is None
                        else ("'}'" if top[0] else '"op"'))
    if want_node or opened:
        raise TreeError(f"tree JSON ends early at offset {len(text)}")
    n = (len(labels) + 1) // 2  # a tree of binary nodes has one more leaf than joins
    # the n vertices are distinct, so they are 0..n-1 unless one reaches n
    v = seen.find(1, n)
    if v != -1:
        m = next(m for m in _PIECE.finditer(text)
                 if m.lastindex == _LEAF and int(m[_LEAF]) == v)
        raise TreeError(f"offset {m.start(_LEAF)}: leaf vertex {v} is outside 0..{n - 1}")
    return DecompTree(bytes(labels), lefts, rights, len(labels) - 1)
