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
lay them out with `renumber`. The JSON reader `loads` checks the text in
whole-text passes that C does and then emits the nodes in this order as
they close, one Python step per node event; it refuses a node without two
children or without exactly one label and leaves that do not carry the
vertices 0..n-1, so what it returns is valid without a `validate` pass, and
tree files of any nesting depth load.

`DecompTree.nodes` shows the same tree as tuples, ("leaf", vertex) or
(label, left, right), built on each access; `from_nodes` is its inverse.
"""

from __future__ import annotations

import json
import math
import random
import re
import sys
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


# `loads` reads a text in five kinds of piece: a whole leaf, an opening with
# or without its label, the `, "r":` separator, a label after a child and a
# closing brace. A node (a leaf or an opening) starts the text or follows a
# piece that ends in ":", an opening or the separator; every other piece
# follows one that ends a node, in "}" or in the '"' of a label. _SHAPE
# matches pieces, each with the JSON whitespace before it ("~": space, tab,
# LF or CR), and its look-behinds check that rule on the character before
# that whitespace. Integers have no leading zeros. The repeats are
# possessive ("+"), which keeps no backtracking state. Python 3.10 has no
# possessive repeats, so there the "+"s are dropped; an ordinary repeat
# keeps some state per piece, so one match covers at most 4096 pieces.
_POSSESSIVE = b"+" if sys.version_info >= (3, 11) else b""
_SHAPE = re.compile(rb"""(?:
      (?<=[}"])~(?: \} | ,~(?: "r"~: | "op"~:~"[TFA]" ) )
    | (?<![}"])~\{~(?: "leaf"~:~-?(?:0|[1-9][0-9]*)~\}
                    | "op"~:~"[TFA]"~,~"l"~:
                    | "l"~: )
){0,4096}+(?:~\Z)?+""".replace(b"~", rb"[ \t\n\r]*+").replace(b"+", _POSSESSIVE),
                    re.VERBOSE)


def _delete_all_but(keep: bytes) -> bytes:
    return bytes(range(256)).translate(None, keep)


# In a text that _SHAPE matches, "f" occurs only in "leaf", digits only in
# leaf vertices, "r" only in the separator and "T", "F" and "A" only as labels.
# So the vertex stream keeps the digits and a comma for each "f", and the
# event stream keeps "{}TFAfr": a leaf is "{f}", an opening "{" or "{T",
# a late label "T", the separator "r" and a closing brace "}". Folding the
# leaf with the byte after it and the label with its opening leaves one
# byte per event, at most three per leaf.
_COMMA_FOR_F = bytes(range(256)).replace(b"f", b",")
_NOT_VERTEX = _delete_all_but(b"0123456789-f")
_NOT_EVENT = _delete_all_but(b"{}TFAfr")
_FOLDS = ((b"{f}r", b"1"),  # a leaf, then the separator: a left child
          (b"{f}}", b"2"),  # a leaf, then its parent's closing brace
          (b"{f}", b"0"),   # a leaf, then a late label
          (b"{T", b"t"), (b"{F", b"f"), (b"{A", b"a"))
# The stack entry of an open node before its separator: minus its label,
# or -1 while it has none. Indexed by the event byte of an opening (lower
# case or "{") or of a late label; the entries are shared int objects, so a
# deep stack costs one pointer per open node.
_MARK = [0] * 128
for _tag in LABEL_TAGS:
    _MARK[_tag] = _MARK[_tag | 32] = -_tag
_MARK[ord("{")] = -1
del _tag


def _syntax_error(text: bytes, pos: int) -> TreeError:
    j = pos
    while j and text[j - 1] in b" \t\n\r":
        j -= 1
    expected = ('"}", ", \\"r\\": <node>" or ", \\"op\\": <label>"'
                if j and text[j - 1] in b'}"' else
                'a node {"leaf": <int>} or {"op": "T"|"F"|"A", "l": ..., "r": ...}')
    got = text[pos:pos + 24].decode("ascii", "backslashreplace")
    return TreeError(f"offset {pos}: expected {expected}, got {got!r}")


def loads(text: str | bytes) -> DecompTree:
    """Read the nested JSON tree format, as text or as its bytes, without
    recursion.

    Keys may come in any order, except that "l" comes before "r"; other
    keys are rejected, as are string escapes. C does the per-character work
    in whole-text passes: `_SHAPE` checks the piece grammar, `translate`
    pulls out the leaf vertices and the node events, and `json.loads`
    reads the vertices. Then one Python step per event fills the columns:
    each open node keeps its label and, once its separator has come, the
    node count at that point, one past its left child's id, on a stack. A
    node joins the columns when it closes, so the nodes come out in
    post-order by construction and files of any nesting depth load. A
    grammar error names the text offset, a structure error the node or the
    leaf vertex. The tree returned is valid without a `validate` pass.
    """
    if isinstance(text, str):
        try:
            text = text.encode("ascii")
        except UnicodeEncodeError as exc:
            raise TreeError(f"offset {exc.start}: expected JSON in ASCII, got "
                            f"{text[exc.start:exc.start + 24]!r}") from None
    pos = 0
    while True:
        end = _SHAPE.match(text, pos).end()
        if end == pos:
            break
        pos = end
    if pos != len(text):
        raise _syntax_error(text, pos)

    # json.loads reads the ints faster than int() on split tokens; in slices
    # of about 64 KiB, so that no list holds a Python int per leaf at once
    stream = text.translate(_COMMA_FOR_F, _NOT_VERTEX)  # ",v,v,...,v"
    n = stream.count(b",")
    seen = bytearray(n)
    vertices = array("i")
    start = 0
    while start < len(stream):
        end = stream.find(b",", start + (1 << 16))
        if end == -1:
            end = len(stream)
        try:
            chunk = json.loads(b"[%s]" % stream[start + 1:end])
        except ValueError:  # past int()'s digit limit
            raise TreeError("a leaf vertex has more digits than int() reads") from None
        for v in chunk:
            if not 0 <= v < n or seen[v]:
                raise TreeError(f"leaf vertex {str(v)[:24]} is repeated or outside "
                                f"0..{n - 1}")
            seen[v] = 1
        vertices.fromlist(chunk)
        start = end
    del stream

    events = text.translate(None, _NOT_EVENT)
    n_nodes = events.count(b"}")  # one per leaf and one per closing brace
    for piece, event in _FOLDS:
        events = events.replace(piece, event)
    labels = bytearray([LEAF_TAG]) * n_nodes
    lefts, rights = array("i", [0]) * n_nodes, array("i", [0]) * n_nodes
    vertex = iter(vertices).__next__
    mark = _MARK
    stack: list[int] = []
    push, pop = stack.append, stack.pop
    i = 0  # the next node's id
    try:
        for e in events:
            if e < 64:  # "0", "1" or "2": a leaf, then what its fold names
                lefts[i] = vertex()
                i += 1
                if e == 48:
                    continue
            if e == 125 or e == 50:  # a closing brace
                split = pop()
                if split < 0:
                    raise TreeError(f'node {i}: an internal node without an "r" child')
                tag = pop()
                if tag == -1:
                    raise TreeError(f'node {i}: an internal node without an "op" label')
                labels[i] = -tag
                lefts[i] = split - 1
                rights[i] = i - 1
                i += 1
            elif e == 114 or e == 49:  # the separator
                if stack[-1] >= 0:
                    raise TreeError(f'after node {i - 1}: an internal node with a '
                                    'second "r" child')
                push(i)
            elif e > 96:  # an opening
                push(mark[e])
            else:  # a label after a child
                top = -1 if stack[-1] < 0 else -2
                if stack[top] != -1:
                    raise TreeError(f'after node {i - 1}: an internal node with a '
                                    'second "op" label')
                stack[top] = mark[e]
    except IndexError:  # the stack is empty: nothing is open
        raise TreeError(f"the text goes on after the root, node {i - 1}") from None
    if stack or not i:
        raise TreeError(f"tree JSON ends early at offset {len(text)}")
    return DecompTree(bytes(labels), lefts, rights, i - 1)
