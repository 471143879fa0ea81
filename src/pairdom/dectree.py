"""Decomposition trees: structure, expansion into a graph, and generation.

A tree is two columns in post-order: `labels`, one byte per node ("L" for
a leaf, else "T" true twin, "F" false twin or "A" attachment, whose left
child keeps the twin set), and `vertices`, an `array('i')` of the leaves'
vertices. Each subtree is a block of ids ending at its root, the left
block right before the right, so an internal node i has right child i-1
and left child the root of the subtree ending before that, and the root
is the last node. Each walk is one loop, so no depth touches the call
stack: children-first walks keep the finished subtrees on a stack or read
the right child as i-1, and parents-first walks (`dumps`, the witness,
the `nodes` view) take child ids from one `children` pass. None of them
checks the tree: a `DecompTree` is valid by construction.
`DecompTree.nodes` shows the tree as tuples, ("leaf", vertex) or (label,
left, right); `from_nodes`, its inverse, is where explicit child ids arrive.
"""

from __future__ import annotations

import json
import math
import random
import re
import sys
from array import array
from bisect import bisect
from itertools import accumulate, islice
from typing import Iterable, Iterator, Sequence

from .graph import Graph
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
# per label byte, the change in the number of finished subtrees
_STEP = [-1] * 256
_STEP[LEAF_TAG] = 1


class TreeError(ValueError):
    """Columns, node tuples or a tree file that are not a tree, or bad `generate` args."""


class DecompTree(Record):
    """A valid tree: `DecompTree(labels, vertices)` raises TreeError with
    `validate`'s violations, joined by "; ", unless the columns are one.
    `loads` and `renumber` skip the check: their columns are a tree by how
    they are made. As a hashable `Record`, it is not mutated once built;
    `vertices` is an `array('i')`, as no read-only view stops reassignment."""
    __slots__ = ("labels", "vertices")

    def __init__(self, labels: bytes, vertices: array):
        violations = validate(labels, vertices)
        if violations:
            raise TreeError("; ".join(violations))
        self.labels = labels
        self.vertices = vertices

    @classmethod
    def _trusted(cls, labels: bytes, vertices: array) -> DecompTree:
        t = cls.__new__(cls)
        t.labels, t.vertices = labels, vertices
        return t

    def __hash__(self) -> int:
        return hash((self.labels, self.vertices.tobytes()))

    @property
    def root(self) -> int:
        return len(self.labels) - 1

    @property
    def n_leaves(self) -> int:
        return len(self.vertices)

    @property
    def nodes(self) -> tuple[tuple, ...]:
        """The nodes as tuples, ("leaf", vertex) or (label, left, right): a
        read-only view built on each access."""
        lefts, rights = children(self.labels)
        vertex = iter(self.vertices).__next__
        return tuple((LEAF, vertex()) if tag == LEAF_TAG else (chr(tag), lt, rt)
                     for tag, lt, rt in zip(self.labels, lefts, rights))


def from_nodes(nodes: Iterable[tuple], root: int) -> DecompTree:
    """The tree whose node i is the i-th of `nodes`, each ("leaf", vertex)
    or (label, left, right): the inverse of `DecompTree.nodes`. TreeError
    names the node unless they are a valid tree in post-order, rooted at
    `root`, with the child ids that order implies."""
    nodes = tuple(nodes)
    labels, vertices = bytearray(), array("i")
    for i, nd in enumerate(nodes):
        tag = _TAG.get(nd[0])
        if tag is None or len(nd) != (2 if tag == LEAF_TAG else 3):
            raise TreeError(f"node {i}: {nd!r} is neither a leaf nor a T/F/A node "
                            "with two children")
        if tag == LEAF_TAG:
            try:
                vertices.append(nd[1])
            except OverflowError:
                raise TreeError(f"node {i}: {nd!r} has a vertex outside the column's "
                                "range") from None
        labels.append(tag)
    if root != len(nodes) - 1:
        raise TreeError(f"root {root} is not the last of {len(nodes)} node(s)")
    t = DecompTree(bytes(labels), vertices)
    for i, (nd, implied) in enumerate(zip(nodes, t.nodes)):
        if tuple(nd) != implied:
            raise TreeError(f"node {i}: children {nd[1:]} are not the roots of the "
                            f"two subtrees ending right before it, {implied[1:]}")
    return t


def validate(labels: bytes, vertices: Sequence[int]) -> list[str]:
    """Check the columns' structural invariants; empty list means ok. The
    labels are L, T, F or A; n leaves have n vertices, 0..n-1, and 2n-1
    nodes; each internal node finds two finished subtrees before it. C
    checks the labels, one loop the vertices; `children` names a bad node."""
    stray = labels.translate(None, b"LTFA")
    if stray:
        i = labels.index(stray[0])
        return [f"node {i}: label {chr(stray[0])!r} is neither L (leaf) nor T, F or A"]
    violations: list[str] = []
    n_leaves, n = labels.count(LEAF_TAG), len(vertices)
    if n_leaves != n:
        violations.append(f"{n_leaves} leaves but {n} leaf vertices")
    if len(labels) != 2 * n_leaves - 1 or min(accumulate(map(_STEP.__getitem__, labels))) < 1:
        try:
            children(labels)  # which raises, naming the node at fault
        except TreeError as exc:
            violations.append(str(exc))
    seen = bytearray(n)
    for v in vertices:
        if not 0 <= v < n or seen[v]:
            k = seen.count(1)  # v's position: each vertex before it was marked once
            leaves = (i for i, tag in enumerate(labels) if tag == LEAF_TAG)
            node = next(islice(leaves, k, None), "?")  # the k-th leaf
            violations.append(f"node {node}: leaf vertex {v} is repeated or outside "
                              f"0..{n - 1}")
            break
        seen[v] = 1
    return violations


def children(labels: bytes) -> tuple[array, array]:
    """The columns of left and right child ids, 0 for a leaf, from one pass
    with the roots of the finished subtrees on a stack. TreeError names the
    node where the labels are not one tree in post-order."""
    n_nodes = len(labels)
    lefts, rights = array("i", bytes(4 * n_nodes)), array("i", bytes(4 * n_nodes))
    roots: list[int] = []
    push, pop = roots.append, roots.pop
    try:
        for i, tag in enumerate(labels):
            if tag == LEAF_TAG:
                push(i)
            else:
                rights[i] = pop()
                lefts[i] = roots[-1]
                roots[-1] = i
    except IndexError:
        raise TreeError(f"node {i}: a {chr(tag)} node without two finished subtrees "
                        "before it") from None
    if len(roots) != 1:
        raise TreeError(f"the subtrees rooted at nodes {roots[:-1]} are outside the "
                        "root's subtree" if roots else "the tree has no nodes")
    return lefts, rights


def twin_sets(t: DecompTree) -> Iterator[tuple]:
    """The twin-set recurrence of the expansion, children first.

    Yields (i, tag, ts_l, ts_r, ts) for each node i: its label column byte,
    its children's twin lists (None for a leaf) and the list that becomes
    its own. A leaf's is [vertex], an "A" node keeps its left child's, and
    a "T" or "F" node appends the shorter child list to the longer (ts)
    once the item is used, so a chain of joins costs linear time and ts is
    whole once the walk has moved past it.
    """
    stack: list[list] = []  # the lists of the finished subtrees, the right one on top
    vertex = iter(t.vertices).__next__
    for i, tag in enumerate(t.labels):
        if tag == LEAF_TAG:
            ts = [vertex()]
            stack.append(ts)
            yield i, tag, None, None, ts
            continue
        ts_r = stack.pop()
        ts_l = stack[-1]
        ts = stack[-1] = ts_l if tag == ATTACH_TAG or len(ts_l) >= len(ts_r) else ts_r
        yield i, tag, ts_l, ts_r, ts
        if tag != ATTACH_TAG:
            ts.extend(ts_r if ts is ts_l else ts_l)


def expand(t: DecompTree) -> tuple[Graph, tuple[int, ...]]:
    """Materialize the graph described by the tree and its root twin set.

    "T" and "A" nodes add a biclique between their children's twin sets,
    "F" nodes add no edge. Each side's vertices take the other side onto
    their neighbour lists, with no object per edge: two leaves meet at
    exactly one node, so no edge comes twice.
    """
    adj: list[list[int]] = [[] for _ in range(t.n_leaves)]
    for _, tag, ts_l, ts_r, ts in twin_sets(t):
        if tag == TRUE_TWIN_TAG or tag == ATTACH_TAG:
            for u in ts_l:
                adj[u].extend(ts_r)
            for v in ts_r:
                adj[v].extend(ts_l)
    adjacency = tuple(tuple(sorted(a)) for a in adj)
    return Graph(t.n_leaves, sum(map(len, adjacency)) // 2, adjacency), tuple(sorted(ts))


def edge_count(t: DecompTree) -> int:
    """Edge count of the tree's expansion without building it, from the
    label column alone: each T or A node adds a biclique between its
    children's twin sets. The twin-set sizes of the finished subtrees are
    ints on a stack, the last one's in `top`."""
    sizes: list[int] = []
    push, pop = sizes.append, sizes.pop
    leaf, attach, true_twin = LEAF_TAG, ATTACH_TAG, TRUE_TWIN_TAG
    m = top = 0
    for tag in t.labels:
        if tag == leaf:
            push(top)
            top = 1
        elif tag == attach:  # the left child keeps the twin set
            left = pop()
            m += left * top
            top = left
        elif tag == true_twin:
            left = pop()
            m += left * top
            top += left
        else:
            top += pop()
    return m


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
    wt, _, wa = weights
    # root merge: keep the expansion connected
    connected = (wt, 0.0, wa) if wt + wa else (1.0, 0.0, 1.0)
    # random.choices' pick, with the cumulative weights built once
    cum, root_cum = list(accumulate(weights)), list(accumulate(connected))
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
        c = cum if roots else root_cum
        tag = LABEL_TAGS[bisect(c, rng.random() * c[-1], 0, 2)]
        if tag == ATTACH_TAG and rng.random() < 0.5:
            a, b = b, a
        roots.append(len(labels))
        labels.append(tag)
        lefts.append(a)
        rights.append(b)
    return renumber(labels, lefts, rights, roots[0])


def renumber(labels: Sequence[int], lefts: Sequence[int], rights: Sequence[int],
             root: int) -> DecompTree:
    """The tree below `root` of columns whose nodes come in any order, a
    leaf keeping its vertex in `lefts`, laid out in post-order. Unchecked:
    the caller's nodes below `root` must be a tree on the leaves 0..n-1."""
    # popping node, right, left visits the nodes in reverse post-order
    out = bytearray()
    vertices = array("i")
    stack = [root]
    while stack:
        old = stack.pop()
        tag = labels[old]
        out.append(tag)
        if tag == LEAF_TAG:
            vertices.append(lefts[old])
        else:
            stack.append(lefts[old])
            stack.append(rights[old])
    out.reverse()
    vertices.reverse()
    return DecompTree._trusted(bytes(out), vertices)


# --- JSON tree file format -------------------------------------------------
#
# leaf     -> {"leaf": <int>}
# internal -> {"op": "T"|"F"|"A", "l": <node>, "r": <node>}


def dumps(t: DecompTree) -> str:
    """Nested JSON text of the tree, in time linear in its length.

    The text is the tree in pre-order, so one walk with an explicit stack
    writes it: a node pushes its closing brace, its right child, the
    separator before it and its left child. It meets the leaves in the
    order of `vertices`. The pieces are joined into a chunk once 2**16
    have gathered, which keeps the memory near the text's size.
    """
    labels = t.labels
    lefts, rights = children(labels)
    vertex = iter(t.vertices).__next__
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
            emit('{"leaf": %d}' % vertex())
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
# The stack entry of an open node: minus its label, or -1 while it has
# none; its separator pushes a 0 above it. Indexed by the event byte of an opening (lower
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
    pulls out the leaf vertices and the node events, after which `loads`
    drops the text, and `json.loads` reads the vertices column. Then one
    Python step per event fills the labels: each open node keeps its label,
    and a mark once its separator has come, on a stack, and takes its id
    when it closes, so the nodes come out in post-order and files of any
    nesting depth load. A grammar error names the text offset, a structure
    error the node or the leaf vertex.
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

    # both streams are made first, so that the text is freed before the
    # Python passes unless the caller still holds it
    stream = text.translate(_COMMA_FOR_F, _NOT_VERTEX)  # ",v,v,...,v"
    events = text.translate(None, _NOT_EVENT)
    del text  # whose length is pos

    # json.loads reads the ints faster than int() on split tokens; in slices
    # of about 64 KiB, so that no list holds a Python int per leaf at once
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

    n_nodes = events.count(b"}")  # one per leaf and one per closing brace
    for piece, event in _FOLDS:
        events = events.replace(piece, event)
    labels = bytearray([LEAF_TAG]) * n_nodes
    mark = _MARK
    stack: list[int] = []
    push, pop = stack.append, stack.pop
    i = 0  # the next node's id
    try:
        for e in events:
            if e < 64:  # "0", "1" or "2": a leaf, then what its fold names
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
                i += 1
            elif e == 114 or e == 49:  # the separator
                if stack[-1] >= 0:
                    raise TreeError(f'after node {i - 1}: an internal node with a '
                                    'second "r" child')
                push(0)
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
        raise TreeError(f"tree JSON ends early at offset {pos}")
    return DecompTree._trusted(bytes(labels), vertices)
