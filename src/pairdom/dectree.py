"""Decomposition trees: structure, expansion into a graph, and generation.

A tree is two columns in post-order: `labels`, one byte per node ("L" for
a leaf, else "T" true twin, "F" false twin or "A" attachment, whose left
child keeps the twin set), and `vertices`, an `array('i')` of the leaves'
vertices. Each subtree is a block of ids ending at its root, the left
block right before the right, so an internal node i has right child i-1
and left child the root of the subtree ending before that, and the root
is the last node. Each walk is one loop, so no depth touches the call
stack: children-first walks keep the finished subtrees on a stack (their
roots in `children`, twin lists in `expand`, states in `dp.solve`) or
read the right child as i-1, and parents-first walks (`dump`, the
witness, the `nodes` view) take the left child ids from one `children`
pass and read the right child as i-1 too. None of them checks the tree:
a `DecompTree` is valid by construction. The trees that
`generate` and recognition grow by merging subtrees are laid out by
`_from_merges`. `DecompTree.nodes` shows the tree as tuples, ("leaf",
vertex) or (label, left, right); `from_nodes`, its inverse, is where
explicit child ids arrive. `load` reads a tree file `CHUNK` bytes at a
time, so it holds a chunk and the tree's streams and columns, a few bytes
per leaf, but never the whole file; `loads` reads a text the same way.
`dump` writes the file to a text stream a piece at a time.
"""

from __future__ import annotations

import json
import math
import random
import re
from array import array
from bisect import bisect
from collections.abc import Iterable, Iterator, Sequence
from io import BufferedIOBase, StringIO, TextIOBase
from itertools import accumulate, islice

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
    The reader (`load`, `loads`) and `_from_merges` skip the check: their
    columns are a tree by how they are made. As a hashable `Record`, it is
    not mutated once built; `vertices` is an `array('i')`, as no read-only
    view stops reassignment."""
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
        lefts = children(self.labels)
        vertex = iter(self.vertices).__next__
        return tuple((LEAF, vertex()) if tag == LEAF_TAG else (chr(tag), lefts[i], i - 1)
                     for i, tag in enumerate(self.labels))


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
    checks the labels, `scan_ids` the vertices; `children` names a bad node."""
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
    k = scan_ids(vertices, n)[0]
    if k >= 0:
        leaves = (i for i, tag in enumerate(labels) if tag == LEAF_TAG)
        node = next(islice(leaves, k, None), "?")  # the k-th leaf
        violations.append(f"node {node}: leaf vertex {vertices[k]} is repeated or "
                          f"outside 0..{n - 1}")
    return violations


def scan_ids(ids: Iterable[int], n: int) -> tuple[int, bytearray]:
    """The index of the first id outside 0..n-1 or equal to an earlier one,
    or -1 if none is, and the marks: 1 for each vertex an id before it names."""
    marks = bytearray(n)
    for v in ids:
        if not 0 <= v < n or marks[v]:
            return marks.count(1), marks  # each id before it was marked once
        marks[v] = 1
    return -1, marks


def check_ids(ids: Sequence[int], n: int) -> None:
    """ValueError naming the first id, in order, outside 0..n-1 or equal to
    an earlier one: the ids must name distinct vertices of an n-vertex graph."""
    k = scan_ids(ids, n)[0]
    if k >= 0:
        v = ids[k]
        raise ValueError(f"vertex {v} out of range for n={n}" if not 0 <= v < n
                         else f"vertex {v} is listed more than once")


def children(labels: bytes) -> array:
    """The column of left child ids, 0 for a leaf, from one pass with the
    roots of the finished subtrees on a stack. An internal node i's right
    child, the top of that stack, is always i-1, so no column holds it.
    TreeError names the node where the labels are not one tree in post-order."""
    lefts = array("i", bytes(4 * len(labels)))
    roots: list[int] = []
    push, pop = roots.append, roots.pop
    try:
        for i, tag in enumerate(labels):
            if tag == LEAF_TAG:
                push(i)
            else:
                pop()
                lefts[i] = roots[-1]
                roots[-1] = i
    except IndexError:
        raise TreeError(f"node {i}: a {chr(tag)} node without two finished subtrees "
                        "before it") from None
    if len(roots) != 1:
        raise TreeError(f"the subtrees rooted at nodes {roots[:-1]} are outside the "
                        "root's subtree" if roots else "the tree has no nodes")
    return lefts


def expand(t: DecompTree) -> tuple[Graph, tuple[int, ...]]:
    """Materialize the graph described by the tree and its root twin set.

    One walk keeps the twin lists of the finished subtrees on a stack, the
    right one on top. A leaf's is [vertex]. A "T" or "A" node adds a
    biclique between its children's lists, each side's vertices taking the
    other side onto their neighbour lists, with no object per edge: two
    leaves meet at exactly one node, so no edge comes twice. An "A" node
    keeps its left child's list, and a "T" or "F" node appends the shorter
    child list to the longer, so a chain of joins costs linear time.
    """
    adj: list[list[int]] = [[] for _ in range(t.n_leaves)]
    stack: list[list[int]] = []
    vertex = iter(t.vertices).__next__
    for tag in t.labels:
        if tag == LEAF_TAG:
            stack.append([vertex()])
            continue
        ts_r = stack.pop()
        ts_l = stack[-1]
        if tag != FALSE_TWIN_TAG:  # T or A: the biclique
            for u in ts_l:
                adj[u].extend(ts_r)
            for v in ts_r:
                adj[v].extend(ts_l)
        if tag != ATTACH_TAG:  # T or F: the union, in the longer list
            if len(ts_l) < len(ts_r):
                ts_l, ts_r = ts_r, ts_l
                stack[-1] = ts_l
            ts_l.extend(ts_r)
    adjacency = tuple(tuple(sorted(a)) for a in adj)
    return Graph(t.n_leaves, sum(map(len, adjacency)) // 2, adjacency), tuple(sorted(stack[0]))


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
    tags, absorbed, keepers = bytearray(), array("i"), array("i")
    roots = list(range(n))  # each subtree is named by its first leaf
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
        roots.append(a)
        tags.append(tag)
        absorbed.append(b)
        keepers.append(a)
    return _from_merges(n, tags, absorbed, keepers)


def _from_merges(n: int, tags: Sequence[int], absorbed: Sequence[int],
                 keepers: Sequence[int]) -> DecompTree:
    """The tree that merges make of the leaves 0..n-1, unchecked: they must
    join all n subtrees into one. Subtree v starts as leaf v and keeps that
    name; merge s puts a `tags[s]` node over subtrees `keepers[s]` (left)
    and `absorbed[s]` (right). As post(node(tag, W, U)) = post(W) + post(U)
    + tag, each subtree's block is a linked list of node ids (leaf v is v,
    merge s is n+s) that starts at the leaf naming it: `after` holds each
    node's successor, `last` each block's end. One walk reads the root's."""
    total = n + len(tags)
    after = array("i", bytes(4 * total))
    last = array("i", range(n))
    for node, w, u in zip(range(n, total), keepers, absorbed):
        after[last[w]] = u
        after[last[u]] = node
        last[w] = node
    labels, vertices = bytearray([LEAF_TAG]) * total, array("i")
    x = keepers[-1] if tags else 0
    for i in range(total):
        if x < n:
            vertices.append(x)
        else:
            labels[i] = tags[x - n]
        x = after[x]
    return DecompTree._trusted(bytes(labels), vertices)


# --- JSON tree file format -------------------------------------------------
#
# leaf     -> {"leaf": <int>}
# internal -> {"op": "T"|"F"|"A", "l": <node>, "r": <node>}


def dump(t: DecompTree, fp: TextIOBase) -> None:
    """Write the tree's nested JSON text to a text stream, in time linear in
    its length, holding none of it.

    The text is the tree in pre-order, so one walk with an explicit stack
    writes it: a node pushes its closing brace, its right child, the
    separator before it and its left child. It meets the leaves in the
    order of `vertices`.
    """
    labels = t.labels
    lefts = children(labels)
    vertex = iter(t.vertices).__next__
    opening = {tag: '{"op": "%c", "l": ' % tag for tag in LABEL_TAGS}
    write = fp.write
    stack: list = [t.root]  # node ids and the strings between them
    push, pop = stack.append, stack.pop
    while stack:
        x = pop()
        if x.__class__ is str:
            write(x)
        elif labels[x] == LEAF_TAG:
            write('{"leaf": %d}' % vertex())
        else:
            write(opening[labels[x]])
            push("}")
            push(x - 1)
            push(', "r": ')
            push(lefts[x])
    write("\n")


def dumps(t: DecompTree) -> str:
    """The text that `dump` writes."""
    out = StringIO()
    dump(t, out)
    return out.getvalue()


# The reader takes a text in five kinds of piece: a whole leaf, an opening
# with or without its label, the `, "r":` separator, a label after a child
# and a closing brace. A node (a leaf or an opening) starts the text or
# follows a piece that ends in ":", an opening or the separator; every other
# piece follows one that ends a node, in "}" or in the '"' of a label. Below,
# each piece is written with "~" for JSON whitespace (space, tab, LF or CR),
# "#" for an integer without leading zeros and "X" for a label, after the
# look-behind that checks that rule on the character before the piece's
# whitespace. A piece ends on "}", ":" or '"', and no piece is a prefix of
# another.
_PIECES = ((rb'(?<=[}"])', ('~}', '~,~"r"~:', '~,~"op"~:~"X"')),
           (rb'(?<![}"])', ('~{~"leaf"~:~#~}', '~{~"op"~:~"X"~,~"l"~:', '~{~"l"~:')))
_ATOMS = {"~": (rb"[ \t\n\r]*+",), "#": (rb"-?+", rb"(?:0|[1-9][0-9]*+)"), "X": (rb"[TFA]",)}


def _pattern(trie: dict, prefixes: bool) -> bytes:
    """The pieces in `trie` (atom -> rest) as a regex that reads each atom
    once, or, with `prefixes`, one that matches every prefix of them."""
    alts = [atom + _pattern(rest, prefixes) for atom, rest in trie.items()]
    if prefixes:
        return b"(?:%s)?" % b"|".join(alts) if alts else b""
    return b"(?:%s)" % b"|".join(alts) if len(alts) > 1 else b"".join(alts)


def _source(prefixes: bool, tail: bytes) -> bytes:
    """The regex of any one piece, or with `prefixes` of any prefix of one,
    then `tail`."""
    groups = []
    for look_behind, pieces in _PIECES:
        trie: dict = {}
        for piece in pieces:
            node = trie
            for ch in piece:
                for atom in _ATOMS.get(ch, (re.escape(ch.encode()),)):
                    node = node.setdefault(atom, {})
        groups.append(look_behind + _pattern(trie, prefixes))
    return b"(?:%s)" % b"|".join(groups) + tail


# _SHAPE matches a run of whole pieces, each with the whitespace before it.
# Its repeats are possessive, so the match keeps no backtracking state and
# one match covers a chunk's pieces in constant memory, however many there
# are. _PREFIX matches what may still grow into a piece: the rest of the
# text. Few texts need it, so it is compiled, and cached by `re`, on first use.
_SHAPE = re.compile(_source(False, b"*+"))
_PREFIX = _source(True, rb"\Z")
_WS = b" \t\n\r"
_WS_RUN, _DIGIT_RUN = re.compile(rb"[ \t\n\r]*+"), re.compile(rb"[0-9]*+")
# bytes that `load` reads at a time, and the size of the slices that `loads`
# reads its text in: about the most of the text the reader holds at once
CHUNK = 1 << 16


def _delete_all_but(keep: bytes) -> bytes:
    return bytes(range(256)).translate(None, keep)


# In a text of pieces, "f" occurs only in "leaf", digits only in leaf
# vertices, "r" only in the separator and "T", "F" and "A" only as labels.
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
# The stack entry of an open node is its label byte, 0 until the label
# comes, plus 128 once its separator has come. _OPENED holds the entry that
# an opening pushes, by its event byte ("{" or lower case). The entries are
# below 256, so shared int objects, and a deep stack costs one pointer per
# open node.
_OPENED = {ord("{"): 0} | {tag | 32: tag for tag in LABEL_TAGS}


def _lengthens_run(buf: bytearray, end: int) -> bool:
    """Whether buf[end:] only lengthens the whitespace or digit run that
    ends buf[:end], where the unread prefix of a piece ends, so that the
    longer prefix is one as well and holds no whole piece. A number's
    digits may go on unless it is a lone 0."""
    last = buf[end - 1]
    if last in _WS:
        return _WS_RUN.fullmatch(buf, end) is not None
    return (48 <= last <= 57 and (last != 48 or 48 <= buf[end - 2] <= 57)
            and _DIGIT_RUN.fullmatch(buf, end) is not None)


def _append_vertices(vertices: array, stream: bytearray) -> bytes | None:
    """Append the vertices of a ",v,v,...,v" stream to the column, or those
    before the first one that int() or the column cannot hold, and return
    that one's digits."""
    stream[0:1] = b"["
    stream += b"]"
    try:  # json.loads reads the ints faster than int() on split tokens
        vertices.fromlist(json.loads(stream))  # which appends all or none
        return None
    except (ValueError, OverflowError):
        pass
    for digits in stream[1:-1].split(b","):
        try:
            vertices.append(int(digits))
        except (ValueError, OverflowError):
            return bytes(digits)
    return None


def _syntax_error(buf: bytearray, pos: int, base: int, chunks: Iterator) -> TreeError:
    # pos, buf's index of file offset base + pos, is where a piece ends or
    # the file starts, so the byte before it is no whitespace
    expected = ('"}", ", \\"r\\": <node>" or ", \\"op\\": <label>"'
                if base + pos and buf[pos - 1] in b'}"' else
                'a node {"leaf": <int>} or {"op": "T"|"F"|"A", "l": ..., "r": ...}')
    while len(buf) < pos + 24:  # the file's next 24 bytes, for the message
        chunk = next(chunks, b"")
        if not chunk:
            break
        buf += chunk
    got = buf[pos:pos + 24].decode("ascii", "backslashreplace")
    return TreeError(f"offset {base + pos}: expected {expected}, got {got!r}")


def _read(chunks: Iterator) -> DecompTree:
    """The tree of the text that `chunks` yields, a bytes-like piece at a
    time; `load` and `loads` are this reader.

    Per chunk, C does the per-character work: one possessive `_SHAPE`
    match finds all the whole pieces, with no state kept per piece,
    `translate` turns them into the vertex and event streams, and
    `json.loads` reads the vertices into their column. What is left is
    kept, with the byte before it for the look-behinds, for the next chunk.
    A chunk that adds no whole piece has `_PREFIX` check that what is left
    can still grow into one, so a grammar error stops the reader at most a
    chunk after the one that holds it; its offset is where the whole pieces
    end, whatever the chunk size. A prefix that a chunk only lengthens by
    whitespace or digits is not matched again, so a piece longer than a
    chunk costs linear time too. Whitespace after the
    last piece is taken once the text ends.

    Then `scan_ids` checks that the leaves carry 0..n-1, and one Python step
    per event fills the labels: each open node keeps one entry on a stack,
    its label and whether its separator has come, and takes its id when it
    closes, so the nodes come out in post-order and files of any nesting
    depth load. A grammar error names the text offset, a structure error
    the node or the leaf vertex.
    """
    buf = bytearray()  # the byte before `start`, once the text has one, then the rest
    base = start = 0   # the text offset of buf[0]; where the unread prefix starts
    events, vertices = bytearray(), array("i")
    bad = None  # the digits of the first vertex that the column cannot hold
    prefix = False  # whether buf[start:] is known to be a prefix of a piece
    for chunk in chunks:
        end = len(buf)
        buf += chunk
        del chunk
        if prefix and _lengthens_run(buf, end):
            continue
        pos = _SHAPE.match(buf, start).end()
        prefix = pos == start
        if prefix:  # what is left must be able to grow into a piece
            if not re.compile(_PREFIX).match(buf, pos):
                raise _syntax_error(buf, pos, base, chunks)
            continue
        del buf[:start]  # the look-behind byte
        rest = buf[pos - start:]
        del buf[pos - start:]  # buf is now the whole pieces
        events += buf.translate(None, _NOT_EVENT)
        if bad is None:
            stream = buf.translate(_COMMA_FOR_F, _NOT_VERTEX)  # ",v,v,...,v"
            bad = _append_vertices(vertices, stream)
        del buf[:-1]
        buf += rest
        base += pos - 1
        start = 1
    if buf[start:].strip(_WS):
        raise _syntax_error(buf, start, base, chunks)
    size = base + len(buf)
    del buf

    n = events.count(b"f")  # one per leaf
    k = scan_ids(vertices, n)[0]
    fault = bad if k < 0 else b"%d" % vertices[k]
    if fault is not None:
        try:
            int(fault)
        except ValueError:  # past int()'s digit limit
            raise TreeError("a leaf vertex has more digits than int() reads") from None
        raise TreeError(f"leaf vertex {fault[:24].decode()} is repeated or outside "
                        f"0..{n - 1}")

    n_nodes = events.count(b"}")  # one per leaf and one per closing brace
    for piece, event in _FOLDS:
        events = events.replace(piece, event)
    labels = bytearray([LEAF_TAG]) * n_nodes
    opened = _OPENED
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
                top = pop()
                if top < 128:
                    raise TreeError(f'node {i}: an internal node without an "r" child')
                if top == 128:
                    raise TreeError(f'node {i}: an internal node without an "op" label')
                labels[i] = top - 128
                i += 1
            elif e == 114 or e == 49:  # the separator
                top = stack[-1]
                if top >= 128:
                    raise TreeError(f'after node {i - 1}: an internal node with a '
                                    'second "r" child')
                stack[-1] = top + 128
            elif e > 96:  # an opening
                push(opened[e])
            else:  # a label after a child
                top = stack[-1]
                if top & 127:
                    raise TreeError(f'after node {i - 1}: an internal node with a '
                                    'second "op" label')
                stack[-1] = top + e
    except IndexError:  # the stack is empty: nothing is open
        raise TreeError(f"the text goes on after the root, node {i - 1}") from None
    if stack or not i:
        raise TreeError(f"tree JSON ends early at offset {size}")
    return DecompTree._trusted(bytes(labels), vertices)


def load(fp: BufferedIOBase) -> DecompTree:
    """Read the nested JSON tree format from a binary file, `CHUNK` bytes
    at a time, without recursion. Besides the tree, it holds a chunk, the
    piece that runs over its end and the node events, a few bytes per leaf,
    never the whole file.

    Keys may come in any order, except that "l" comes before "r"; other
    keys are rejected, as are string escapes. TreeError names the file
    offset of a grammar error, or the node or leaf vertex at fault.
    """
    return _read(iter(lambda: fp.read(CHUNK), b""))


def loads(text: str | bytes) -> DecompTree:
    """Read the nested JSON tree format, as text or as its bytes, as `load`
    reads a file: in slices of `CHUNK` bytes, with the same errors."""
    if isinstance(text, str):
        try:
            text = text.encode("ascii")
        except UnicodeEncodeError as exc:
            raise TreeError(f"offset {exc.start}: expected JSON in ASCII, got "
                            f"{text[exc.start:exc.start + 24]!r}") from None
    view = memoryview(text)
    return _read(view[i:i + CHUNK] for i in range(0, len(view), CHUNK))
