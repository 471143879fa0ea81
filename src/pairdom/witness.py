"""Reconstruct a minimum paired-dominating set from the solver's states.

A node's twin set TS holds its vertices that later T/A joins connect to. A
k-set of a node has size gamma_k, dominates the subtree outside TS, leaves
k vertices of D n TS *exempt* (for a parent to pair) and matches the rest.
The downward loop (parents first) asks each node for a k-set, perhaps
needing it to hit or dominate TS, or for a paired-dominating set, and
splits that into requests to its children in closed form, by the combine
case of `dp` that formed the node's state. The upward loop (children
first) forms the pairs across T and A bicliques; each node hands its
exempt vertices and its twin-set vertices not in D up as two lists, the
shorter appended to the longer. `_check` then verifies the pairs against
the tree alone in O(n). The child ids come from one `dectree.children` pass.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

from .dectree import (ATTACH_TAG, FALSE_TWIN_TAG, LEAF_TAG, TRUE_TWIN_TAG, DecompTree,
                      children, scan_ids)
from .dp import GAMMA_P, INF, MTY_PR, NodeState, cond_d2, eval_gamma_k

PDS = -1  # request for a minimum paired-dominating set of the subtree
HIT, DOM = 1, 2  # needs of a k = 0 request: D hits TS, D dominates TS
PAIR = 4  # node flag: add one pair across the biclique


class WitnessError(RuntimeError):
    """No valid witness could be assembled (or gamma_p is infinite)."""


@functools.cache
def _child_needs(tag: int, need: int, ts_l: bool, pr_l: bool,
                 ts_r: bool, pr_r: bool):
    """Needs (need_l, need_r) of children both asked for k = 0, or None. A
    child's 0-set can hit its TS unless mty_ts, dominate it unless mty_pr,
    and do both unless either; the parent's need and label decide the rest."""
    allowed_l = [n for n in range(4) if not (n & HIT and ts_l or n & DOM and pr_l)]
    allowed_r = [n for n in range(4) if not (n & HIT and ts_r or n & DOM and pr_r)]
    for nl in allowed_l:
        for nr in allowed_r:
            hl, dl, hr, dr = nl & HIT, nl & DOM, nr & HIT, nr & DOM
            if tag == FALSE_TWIN_TAG:  # no edges between the sides
                ok, hit, dom = True, hl or hr, dl and dr
            elif tag == TRUE_TWIN_TAG:  # a D vertex in one TS sees all the other
                ok, hit, dom = True, hl or hr, (hl or dr) and (hr or dl)
            else:  # A: TS is the left one, the right TS must be dominated now
                ok, hit, dom = hl or dr, hl, hr or dl
            if ok and (hit or not need & HIT) and (dom or not need & DOM):
                return nl, nr
    return None


def _split(i: int, tag: int, k: int, need: int, s: NodeState, sl: NodeState,
           sr: NodeState) -> tuple[int, int, int, int]:
    """(kl, kr, need_l, need_r) for a k-set request with `need` at node i,
    labelled `tag`, of state s and children's states sl and sr. The
    children's gamma values must add up to the node's own gamma_k.

    k = kl + kr at F nodes, kl - kr at A nodes (all kr are paired) and
    kl + kr - 2h at T nodes (h pairs, 0 <= h <= min(kl, kr)). A child's
    curve falls to alpha, stays flat (by parity) up to beta and rises after
    it, so each combine case of `dp` has an optimal split in closed form:
    the children's alphas where the label's relation allows them, else the
    allowed split nearest to them.
    """
    _, al, bl, _, _, ts_l, pr_l = sl
    _, ar, br, size_r, _, ts_r, pr_r = sr
    if tag == ATTACH_TAG:
        if ar == bl == 0:  # combine_attach's e: the right 0-set pairs one more
            kr = int(k == 0 and ts_l and pr_r)
        else:  # also the collapse case (ar > bl) and cond_d2's other sub-case
            kr = max(0, min(max(ar, al - k), br, bl - k))
        kl = k + kr
    elif tag == TRUE_TWIN_TAG and al - ar > k:  # as at an A node, left first
        kr = min(al - k, br)
        kl = kr + k
    elif tag == TRUE_TWIN_TAG and ar - al > k:  # as at an A node, right first
        kl = min(ar - k, bl)
        kr = kl + k
    elif tag == TRUE_TWIN_TAG and al + ar >= k:  # both alphas, fixed for parity
        odd = (al + ar - k) % 2
        kl, kr = (al - odd, ar) if al else (al, ar - odd)
    else:  # F, or T with al + ar < k: no pairs across
        kl = max(min(max(k - ar, al), bl, k), k - size_r)
        kr = k - kl
    if (kl, kr) == (0, 0) and tag != FALSE_TWIN_TAG and not cond_d2(al, bl, ar, br):
        # (1, 1) or (2, 2) costs the same and hits both twin sets, which
        # meets any need; under cond_d2, (0, 0) is the only optimal split
        kl = kr = 1 if al != ar else 2
    target = eval_gamma_k(s, k)
    if eval_gamma_k(sl, kl) + eval_gamma_k(sr, kr) != target:
        raise WitnessError(f"node {i}: split ({kl}, {kr}) of k={k} misses "
                           f"gamma_k={target}")
    if kl or kr:  # needs come with k = 0, so kl = kr > 0 hit both TS
        return kl, kr, 0, 0
    needs = _child_needs(tag, need, ts_l, pr_l, ts_r, pr_r)
    if needs is None:
        raise WitnessError(f"node {i}: no split of k=0 meets needs {need}")
    return 0, 0, *needs


def _merge(a: list, b: list) -> list:
    """a and b as one list: the shorter is appended to the longer."""
    if len(a) < len(b):
        a, b = b, a
    a.extend(b)
    return a


def _certificate(t: DecompTree, states: Sequence[NodeState],
                 kids: tuple) -> list[tuple[int, int, int]]:
    """The pairs (node, u, v) of a minimum paired-dominating set of the
    tree's graph: u and v are matched, and `node` is the T or A node whose
    biclique joins them (u on its left, v on its right). `kids` is
    `children(t.labels)`."""
    labels = t.labels
    lefts, rights = kids
    n_nodes = len(labels)
    if states[t.root][GAMMA_P] == INF:
        raise WitnessError("gamma_p is infinite: no witness exists")
    want = [0] * n_nodes  # per node: the k of its request, or PDS
    need = bytearray(n_nodes)  # HIT/DOM needs of a k = 0 request, PAIR
    want[t.root] = PDS
    for i, tag, left, right in zip(range(t.root, -1, -1), reversed(labels),
                                   reversed(lefts), reversed(rights)):
        if tag == LEAF_TAG:
            continue
        k = want[i]
        if k == PDS:
            if tag == FALSE_TWIN_TAG:  # two components: one set for each
                want[left] = want[right] = PDS
                continue
            k = want[i] = 0
            need[i] = PAIR if states[i][MTY_PR] else DOM
        want[left], want[right], need[left], need[right] = _split(
            i, tag, k, need[i] & (HIT | DOM), states[i], states[left], states[right])

    pairs: list[tuple[int, int, int]] = []
    # (exempt, twin-set vertices not in D) per finished subtree, right on top
    stack: list[tuple[list, list]] = []
    push, pop = stack.append, stack.pop
    vertex = iter(t.vertices).__next__
    for i, tag in enumerate(labels):
        if tag == LEAF_TAG:
            push(([vertex()], []) if want[i] == 1 else ([], [vertex()]))
            continue
        ex_r, free_r = pop()
        ex_l, free_l = stack[-1]
        if need[i] & PAIR:
            if not (free_l and free_r):
                raise WitnessError(f"node {i}: no twin-set vertex is left to add a pair")
            pairs.append((i, free_l.pop(), free_r.pop()))
        # h = (kl + kr - k) / 2 cross pairs: 0 at an F node, kr at an A node
        for _ in range((len(ex_l) + len(ex_r) - want[i]) // 2):
            pairs.append((i, ex_l.pop(), ex_r.pop()))
        if tag != ATTACH_TAG:
            stack[-1] = (_merge(ex_l, ex_r), _merge(free_l, free_r))
    return pairs


def _check(t: DecompTree, pairs: Sequence[tuple[int, int, int]], kids: tuple) -> None:
    """Raise WitnessError unless the pairs (node, u, v) are edges of the
    tree's graph on distinct vertices that dominate it. u and v are adjacent
    when the T or A node's left child's twin set holds u and its right
    child's holds v; v is dominated when it is in D or a D vertex outside a
    subtree sees a twin set that holds v. `kids` is `children(t.labels)`."""
    labels, vertices = t.labels, t.vertices
    lefts, rights = kids
    n_nodes = len(labels)
    n = t.n_leaves
    k, in_d = scan_ids((w for _, u, v in pairs for w in (u, v)), n)
    if k >= 0:
        raise WitnessError(f"vertex {pairs[k // 2][1 + k % 2]} is repeated or "
                           f"outside 0..{n - 1}")
    # children first: the first node of each subtree's block, and whether D
    # hits the twin set
    leaf_of = [0] * n
    first = [0] * n_nodes
    hit = bytearray(n_nodes)
    vertex = iter(vertices).__next__
    for i, (tag, left, right) in enumerate(zip(labels, lefts, rights)):
        if tag == LEAF_TAG:
            v = vertex()
            leaf_of[v] = first[i] = i
            hit[i] = in_d[v]
        else:
            first[i] = first[left]
            hit[i] = hit[left] or (tag != ATTACH_TAG and hit[right])
    # parents first: whether a D vertex outside the subtree sees the whole
    # twin set, and the highest node whose twin set still holds it
    seen = bytearray(n_nodes)
    top = [0] * n_nodes
    top[t.root] = t.root
    vertex = reversed(vertices).__next__
    for i, tag, left, right in zip(range(t.root, -1, -1), reversed(labels),
                                   reversed(lefts), reversed(rights)):
        if tag == LEAF_TAG:
            v = vertex()
            if not (seen[i] or in_d[v]):
                raise WitnessError(f"vertex {v} is not dominated")
            continue
        join = tag != FALSE_TWIN_TAG
        seen[left] = seen[i] or (join and hit[right])
        seen[right] = (seen[i] and tag != ATTACH_TAG) or (join and hit[left])
        top[left] = top[i]
        top[right] = right if tag == ATTACH_TAG else top[i]
    for j, u, v in pairs:
        left, right = lefts[j], rights[j]
        x, y = leaf_of[u], leaf_of[v]
        if (labels[j] not in (TRUE_TWIN_TAG, ATTACH_TAG)
                or not first[left] <= x <= left < y <= right
                or top[x] < left or top[y] < right):
            raise WitnessError(f"node {j}: pair ({u}, {v}) is not an edge")


def reconstruct_witness(t: DecompTree, states: Sequence[NodeState]) -> tuple[int, ...]:
    """A minimum paired-dominating set of the tree's graph, sorted."""
    kids = children(t.labels)
    pairs = _certificate(t, states, kids)
    _check(t, pairs, kids)
    gamma_p = states[t.root][GAMMA_P]
    if 2 * len(pairs) != gamma_p:
        raise WitnessError(f"witness size {2 * len(pairs)} != gamma_p {gamma_p}")
    return tuple(sorted(w for _, u, v in pairs for w in (u, v)))
