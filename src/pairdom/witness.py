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
the tree alone in O(n).
"""

from __future__ import annotations

import functools
from typing import Sequence

from .dectree import ATTACH, FALSE_TWIN, LEAF, TRUE_TWIN, DecompTree
from .dp import INF, NodeState, cond_d2, eval_gamma_k

PDS = -1  # request for a minimum paired-dominating set of the subtree
HIT, DOM = 1, 2  # needs of a k = 0 request: D hits TS, D dominates TS
PAIR = 4  # node flag: add one pair across the biclique


class WitnessError(RuntimeError):
    """No valid witness could be assembled (or gamma_p is infinite)."""


@functools.cache
def _child_needs(label: str, need: int, ts_l: bool, pr_l: bool,
                 ts_r: bool, pr_r: bool):
    """Needs (need_l, need_r) of children both asked for k = 0, or None. A
    child's 0-set can hit its TS unless mty_ts, dominate it unless mty_pr,
    and do both unless either; the parent's need and label decide the rest."""
    allowed_l = [n for n in range(4) if not (n & HIT and ts_l or n & DOM and pr_l)]
    allowed_r = [n for n in range(4) if not (n & HIT and ts_r or n & DOM and pr_r)]
    for nl in allowed_l:
        for nr in allowed_r:
            hl, dl, hr, dr = nl & HIT, nl & DOM, nr & HIT, nr & DOM
            if label == FALSE_TWIN:  # no edges between the sides
                ok, hit, dom = True, hl or hr, dl and dr
            elif label == TRUE_TWIN:  # a D vertex in one TS sees all the other
                ok, hit, dom = True, hl or hr, (hl or dr) and (hr or dl)
            else:  # A: TS is the left one, the right TS must be dominated now
                ok, hit, dom = hl or dr, hl, hr or dl
            if ok and (hit or not need & HIT) and (dom or not need & DOM):
                return nl, nr
    return None


def _split(i: int, label: str, k: int, need: int, sl: NodeState,
           sr: NodeState, target: int) -> tuple[int, int, int, int, int, int]:
    """(kl, kr, need_l, need_r, gamma_kl, gamma_kr) for a k-set request
    with `need` at node i, whose gamma_k is `target`. The children's
    gamma values, which must add up to `target`, become their own targets.

    k = kl + kr at F nodes, kl - kr at A nodes (all kr are paired) and
    kl + kr - 2h at T nodes (h pairs, 0 <= h <= min(kl, kr)). A child's
    curve falls to alpha, stays flat (by parity) up to beta and rises after
    it, so each combine case of `dp` has an optimal split in closed form:
    the children's alphas where the label's relation allows them, else the
    allowed split nearest to them.
    """
    al, bl, ar, br = sl.alpha, sl.beta, sr.alpha, sr.beta
    if label == ATTACH:
        if ar == bl == 0:  # combine_attach's e: the right 0-set pairs one more
            kr = int(k == 0 and sl.mty_ts and sr.mty_pr)
        else:  # also the collapse case (ar > bl) and cond_d2's other sub-case
            kr = max(0, min(max(ar, al - k), br, bl - k))
        kl = k + kr
    elif label == TRUE_TWIN and al - ar > k:  # as at an A node, left first
        kr = min(al - k, br)
        kl = kr + k
    elif label == TRUE_TWIN and ar - al > k:  # as at an A node, right first
        kl = min(ar - k, bl)
        kr = kl + k
    elif label == TRUE_TWIN and al + ar >= k:  # both alphas, fixed for parity
        odd = (al + ar - k) % 2
        kl, kr = (al - odd, ar) if al else (al, ar - odd)
    else:  # F, or T with al + ar < k: no pairs across
        kl = max(min(max(k - ar, al), bl, k), k - sr.ts_size)
        kr = k - kl
    if (kl, kr) == (0, 0) and label != FALSE_TWIN and not cond_d2(sl, sr):
        # (1, 1) or (2, 2) costs the same and hits both twin sets, which
        # meets any need; under cond_d2, (0, 0) is the only optimal split
        kl = kr = 1 if al != ar else 2
    gl, gr = eval_gamma_k(sl, kl), eval_gamma_k(sr, kr)
    if gl + gr != target:
        raise WitnessError(f"node {i}: split ({kl}, {kr}) of k={k} misses "
                           f"gamma_k={target}")
    if kl or kr:  # needs come with k = 0, so kl = kr > 0 hit both TS
        return kl, kr, 0, 0, gl, gr
    needs = _child_needs(label, need, sl.mty_ts, sl.mty_pr, sr.mty_ts, sr.mty_pr)
    if needs is None:
        raise WitnessError(f"node {i}: no split of k=0 meets needs {need}")
    return 0, 0, *needs, gl, gr


def _merge(a: list, b: list) -> list:
    """a and b as one list: the shorter is appended to the longer."""
    if len(a) < len(b):
        a, b = b, a
    a.extend(b)
    return a


def _certificate(t: DecompTree, states: Sequence[NodeState]) -> list[tuple[int, int, int]]:
    """The pairs (node, u, v) of a minimum paired-dominating set of a valid
    tree's graph: u and v are matched, and `node` is the T or A node whose
    biclique joins them (u on its left, v on its right)."""
    nodes = t.nodes
    if states[t.root].gamma_p == INF:
        raise WitnessError("gamma_p is infinite: no witness exists")
    want = [0] * len(nodes)  # per node: the k of its request, or PDS
    need = bytearray(len(nodes))  # HIT/DOM needs of a k = 0 request, PAIR
    gamma = [0] * len(nodes)  # per node: gamma_k of its k request, set by its parent's split
    want[t.root] = PDS
    for i in range(t.root, -1, -1):
        nd = nodes[i]
        if nd[0] == LEAF:
            continue
        label, left, right = nd
        k = want[i]
        if k == PDS:
            if label == FALSE_TWIN:  # two components: one set for each
                want[left] = want[right] = PDS
                continue
            k = want[i] = 0
            need[i] = PAIR if states[i].mty_pr else DOM
            gamma[i] = eval_gamma_k(states[i], 0)
        (want[left], want[right], need[left], need[right], gamma[left],
         gamma[right]) = _split(i, label, k, need[i] & (HIT | DOM), states[left],
                                states[right], gamma[i])

    pairs: list[tuple[int, int, int]] = []
    exempt: list = [None] * len(nodes)
    free: list = [None] * len(nodes)  # twin-set vertices not in D
    for i, nd in enumerate(nodes):
        if nd[0] == LEAF:
            exempt[i], free[i] = ([nd[1]], []) if want[i] == 1 else ([], [nd[1]])
            continue
        label, left, right = nd
        ex_l, ex_r, free_l, free_r = exempt[left], exempt[right], free[left], free[right]
        exempt[left] = exempt[right] = free[left] = free[right] = None
        if need[i] & PAIR:
            if not (free_l and free_r):
                raise WitnessError(f"node {i}: no twin-set vertex is left to add a pair")
            pairs.append((i, free_l.pop(), free_r.pop()))
        # h = (kl + kr - k) / 2 cross pairs: 0 at an F node, kr at an A node
        for _ in range((len(ex_l) + len(ex_r) - want[i]) // 2):
            pairs.append((i, ex_l.pop(), ex_r.pop()))
        if label == ATTACH:
            exempt[i], free[i] = ex_l, free_l
        else:
            exempt[i], free[i] = _merge(ex_l, ex_r), _merge(free_l, free_r)
    return pairs


def _check(t: DecompTree, pairs: Sequence[tuple[int, int, int]]) -> None:
    """Raise WitnessError unless the pairs (node, u, v) are edges of the
    tree's graph on distinct vertices that dominate it. u and v are adjacent
    when the T or A node's left child's twin set holds u and its right
    child's holds v; v is dominated when it is in D or a D vertex outside a
    subtree sees a twin set that holds v."""
    nodes = t.nodes
    n = t.n_leaves
    in_d = bytearray(n)
    for _, u, v in pairs:
        for w in (u, v):
            if not 0 <= w < n or in_d[w]:
                raise WitnessError(f"vertex {w} is repeated or outside 0..{n - 1}")
            in_d[w] = 1
    # children first: the first node of each subtree's block, and whether D
    # hits the twin set
    leaf_of = [0] * n
    first = list(range(len(nodes)))
    hit = bytearray(len(nodes))
    for i, nd in enumerate(nodes):
        if nd[0] == LEAF:
            leaf_of[nd[1]] = i
            hit[i] = in_d[nd[1]]
        else:
            label, left, right = nd
            first[i] = first[left]
            hit[i] = hit[left] or (label != ATTACH and hit[right])
    # parents first: whether a D vertex outside the subtree sees the whole
    # twin set, and the highest node whose twin set still holds it
    seen = bytearray(len(nodes))
    top = list(range(len(nodes)))
    for i in range(t.root, -1, -1):
        nd = nodes[i]
        if nd[0] == LEAF:
            if not (seen[i] or in_d[nd[1]]):
                raise WitnessError(f"vertex {nd[1]} is not dominated")
            continue
        label, left, right = nd
        join = label != FALSE_TWIN
        seen[left] = seen[i] or (join and hit[right])
        seen[right] = (seen[i] and label != ATTACH) or (join and hit[left])
        top[left] = top[i]
        if label != ATTACH:
            top[right] = top[i]
    for j, u, v in pairs:
        nd = nodes[j]
        x, y = leaf_of[u], leaf_of[v]
        if (nd[0] not in (TRUE_TWIN, ATTACH)
                or not first[nd[1]] <= x <= nd[1] < y <= nd[2]
                or top[x] < nd[1] or top[y] < nd[2]):
            raise WitnessError(f"node {j}: pair ({u}, {v}) is not an edge")


def reconstruct_witness(t: DecompTree, states: Sequence[NodeState]) -> tuple[int, ...]:
    """A minimum paired-dominating set of a valid tree's graph, sorted."""
    pairs = _certificate(t, states)
    _check(t, pairs)
    if 2 * len(pairs) != states[t.root].gamma_p:
        raise WitnessError(f"witness size {2 * len(pairs)} != gamma_p "
                           f"{states[t.root].gamma_p}")
    return tuple(sorted(w for _, u, v in pairs for w in (u, v)))
