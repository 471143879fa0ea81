"""Reconstruct an explicit minimum paired-dominating set from DP states.

Certificate-carrying re-descent: for a tree node v and exemption count k we
materialize a small pool of representative certificates (D, X, M) where D is
a set of size gamma_k achieving the DP value, X the k unpaired twin-set
vertices, and M an explicit perfect matching of D - X. Pools keep up to three
variants per (v, 0) — a plain one, one hitting the twin set, and one that is
already paired-dominating — because an attachment parent may need any of
them to dominate the right child's twin set.

Every certificate is validated directly against the expanded graph before
use, so a reconstruction bug cannot produce a silently wrong witness. Count
mode never calls into this module; witness mode may cost more than linear
time (it materializes vertex sets per node).
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from . import dectree
from .dectree import DecompTree
from .dp import INF, NodeState, eval_gamma_k
from .graph import Graph, is_dominating

Cert = tuple[frozenset, frozenset, tuple]  # (D, X, matching pairs)

PLAIN, TSHIT, PAIRED = 0, 1, 2  # pool slots


class WitnessError(RuntimeError):
    """No valid witness certificate could be assembled (or gamma_p infinite)."""


class _Reconstructor:
    def __init__(self, t: DecompTree, states: Sequence[NodeState]):
        self.t = t
        self.states = states
        self.g, _ = dectree.expand(t)
        self.vhat: list[frozenset] = []
        self.twin: list[frozenset] = []
        for i, label, _, _, ts in dectree.twin_sets(t):
            self.twin.append(ts)
            if label == dectree.LEAF:
                self.vhat.append(ts)  # a leaf's vertex set is its twin set
            else:
                _, left, right = t.nodes[i]
                self.vhat.append(self.vhat[left] | self.vhat[right])
        self._rep_cache: dict[tuple[int, int], list[Optional[Cert]]] = {}

    # --- certificate validation -------------------------------------------

    def _valid_cert(self, node: int, k: int, cert: Cert) -> bool:
        d, x, m = cert
        ts = self.twin[node]
        if len(x) != k or not x <= d or not x <= ts:
            return False
        if len(d) != eval_gamma_k(self.states[node], k):
            return False
        matched = [v for pair in m for v in pair]
        if len(set(matched)) != len(matched) or set(matched) != set(d - x):
            return False
        if any(not self.g.has_edge(a, b) for a, b in m):
            return False
        return is_dominating(self.g, d, self.vhat[node] - ts)

    def _pair_dominating(self, node: int, cert: Cert) -> bool:
        d, x, _ = cert
        return not x and is_dominating(self.g, d, self.vhat[node])

    # --- representative pools ---------------------------------------------

    def rep(self, node: int, k: int) -> list[Optional[Cert]]:
        """Certificates for D of size gamma_k at `node`; slot layout
        [PLAIN, TSHIT, PAIRED], entries None when not found/not applicable."""
        key = (node, k)
        if key in self._rep_cache:
            return self._rep_cache[key]
        pool: list[Optional[Cert]] = [None, None, None]
        self._rep_cache[key] = pool  # trees are acyclic: no re-entry on key
        want_variants = k == 0
        for cert in self._candidates(node, k):
            if not self._valid_cert(node, k, cert):
                continue
            if pool[PLAIN] is None:
                pool[PLAIN] = cert
            if want_variants:
                if pool[TSHIT] is None and cert[0] & self.twin[node]:
                    pool[TSHIT] = cert
                if pool[PAIRED] is None and self._pair_dominating(node, cert):
                    pool[PAIRED] = cert
                if pool[TSHIT] and pool[PAIRED]:
                    break
            else:
                break
        return pool

    def _child_pools(self, left: int, kl: int, right: int, kr: int):
        for cl in self.rep(left, kl):
            if cl is None:
                continue
            for cr in self.rep(right, kr):
                if cr is None:
                    continue
                yield cl, cr

    def _candidates(self, node: int, k: int):
        t = self.t
        if t.is_leaf(node):
            v = t.leaf_vertex(node)
            if k == 0:
                yield frozenset(), frozenset(), ()
            else:
                yield frozenset((v,)), frozenset((v,)), ()
            return
        left, right = t.children(node)
        sl, sr = self.states[left], self.states[right]
        label = t.label(node)
        target = eval_gamma_k(self.states[node], k)

        if label == dectree.FALSE_TWIN:
            for kl in range(0, min(k, sl.ts_size) + 1):
                kr = k - kl
                if kr > sr.ts_size:
                    continue
                if eval_gamma_k(sl, kl) + eval_gamma_k(sr, kr) != target:
                    continue
                for (dl, xl, ml), (dr, xr, mr) in self._child_pools(left, kl, right, kr):
                    yield dl | dr, xl | xr, ml + mr
            return

        if label == dectree.TRUE_TWIN:
            # h exempt vertices from each side pair up across the new biclique
            for kl in range(0, sl.ts_size + 1):
                for kr in range(0, sr.ts_size + 1):
                    h2 = kl + kr - k
                    if h2 < 0 or h2 % 2:
                        continue
                    h = h2 // 2
                    if h > kl or h > kr:
                        continue
                    if eval_gamma_k(sl, kl) + eval_gamma_k(sr, kr) != target:
                        continue
                    for (dl, xl, ml), (dr, xr, mr) in self._child_pools(left, kl, right, kr):
                        a, b = sorted(xl), sorted(xr)
                        cross = tuple(zip(a[:h], b[:h]))
                        yield (dl | dr,
                               frozenset(a[h:]) | frozenset(b[h:]),
                               ml + mr + cross)
            return

        # attachment: the exempt set must live in the surviving left twin
        # set, so every right exemption cross-pairs with a left one; an
        # optional extra unpaired left twin vertex covers the case where the
        # right child's twin set would otherwise go undominated
        for extra in (0, 1):
            for kl in range(0, sl.ts_size + 1):
                kr = kl + extra - k
                if not (0 <= kr <= sr.ts_size):
                    continue
                if kr > kl:
                    continue
                if eval_gamma_k(sl, kl) + eval_gamma_k(sr, kr) + extra != target:
                    continue
                for (dl, xl, ml), (dr, xr, mr) in self._child_pools(left, kl, right, kr):
                    a, b = sorted(xl), sorted(xr)
                    cross = tuple(zip(a[:kr], b))
                    base_d = dl | dr
                    base_x = frozenset(a[kr:])
                    base_m = ml + mr + cross
                    if not extra:
                        yield base_d, base_x, base_m
                        continue
                    for v in sorted(self.twin[left] - base_d):
                        yield base_d | {v}, base_x | {v}, base_m

    # --- minimum paired-dominating sets ------------------------------------

    def pds(self, node: int) -> Cert:
        t = self.t
        s = self.states[node]
        if s.gamma_p == INF:
            raise WitnessError(f"node {node} admits no paired-dominating set")
        if t.label(node) == dectree.FALSE_TWIN:
            left, right = t.children(node)
            dl, _, ml = self.pds(left)
            dr, _, mr = self.pds(right)
            return dl | dr, frozenset(), ml + mr
        # true twin or attachment (a bare leaf always has infinite gamma_p)
        if not s.mty_pr:
            cert = self.rep(node, 0)[PAIRED]
            if cert is not None:
                return cert
            raise WitnessError(f"node {node}: no paired k=0 representative found")
        left, right = t.children(node)
        for cert in self.rep(node, 0):
            if cert is None:
                continue
            d, _, m = cert
            # adjoin a cross pair through the biclique to dominate both sides
            for xv in sorted(self.twin[left] - d):
                for yv in sorted(self.twin[right] - d):
                    cand = d | {xv, yv}
                    if is_dominating(self.g, cand, self.vhat[node]):
                        return cand, frozenset(), m + ((xv, yv),)
        raise WitnessError(f"node {node}: could not extend a k=0 set to a pair")


def reconstruct_witness(t: DecompTree, states: Sequence[NodeState]) -> tuple[int, ...]:
    if states[t.root].gamma_p == INF:
        raise WitnessError("gamma_p is infinite: no witness exists")
    depth_budget = 2 * len(t.nodes) + 100
    old_limit = sys.getrecursionlimit()
    if old_limit < depth_budget:
        sys.setrecursionlimit(depth_budget)
    try:
        r = _Reconstructor(t, states)
        d, _, m = r.pds(t.root)
    finally:
        sys.setrecursionlimit(old_limit)
    if len(d) != states[t.root].gamma_p:
        raise WitnessError(
            f"witness size {len(d)} != gamma_p {states[t.root].gamma_p}")
    if sorted(v for pair in m for v in pair) != sorted(d):
        raise WitnessError("witness matching does not cover the witness set")
    return tuple(sorted(d))
