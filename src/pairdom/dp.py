"""Bottom-up dynamic programming over a decomposition tree.

Each tree node carries a seven-quantity state summarizing, for the expanded
subgraph H and its twin set TS, the whole curve k -> gamma_k(H): the minimum
size of a set dominating V(H)-TS that becomes perfectly matchable after
exempting k twin-set vertices from the matching. The curve is unimodal with
unit steps, so (min, alpha, beta) reconstructs it exactly; ts_size bounds k;
gamma_p is the paired-domination number of H itself; mty_ts / mty_pr record
whether the optimal k=0 sets all avoid the twin set / all fail to be
paired-dominating on their own.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from . import dectree
from .dectree import DecompTree
from .record import Record

INF = math.inf


class DpError(RuntimeError):
    """A combined state violated its own invariants: implementation bug."""


class NodeState(Record):
    __slots__ = ("min", "alpha", "beta", "ts_size", "gamma_p", "mty_ts", "mty_pr")
    __hash__ = None  # the combines set fields after construction

    # runs once per tree node in `solve`: plain assignments only
    def __init__(self, min: int, alpha: int, beta: int, ts_size: int,
                 gamma_p: float, mty_ts: bool, mty_pr: bool):
        self.min = min
        self.alpha = alpha
        self.beta = beta
        self.ts_size = ts_size
        self.gamma_p = gamma_p  # int or math.inf
        self.mty_ts = mty_ts
        self.mty_pr = mty_pr


class SolveResult(Record):
    __slots__ = ("gamma_p", "states", "witness")

    def __init__(self, gamma_p: float, states: Sequence[NodeState],
                 witness: Optional[tuple[int, ...]]):
        self.gamma_p = gamma_p
        self.states = states  # indexed by tree node id
        self.witness = witness


def sat_add(a: float, b: float) -> float:
    """Addition saturating at infinity."""
    return INF if a == INF or b == INF else a + b


def leaf_state() -> NodeState:
    return NodeState(min=0, alpha=0, beta=0, ts_size=1, gamma_p=INF,
                     mty_ts=True, mty_pr=True)


def eval_gamma_k(s: NodeState, k: int) -> int:
    """gamma_k from the compressed curve (min, alpha, beta)."""
    if not (0 <= k <= s.ts_size):
        raise ValueError(f"k={k} out of range [0, {s.ts_size}]")
    if k <= s.alpha:
        return s.min + s.alpha - k
    if k >= s.beta:
        return s.min + k - s.beta
    return s.min if (k - s.alpha) % 2 == 0 else s.min + 1


def _check(s: NodeState) -> NodeState:
    if not (0 <= s.alpha <= s.beta <= s.ts_size):
        raise DpError(f"alpha/beta/ts out of order: {s}")
    if (s.beta - s.alpha) % 2 != 0:
        raise DpError(f"beta - alpha odd: {s}")
    if s.gamma_p != INF and s.gamma_p % 2 != 0:
        raise DpError(f"odd finite gamma_p: {s}")
    return s


def _mty_join(sl: NodeState, sr: NodeState) -> bool:
    # an optimal k=0 set of the join still dominates nothing extra for free:
    # it stays twin-set-free/pair-deficient unless one side can compensate
    p_l, p_r, t_l, t_r = sl.mty_pr, sr.mty_pr, sl.mty_ts, sr.mty_ts
    return (p_l or p_r) and (t_l or t_r) and (p_l or t_l) and (p_r or t_r)


def cond_d2(sl: NodeState, sr: NodeState) -> bool:
    """True when a T or A join's optimal 0-sets pair nothing across it:
    one child's curve is lowest at k = 0 (alpha 0), the other's only there
    (beta 0)."""
    return (sr.alpha == 0 and sl.beta == 0) or (sl.alpha == 0 and sr.beta == 0)


def combine_true_twin(sl: NodeState, sr: NodeState) -> NodeState:
    alpha = max(sl.alpha - sr.beta, sr.alpha - sl.beta,
                abs(sl.alpha - sr.alpha) % 2)
    s = NodeState(
        min=sl.min + sr.min,
        alpha=alpha,
        beta=sl.beta + sr.beta,
        ts_size=sl.ts_size + sr.ts_size,
        gamma_p=0,
        mty_ts=False,
        mty_pr=False,
    )
    if cond_d2(sl, sr):
        s.mty_pr = _mty_join(sl, sr)
        s.mty_ts = sl.mty_ts and sr.mty_ts
    s.gamma_p = eval_gamma_k(s, 0) + 2 * s.mty_pr
    return _check(s)


def combine_false_twin(sl: NodeState, sr: NodeState) -> NodeState:
    s = NodeState(
        min=sl.min + sr.min,
        alpha=sl.alpha + sr.alpha,
        beta=sl.beta + sr.beta,
        ts_size=sl.ts_size + sr.ts_size,
        gamma_p=sat_add(sl.gamma_p, sr.gamma_p),
        mty_ts=sl.mty_ts and sr.mty_ts,
        mty_pr=sl.mty_pr or sr.mty_pr,
    )
    return _check(s)


def combine_attach(sl: NodeState, sr: NodeState) -> NodeState:
    """Attachment: the left child keeps the twin set."""
    s = NodeState(min=0, alpha=0, beta=0, ts_size=sl.ts_size,
                  gamma_p=0, mty_ts=False, mty_pr=False)
    if sr.alpha > sl.beta:
        # every optimal right set leaves more unpaired twin vertices than the
        # left side can absorb; pay to pair the excess, curve collapses
        s.min = sl.min + sr.min + sr.alpha - sl.beta
        s.alpha = s.beta = 0
    elif cond_d2(sl, sr):
        if sr.alpha == 0 and sl.beta == 0:
            e = int(sl.mty_ts and sr.mty_pr)
            s.min = sl.min + sr.min + e
            s.alpha = s.beta = e
        else:
            s.min = sl.min + sr.min
            s.alpha = 0
            s.beta = sl.beta
        if not (sl.mty_ts and sr.mty_pr):
            s.mty_pr = _mty_join(sl, sr)
            s.mty_ts = sl.mty_ts
    else:
        s.min = sl.min + sr.min
        s.alpha = max(sl.alpha - sr.beta, abs(sl.alpha - sr.alpha) % 2)
        s.beta = sl.beta - sr.alpha
    s.gamma_p = eval_gamma_k(s, 0) + 2 * s.mty_pr
    return _check(s)


_COMBINE = {
    dectree.TRUE_TWIN: combine_true_twin,
    dectree.FALSE_TWIN: combine_false_twin,
    dectree.ATTACH: combine_attach,
}


def solve(t: DecompTree, want_witness: bool = False) -> SolveResult:
    dectree.require_valid(t)
    # a valid tree lists children before parents, so one forward pass over
    # the raw node tuples solves it; this loop runs a couple of million times
    # for benchmark-sized trees, so no method calls inside
    states: list[NodeState] = []
    append = states.append
    leaf_tag = dectree.LEAF
    combine = _COMBINE
    # all leaves share one state object; combines never mutate their inputs
    shared_leaf = leaf_state()
    for nd in t.nodes:
        tag = nd[0]
        if tag == leaf_tag:
            append(shared_leaf)
        else:
            append(combine[tag](states[nd[1]], states[nd[2]]))
    gamma_p = states[t.root].gamma_p
    witness = None
    if want_witness and gamma_p != INF:
        from .witness import reconstruct_witness

        witness = reconstruct_witness(t, states)
    return SolveResult(gamma_p=gamma_p, states=states, witness=witness)
