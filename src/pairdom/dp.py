"""Bottom-up dynamic programming over a decomposition tree.

Each tree node carries a seven-quantity state summarizing, for the expanded
subgraph H and its twin set TS, the whole curve k -> gamma_k(H): the minimum
size of a set dominating V(H)-TS that becomes perfectly matchable after
exempting k twin-set vertices from the matching. The curve is unimodal with
unit steps, so (min, alpha, beta) reconstructs it exactly; ts_size bounds k;
gamma_p is the paired-domination number of H itself; mty_ts / mty_pr record
whether the optimal k=0 sets all avoid the twin set / all fail to be
paired-dominating on their own.

A state is the plain tuple (min, alpha, beta, ts_size, gamma_p, mty_ts,
mty_pr); MIN .. MTY_PR name its indices. The three combine functions are
the one definition of the rules: each unpacks its children's states and
returns a new tuple, which `_check` tests against the curve's invariants.
`solve` runs them in one forward pass over the tree's labels, with the
states of the finished subtrees on a stack; a `DecompTree` is valid by
construction, so it checks no tree. Equal combine inputs (label, left
state, right state) share one result: a memo of at most MEMO_LIMIT entries
per call, cleared when full, hands a node the state already built for equal
inputs, which is not combined or checked again. All leaves share one state.
By default `solve` also lists every node's state, which the witness reads;
the count path (`keep_states=False`) lists none, so it keeps one state per
open subtree, besides the memo's. The same pass counts the expansion's
edges, `SolveResult.m`: each T or A node joins its children's twin sets
completely, so it adds the product of their `ts_size`s.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence

from . import dectree
from .dectree import DecompTree
from .record import Record

INF = math.inf

# The solver makes one state per internal node. An exact tuple of numbers
# costs less to build than an object, and the garbage collector stops
# tracking it; a tuple subclass, such as a NamedTuple, stays tracked.
FIELDS = ("min", "alpha", "beta", "ts_size", "gamma_p", "mty_ts", "mty_pr")
MIN, ALPHA, BETA, TS_SIZE, GAMMA_P, MTY_TS, MTY_PR = range(7)
NodeState = tuple  # (min, alpha, beta, ts_size, gamma_p, mty_ts, mty_pr)

# Entries of solve's memo before it is cleared. Benchmark trees need at most
# about 2100; on trees whose states are all distinct (path and clique
# caterpillars) the bound keeps the memo from holding a key per node.
MEMO_LIMIT = 4096


class DpError(RuntimeError):
    """A combined state violated its own invariants: implementation bug."""


class SolveResult(Record):
    __slots__ = ("gamma_p", "m", "states")

    def __init__(self, gamma_p: float, m: int, states: Sequence[NodeState] | None):
        self.gamma_p = gamma_p
        self.m = m  # edges of the tree's expansion
        self.states = states  # indexed by tree node id; None unless kept


def sat_add(a: float, b: float) -> float:
    """Addition saturating at infinity."""
    return INF if a == INF or b == INF else a + b


_LEAF_STATE = (0, 0, 0, 1, INF, True, True)


def leaf_state() -> NodeState:
    return _LEAF_STATE


def eval_gamma_k(s: NodeState, k: int) -> int:
    """gamma_k from the compressed curve (min, alpha, beta)."""
    mn, alpha, beta, ts_size, _, _, _ = s
    if not (0 <= k <= ts_size):
        raise ValueError(f"k={k} out of range [0, {ts_size}]")
    if k <= alpha:
        return mn + alpha - k
    if k >= beta:
        return mn + k - beta
    return mn if (k - alpha) % 2 == 0 else mn + 1


def _show(s: NodeState) -> str:
    return "NodeState(" + ", ".join(map("{}={!r}".format, FIELDS, s)) + ")"


def _check(s: NodeState) -> NodeState:
    _, alpha, beta, ts_size, gamma_p, _, _ = s
    if not (0 <= alpha <= beta <= ts_size):
        raise DpError(f"alpha/beta/ts out of order: {_show(s)}")
    if (beta - alpha) % 2 != 0:
        raise DpError(f"beta - alpha odd: {_show(s)}")
    if gamma_p != INF and gamma_p % 2 != 0:
        raise DpError(f"odd finite gamma_p: {_show(s)}")
    return s


def _mty_join(ts_l: bool, pr_l: bool, ts_r: bool, pr_r: bool) -> bool:
    # an optimal k=0 set of the join still dominates nothing extra for free:
    # it stays twin-set-free/pair-deficient unless one side can compensate
    return (pr_l or pr_r) and (ts_l or ts_r) and (pr_l or ts_l) and (pr_r or ts_r)


def cond_d2(al: int, bl: int, ar: int, br: int) -> bool:
    """True when a T or A join's optimal 0-sets pair nothing across it:
    one child's curve is lowest at k = 0 (alpha 0), the other's only there
    (beta 0). Takes the left and right children's alpha and beta."""
    return (ar == 0 and bl == 0) or (al == 0 and br == 0)


# In the combines, gamma_0 = min + alpha, since k = 0 <= alpha.

def combine_true_twin(sl: NodeState, sr: NodeState) -> NodeState:
    min_l, al, bl, ts_l, _, t_l, p_l = sl
    min_r, ar, br, ts_r, _, t_r, p_r = sr
    mn = min_l + min_r
    alpha = max(al - br, ar - bl, abs(al - ar) % 2)
    if cond_d2(al, bl, ar, br):
        mty_pr = _mty_join(t_l, p_l, t_r, p_r)
        mty_ts = t_l and t_r
    else:
        mty_ts = mty_pr = False
    return _check((mn, alpha, bl + br, ts_l + ts_r, mn + alpha + 2 * mty_pr,
                   mty_ts, mty_pr))


def combine_false_twin(sl: NodeState, sr: NodeState) -> NodeState:
    min_l, al, bl, ts_l, gp_l, t_l, p_l = sl
    min_r, ar, br, ts_r, gp_r, t_r, p_r = sr
    return _check((min_l + min_r, al + ar, bl + br, ts_l + ts_r, sat_add(gp_l, gp_r),
                   t_l and t_r, p_l or p_r))


def combine_attach(sl: NodeState, sr: NodeState) -> NodeState:
    """Attachment: the left child keeps the twin set."""
    min_l, al, bl, ts_l, _, t_l, p_l = sl
    min_r, ar, br, _, _, t_r, p_r = sr
    mty_ts = mty_pr = False
    if ar > bl:
        # every optimal right set leaves more unpaired twin vertices than the
        # left side can absorb; pay to pair the excess, curve collapses
        mn = min_l + min_r + ar - bl
        alpha = beta = 0
    elif cond_d2(al, bl, ar, br):
        if ar == 0 and bl == 0:
            e = int(t_l and p_r)
            mn = min_l + min_r + e
            alpha = beta = e
        else:
            mn = min_l + min_r
            alpha = 0
            beta = bl
        if not (t_l and p_r):
            mty_pr = _mty_join(t_l, p_l, t_r, p_r)
            mty_ts = t_l
    else:
        mn = min_l + min_r
        alpha = max(al - br, abs(al - ar) % 2)
        beta = bl - ar
    return _check((mn, alpha, beta, ts_l, mn + alpha + 2 * mty_pr, mty_ts, mty_pr))


_COMBINE = {
    dectree.TRUE_TWIN_TAG: combine_true_twin,
    dectree.FALSE_TWIN_TAG: combine_false_twin,
    dectree.ATTACH_TAG: combine_attach,
}


def solve(t: DecompTree, *, keep_states: bool = True) -> SolveResult:
    """Solve the tree. With keep_states false, the result's `states` is
    None: no per-node list is built, and a finished subtree's state is freed
    once its parent's exists, unless the memo holds it."""
    # children come before parents, so one forward pass solves the tree; the
    # loop runs millions of times on benchmark trees, so no method calls in it
    states: list[NodeState] | None = [] if keep_states else None
    # without the list, a sink that drops each state, at the cost of the append
    append = states.append if keep_states else deque(maxlen=0).append
    # the states of the finished subtrees: the last one's in `top`, the
    # others on a stack
    stack: list[NodeState] = []
    push, pop = stack.append, stack.pop
    top = None
    leaf_tag, false_twin_tag = dectree.LEAF_TAG, dectree.FALSE_TWIN_TAG
    ts_size = TS_SIZE
    combine = _COMBINE
    m = 0  # edges of the expansion so far
    # all leaves share one state; states are tuples, so nothing mutates it
    shared_leaf = leaf_state()
    # (label, left state, right state) -> the state combined from them
    memo: dict = {}
    lookup = memo.get
    room = MEMO_LIMIT  # entries the memo takes before it is cleared
    for tag in t.labels:
        if tag == leaf_tag:
            push(top)
            top = shared_leaf
            append(top)
            continue
        left = pop()
        # counted per node, memo hit or not: T and A join the twin sets
        if tag != false_twin_tag:
            m += left[ts_size] * top[ts_size]
        key = (tag, left, top)
        s = lookup(key)
        if s is None:
            try:
                s = combine[tag](left, top)
            except DpError as exc:
                if states is None:
                    # only the list gives the node's id: solving again
                    # with it fails at the same node
                    solve(t)
                # the list's length is this node's id
                raise DpError(f"node {len(states)}: {exc}") from exc
            if not room:
                memo.clear()
                room = MEMO_LIMIT
            room -= 1
            memo[key] = s
        top = s
        append(s)
    # top is the root's state, the one subtree left
    return SolveResult(gamma_p=top[GAMMA_P], m=m, states=states)
