import math
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (LABEL_MIXES, caterpillar, children, is_leaf, label, leaf, node_state,
                      reference_states)
from pairdom import cli, dectree, dp
from pairdom.dp import (
    INF,
    combine_attach,
    combine_false_twin,
    combine_true_twin,
    eval_gamma_k,
    leaf_state,
    solve,
)


@st.composite
def states(draw):
    ts = draw(st.integers(1, 12))
    alpha = draw(st.integers(0, ts))
    beta = draw(st.integers(alpha, ts).filter(lambda b: (b - alpha) % 2 == 0))
    mn = draw(st.integers(0, 20))
    return node_state(min=mn, alpha=alpha, beta=beta, ts_size=ts,
                      gamma_p=INF, mty_ts=False, mty_pr=False)


def test_leaf_state():
    s = leaf_state()
    assert (s[dp.MIN], s[dp.ALPHA], s[dp.BETA], s[dp.TS_SIZE]) == (0, 0, 0, 1)
    assert s[dp.GAMMA_P] == INF and s[dp.MTY_TS] and s[dp.MTY_PR]
    assert eval_gamma_k(s, 0) == 0
    assert eval_gamma_k(s, 1) == 1


def test_eval_gamma_k_worked_curve():
    s = node_state(min=1, alpha=4, beta=10, ts_size=11,
                   gamma_p=INF, mty_ts=False, mty_pr=False)
    assert eval_gamma_k(s, 0) == 5
    assert eval_gamma_k(s, 7) == 2
    assert eval_gamma_k(s, 6) == 1
    assert eval_gamma_k(s, 11) == 2


def test_eval_gamma_k_ex7_root_profile(ex7_tree):
    root = solve(ex7_tree).states[ex7_tree.root]
    assert [eval_gamma_k(root, k) for k in range(6)] == [2, 1, 2, 3, 4, 5]


def test_eval_gamma_k_out_of_range():
    with pytest.raises(ValueError):
        eval_gamma_k(leaf_state(), 2)
    with pytest.raises(ValueError):
        eval_gamma_k(leaf_state(), -1)


@given(states())
def test_unit_step_property(s):
    for k in range(s[dp.TS_SIZE]):
        assert abs(eval_gamma_k(s, k) - eval_gamma_k(s, k + 1)) == 1


@given(states())
def test_curve_minimum_attained_between_alpha_and_beta(s):
    values = [eval_gamma_k(s, k) for k in range(s[dp.TS_SIZE] + 1)]
    assert min(values) == s[dp.MIN]
    attained = [k for k, v in enumerate(values) if v == s[dp.MIN]]
    assert attained[0] == s[dp.ALPHA] and attained[-1] == s[dp.BETA]


def test_true_twin_of_two_leaves():
    s = combine_true_twin(leaf_state(), leaf_state())
    assert (s[dp.MIN], s[dp.ALPHA], s[dp.BETA], s[dp.TS_SIZE]) == (0, 0, 0, 2)
    assert s[dp.MTY_PR] and s[dp.MTY_TS] and s[dp.GAMMA_P] == 2


def test_true_twin_ex7_root(ex7_tree):
    kl = node_state(min=0, alpha=0, beta=0, ts_size=3, gamma_p=2,
                    mty_ts=True, mty_pr=True)
    kr = node_state(min=1, alpha=1, beta=1, ts_size=2, gamma_p=2,
                    mty_ts=False, mty_pr=False)
    s = combine_true_twin(kl, kr)
    assert (s[dp.MIN], s[dp.ALPHA], s[dp.BETA], s[dp.TS_SIZE]) == (1, 1, 1, 5)
    assert not s[dp.MTY_TS] and not s[dp.MTY_PR] and s[dp.GAMMA_P] == 2
    assert solve(ex7_tree).states[ex7_tree.root] == s


def test_true_twin_leaf_with_false_twin_pair():
    inner = combine_false_twin(leaf_state(), leaf_state())
    s = combine_true_twin(leaf_state(), inner)
    assert (s[dp.MIN], s[dp.ALPHA], s[dp.BETA], s[dp.TS_SIZE]) == (0, 0, 0, 3)
    assert s[dp.MTY_PR] and s[dp.MTY_TS] and s[dp.GAMMA_P] == 2


def test_false_twin_of_two_leaves():
    s = combine_false_twin(leaf_state(), leaf_state())
    assert (s[dp.MIN], s[dp.ALPHA], s[dp.BETA], s[dp.TS_SIZE]) == (0, 0, 0, 2)
    assert s[dp.MTY_PR] and s[dp.MTY_TS] and s[dp.GAMMA_P] == INF


def test_false_twin_sums_gamma_p():
    k2 = combine_true_twin(leaf_state(), leaf_state())
    s = combine_false_twin(k2, k2)
    assert s[dp.GAMMA_P] == 4


def test_false_twin_saturates_infinity():
    k2 = combine_true_twin(leaf_state(), leaf_state())
    s = combine_false_twin(k2, leaf_state())
    assert s[dp.GAMMA_P] == INF


def test_attach_curve_collapse_case():
    # right child insists on one unpaired twin vertex, left offers none
    kl = node_state(min=0, alpha=0, beta=0, ts_size=3, gamma_p=2,
                    mty_ts=True, mty_pr=True)
    kr = node_state(min=1, alpha=1, beta=1, ts_size=2, gamma_p=2,
                    mty_ts=False, mty_pr=False)
    s = combine_attach(kl, kr)
    assert (s[dp.MIN], s[dp.ALPHA], s[dp.BETA], s[dp.TS_SIZE]) == (2, 0, 0, 3)
    assert not s[dp.MTY_TS] and not s[dp.MTY_PR] and s[dp.GAMMA_P] == 2


def test_attach_pairing_penalty_case():
    left = combine_true_twin(leaf_state(), leaf_state())   # K2, flags 1/1
    right = combine_false_twin(leaf_state(), leaf_state())  # 2 isolated, 1/1
    s = combine_attach(left, right)
    assert (s[dp.MIN], s[dp.ALPHA], s[dp.BETA], s[dp.TS_SIZE]) == (1, 1, 1, 2)
    assert not s[dp.MTY_TS] and not s[dp.MTY_PR] and s[dp.GAMMA_P] == 2


def test_attach_of_two_leaves():
    s = combine_attach(leaf_state(), leaf_state())
    assert (s[dp.MIN], s[dp.ALPHA], s[dp.BETA], s[dp.TS_SIZE]) == (1, 1, 1, 1)
    assert not s[dp.MTY_TS] and not s[dp.MTY_PR] and s[dp.GAMMA_P] == 2


def test_solve_ex7(ex7_tree):
    assert solve(ex7_tree).gamma_p == 2


def test_solve_ex7_attach_root(ex7_tree_attach_root):
    res = solve(ex7_tree_attach_root)
    assert res.gamma_p == 2
    root = res.states[ex7_tree_attach_root.root]
    assert (root[dp.MIN], root[dp.ALPHA], root[dp.BETA], root[dp.TS_SIZE]) == (2, 0, 0, 3)


def test_solve_single_leaf():
    t = dectree.from_nodes((leaf(0),), 0)
    assert solve(t).gamma_p == INF


def test_solve_forest_with_isolated_component():
    # F-joined forest where one component is a lone vertex
    k2 = ("T", 0, 1)
    t = dectree.from_nodes(
        (leaf(0), leaf(1), k2, leaf(2), ("F", 2, 3)), 4)
    assert solve(t).gamma_p == INF


def test_solve_shares_one_leaf_state():
    t = dectree.generate(200, seed=4)
    states = solve(t).states
    leaf_states = {id(states[i]) for i in range(len(t.labels)) if is_leaf(t, i)}
    assert leaf_states == {id(leaf_state())}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 80), st.integers(0, 10_000), st.sampled_from(LABEL_MIXES))
def test_shared_states_equal_the_reference(n, seed, weights):
    t = dectree.generate(n, seed, weights)
    assert solve(t).states == reference_states(t)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 300), st.sampled_from(["path", "star", "clique"]))
def test_shared_states_equal_the_reference_on_caterpillars(n, shape):
    t = caterpillar(n, shape)
    assert solve(t).states == reference_states(t)


@pytest.mark.parametrize("shape", ["path", "clique"])
def test_shared_states_when_the_memo_is_cleared(shape):
    # every state of these caterpillars is distinct, so the memo fills and
    # is cleared twice over
    t = caterpillar(10_000, shape)
    ref = reference_states(t)
    inputs = {(tag, ref[left], ref[right])
              for tag, left, right in zip(t.labels, *dectree.children(t.labels))
              if tag != dectree.LEAF_TAG}
    assert len(inputs) > 2 * dp.MEMO_LIMIT
    assert solve(t).states == ref


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 200), st.integers(0, 10_000), st.sampled_from(LABEL_MIXES),
       st.integers(1, 8))
def test_shared_states_with_a_small_memo(n, seed, weights, limit):
    # a memo cleared every few entries still gives every node its state
    t = dectree.generate(n, seed, weights)
    with mock.patch.object(dp, "MEMO_LIMIT", limit):
        assert solve(t).states == reference_states(t)


def test_star_states_are_shared():
    t = caterpillar(10_000, "star")
    states = solve(t).states
    assert len({id(s) for s in states}) <= 3
    assert states == reference_states(t)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 300), st.integers(0, 10_000),
       st.sampled_from([*LABEL_MIXES, "path", "star", "clique"]))
def test_count_path_gamma_equals_the_root_state(n, seed, shape):
    # a label mix gives generated trees, a name a caterpillar
    t = caterpillar(n, shape) if isinstance(shape, str) else dectree.generate(n, seed, shape)
    count = solve(t, keep_states=False)
    assert count.states is None and count.witness is None
    assert count.gamma_p == solve(t).states[-1][dp.GAMMA_P]


def test_count_path_keeps_no_state_per_node():
    # every state of a path caterpillar differs from its child's; without the
    # list only the open subtrees' states and the memo's stay alive
    t = caterpillar(30_000, "path")
    tracemalloc.start()
    try:
        gamma_p = solve(t, keep_states=False).gamma_p
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gamma_p == 15_000 and peak <= 24 * len(t.labels)


def test_dp_error_names_the_node(monkeypatch, capsys, data_dir):
    bad = node_state(min=0, alpha=2, beta=1, ts_size=3, gamma_p=INF,
                     mty_ts=False, mty_pr=False)
    monkeypatch.setitem(dp._COMBINE, dectree.ATTACH_TAG, lambda sl, sr: dp._check(bad))
    path = data_dir / "ex7_tree.json"
    t = dectree.loads(path.read_bytes())
    node = t.labels.index(dectree.ATTACH_TAG)
    message = f"node {node}: alpha/beta/ts out of order: NodeState(min=0, alpha=2, "
    with pytest.raises(dp.DpError, match=re.escape(message)):
        solve(t)
    assert cli.main(["solve", "--tree", str(path), "--json"]) == cli.EXIT_INTERNAL
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: internal error: {message}")


def test_solve_deterministic():
    t = dectree.generate(60, seed=3)
    assert solve(t) == solve(t)


def test_node_state_and_solve_result_compare_by_fields():
    s = node_state(min=1, alpha=0, beta=2, ts_size=3, gamma_p=INF,
                   mty_ts=True, mty_pr=False)
    assert s == node_state(1, 0, 2, 3, INF, True, False)
    assert s != node_state(1, 0, 2, 3, INF, True, True)
    with pytest.raises(TypeError):  # a state is a tuple: it cannot be mutated
        s[dp.MIN] = 0
    res = dp.SolveResult(gamma_p=2, states=[s], witness=(0, 1))
    assert res == dp.SolveResult(2, [node_state(1, 0, 2, 3, INF, True, False)], (0, 1))
    assert res != dp.SolveResult(2, [s], None)


def test_check_error_prints_the_state():
    bad = node_state(min=0, alpha=2, beta=1, ts_size=3, gamma_p=INF,
                     mty_ts=False, mty_pr=False)
    with pytest.raises(dp.DpError, match=r"NodeState\(min=0, alpha=2, beta=1, "):
        dp._check(bad)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.integers(0, 10_000))
def test_invariants_on_random_trees(n, seed):
    t = dectree.generate(n, seed)
    res = solve(t)
    for node, s in enumerate(res.states):
        assert 0 <= s[dp.ALPHA] <= s[dp.BETA] <= s[dp.TS_SIZE]
        assert (s[dp.BETA] - s[dp.ALPHA]) % 2 == 0
        assert s[dp.GAMMA_P] == INF or s[dp.GAMMA_P] % 2 == 0
        for k in range(s[dp.TS_SIZE]):
            assert abs(eval_gamma_k(s, k) - eval_gamma_k(s, k + 1)) == 1
        if not is_leaf(t, node):
            left, right = children(t, node)
            sl, sr = res.states[left], res.states[right]
            if label(t, node) == dectree.FALSE_TWIN:
                assert s[dp.GAMMA_P] == dp.sat_add(sl[dp.GAMMA_P], sr[dp.GAMMA_P])
            else:
                assert s[dp.GAMMA_P] == eval_gamma_k(s, 0) + 2 * s[dp.MTY_PR]
