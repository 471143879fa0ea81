import pytest

from conftest import cycle_graph, induced_subgraph
from pairdom import oracle
from pairdom.graph import build_graph
from pairdom.oracle import (
    OracleSizeError,
    oracle_dk,
    oracle_gamma_p,
    oracle_is_dh,
    oracle_node_state,
)


def test_gamma_p_ex7(ex7_graph):
    assert oracle_gamma_p(ex7_graph) == 2


def test_gamma_p_trivial():
    assert oracle_gamma_p(build_graph(1, [])) == oracle.INF
    assert oracle_gamma_p(build_graph(2, [(0, 1)])) == 2


def test_gamma_p_even_when_finite():
    for n, edges in [(4, [(0, 1), (1, 2), (2, 3)]),
                     (5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
                     (6, [(i, (i + 1) % 6) for i in range(6)])]:
        gp = oracle_gamma_p(build_graph(n, edges))
        assert gp == oracle.INF or gp % 2 == 0


def test_gamma_p_guard():
    with pytest.raises(OracleSizeError):
        oracle_gamma_p(build_graph(21, []))


def test_dk_ex7(ex7_graph):
    ts = [0, 1, 2, 3, 4]
    assert oracle_dk(ex7_graph, ts, 1) == 1
    assert oracle_dk(ex7_graph, ts, 0) == 2
    assert oracle_dk(ex7_graph, ts, 5) == 5


def test_dk_guard_and_args(ex7_graph):
    with pytest.raises(OracleSizeError):
        oracle_dk(build_graph(17, []), [0], 0)
    with pytest.raises(ValueError):
        oracle_dk(ex7_graph, [0], 2)
    with pytest.raises(ValueError):
        oracle_dk(ex7_graph, [99], 0)


def test_node_state_ex7_attach_node(ex7_graph):
    # the subgraph on {3,4,5,6} with twin set {3,4}
    sub, relabel = induced_subgraph(ex7_graph, [3, 4, 5, 6])
    rep = oracle_node_state(sub, [relabel[3], relabel[4]])
    assert (rep.min, rep.alpha, rep.beta) == (1, 1, 1)
    assert not rep.mty_ts and not rep.mty_pr
    assert rep.gamma_p == 2


def test_node_state_k2_full_ts():
    rep = oracle_node_state(build_graph(2, [(0, 1)]), [0, 1])
    assert (rep.min, rep.alpha, rep.beta) == (0, 0, 0)
    assert rep.mty_ts and rep.mty_pr
    assert rep.gamma_k == (0, 1, 2)


def test_node_state_single_vertex_matches_leaf():
    from pairdom.dp import GAMMA_P, MTY_PR, MTY_TS, eval_gamma_k, leaf_state

    rep = oracle_node_state(build_graph(1, []), [0])
    leaf = leaf_state()
    assert rep.gamma_k == tuple(eval_gamma_k(leaf, k) for k in range(2))
    assert rep.mty_ts == leaf[MTY_TS] and rep.mty_pr == leaf[MTY_PR]
    assert rep.gamma_p == leaf[GAMMA_P]


def test_node_state_guard():
    with pytest.raises(OracleSizeError):
        oracle_node_state(build_graph(15, []), [0])


def test_is_dh_basics(ex7_graph):
    assert oracle_is_dh(ex7_graph)
    assert not oracle_is_dh(cycle_graph(5))
    assert not oracle_is_dh(cycle_graph(6))
    assert oracle_is_dh(cycle_graph(4))
    for n in (1, 2, 3):
        assert oracle_is_dh(build_graph(n, [(i, j) for i in range(n)
                                            for j in range(i + 1, n)]))


def test_is_dh_guard():
    with pytest.raises(OracleSizeError):
        oracle_is_dh(build_graph(11, []))
