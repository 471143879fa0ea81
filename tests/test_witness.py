import random

import pytest

from pairdom import dectree, dp
from pairdom.dectree import DecompTree, leaf
from pairdom.graph import is_paired_dominating
from pairdom.oracle import oracle_gamma_p
from pairdom.witness import WitnessError, _certificate, _check, reconstruct_witness


def test_ex7_witness(ex7_tree, ex7_graph):
    res = dp.solve(ex7_tree, want_witness=True)
    assert res.witness is not None
    assert len(res.witness) == 2
    assert is_paired_dominating(ex7_graph, res.witness)


def test_k2_witness():
    t = dectree.DecompTree(
        (dectree.leaf(0), dectree.leaf(1), ("T", 0, 1)), 2)
    res = dp.solve(t, want_witness=True)
    assert res.witness == (0, 1)


def test_no_witness_when_infinite():
    t = dectree.DecompTree((dectree.leaf(0),), 0)
    res = dp.solve(t, want_witness=True)
    assert res.witness is None
    with pytest.raises(WitnessError):
        reconstruct_witness(t, res.states)


def test_witness_matches_oracle_on_random_trees():
    checked = 0
    for seed in range(300):
        n = random.Random(seed).randint(2, 14)
        t = dectree.generate(n, seed)
        g, _ = dectree.expand(t)
        res = dp.solve(t, want_witness=True)
        gp = oracle_gamma_p(g)
        assert res.gamma_p == gp, seed
        if gp == dp.INF:
            assert res.witness is None
            continue
        checked += 1
        assert len(res.witness) == gp, seed
        assert is_paired_dominating(g, res.witness), seed
    assert checked > 100  # most generated instances admit a pairing


def test_witness_on_larger_tree_still_valid():
    t = dectree.generate(120, seed=9)
    g, _ = dectree.expand(t)
    res = dp.solve(t, want_witness=True)
    if res.gamma_p != dp.INF:
        assert is_paired_dominating(g, res.witness)
        assert len(res.witness) == res.gamma_p


def test_check_rejects_corrupted_certificates():
    # 2K2 = F(T(0, 1), T(2, 3)); the path 0-1-2 = A(0, A(1, 2)); the bowtie
    # T(T(0, 3), A(1, T(2, 4))) of triangles 0-1-3 and 1-2-4. In the last
    # two, vertex 2 leaves the twin set at the inner A node.
    two_k2 = DecompTree((leaf(0), leaf(1), ("T", 0, 1), leaf(2), leaf(3),
                         ("T", 3, 4), ("F", 2, 5)), 6)
    p3 = DecompTree((leaf(0), leaf(1), leaf(2), ("A", 1, 2), ("A", 0, 3)), 4)
    bowtie = DecompTree((leaf(0), leaf(3), ("T", 0, 1), leaf(1), leaf(2), leaf(4),
                         ("T", 4, 5), ("A", 3, 6), ("T", 2, 7)), 8)
    for t in (two_k2, p3, bowtie):
        _check(t, _certificate(t, dp.solve(t).states))
    for t, pairs, error in [
        (two_k2, [(2, 0, 1)], "vertex [23] is not dominated"),  # a pair dropped
        (bowtie, [(2, 0, 3)], "vertex [24] is not dominated"),  # only 1 sees 2, 4
        (bowtie, [(6, 2, 4)], "vertex [03] is not dominated"),  # 2, 4 left the TS
        (two_k2, [(6, 1, 2), (6, 0, 3)], r"node 6: pair \(1, 2\) is not an edge"),
        (two_k2, [(5, 0, 3)], r"node 5: pair \(0, 3\) is not an edge"),  # 0 is outside
        (p3, [(4, 0, 2)], r"node 4: pair \(0, 2\) is not an edge"),  # 2 left the TS
    ]:
        with pytest.raises(WitnessError, match=error):
            _check(t, pairs)


def test_witness_at_100k_leaves():
    res = dp.solve(dectree.generate(100_000, 1), want_witness=True)
    assert len(res.witness) == res.gamma_p


@pytest.mark.parametrize("weights", [(1, 1, 4), (1, 3, 1), (3, 1, 1), (0, 1, 1), (1, 0, 1)])
def test_witness_matches_oracle_over_label_mixes(weights):
    # A-heavy, F-heavy, T-heavy, T-free and F-free trees reach different
    # need rules of the downward loop; the last join keeps them connected
    for seed in range(60):
        n = random.Random(seed).randint(2, 14)
        t = dectree.generate(n, seed, weights)
        g, _ = dectree.expand(t)
        res = dp.solve(t, want_witness=True)
        assert res.gamma_p == oracle_gamma_p(g), seed
        assert len(res.witness) == res.gamma_p, seed
        assert is_paired_dominating(g, res.witness), seed
