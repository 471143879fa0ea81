import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import LABEL_MIXES, leaf, solve_with_witness
from pairdom import dectree, dp
from pairdom.dectree import ATTACH_TAG, FALSE_TWIN_TAG, LEAF_TAG, from_nodes
from pairdom.oracle import is_paired_dominating, oracle_gamma_p
from pairdom.witness import (DOM, HIT, WitnessError, _certificate, _check, _split,
                             reconstruct_witness)


def test_ex7_witness(ex7_tree, ex7_graph):
    res = solve_with_witness(ex7_tree)
    assert res.witness is not None
    assert len(res.witness) == 2
    assert is_paired_dominating(ex7_graph, res.witness)


def test_k2_witness():
    t = dectree.from_nodes(
        (leaf(0), leaf(1), ("T", 0, 1)), 2)
    res = solve_with_witness(t)
    assert res.witness == (0, 1)


def test_no_witness_when_infinite():
    t = dectree.from_nodes((leaf(0),), 0)
    res = solve_with_witness(t)
    assert res.witness is None
    with pytest.raises(WitnessError):
        reconstruct_witness(t, res.states)


def test_witness_matches_oracle_on_random_trees():
    checked = 0
    for seed in range(300):
        n = random.Random(seed).randint(2, 14)
        t = dectree.generate(n, seed)
        g, _ = dectree.expand(t)
        res = solve_with_witness(t)
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
    res = solve_with_witness(t)
    if res.gamma_p != dp.INF:
        assert is_paired_dominating(g, res.witness)
        assert len(res.witness) == res.gamma_p


def test_check_rejects_corrupted_certificates():
    # 2K2 = F(T(0, 1), T(2, 3)); the path 0-1-2 = A(0, A(1, 2)); the bowtie
    # T(T(0, 3), A(1, T(2, 4))) of triangles 0-1-3 and 1-2-4. In the last
    # two, vertex 2 leaves the twin set at the inner A node.
    two_k2 = from_nodes((leaf(0), leaf(1), ("T", 0, 1), leaf(2), leaf(3),
                         ("T", 3, 4), ("F", 2, 5)), 6)
    p3 = from_nodes((leaf(0), leaf(1), leaf(2), ("A", 1, 2), ("A", 0, 3)), 4)
    bowtie = from_nodes((leaf(0), leaf(3), ("T", 0, 1), leaf(1), leaf(2), leaf(4),
                         ("T", 4, 5), ("A", 3, 6), ("T", 2, 7)), 8)
    for t in (two_k2, p3, bowtie):
        lefts = dectree.children(t.labels)
        _check(t, _certificate(t, dp.solve(t).states, lefts), lefts)
    for t, pairs, error in [
        (two_k2, [(2, 0, 1)], "vertex [23] is not dominated"),  # a pair dropped
        (bowtie, [(2, 0, 3)], "vertex [24] is not dominated"),  # only 1 sees 2, 4
        (bowtie, [(6, 2, 4)], "vertex [03] is not dominated"),  # 2, 4 left the TS
        (two_k2, [(6, 1, 2), (6, 0, 3)], r"node 6: pair \(1, 2\) is not an edge"),
        (two_k2, [(5, 0, 3)], r"node 5: pair \(0, 3\) is not an edge"),  # 0 is outside
        (p3, [(4, 0, 2)], r"node 4: pair \(0, 2\) is not an edge"),  # 2 left the TS
        # the first fault in order: a stray before a repeat, a repeat before a stray
        (p3, [(4, 1, 7), (4, 2, 1)], r"^vertex 7 is repeated or outside 0\.\.2$"),
        (p3, [(4, 1, 2), (4, 1, 7)], r"^vertex 1 is repeated or outside 0\.\.2$"),
    ]:
        with pytest.raises(WitnessError, match=error):
            _check(t, pairs, dectree.children(t.labels))


def test_witness_at_100k_leaves():
    res = solve_with_witness(dectree.generate(100_000, 1))
    assert len(res.witness) == res.gamma_p


@pytest.mark.parametrize("weights", LABEL_MIXES)
def test_witness_matches_oracle_over_label_mixes(weights):
    # A-heavy, F-heavy, T-heavy, T-free and F-free trees reach different
    # need rules of the downward loop; the last join keeps them connected
    for seed in range(60):
        n = random.Random(seed).randint(2, 14)
        t = dectree.generate(n, seed, weights)
        g, _ = dectree.expand(t)
        res = solve_with_witness(t)
        assert res.gamma_p == oracle_gamma_p(g), seed
        assert len(res.witness) == res.gamma_p, seed
        assert is_paired_dominating(g, res.witness), seed


def _allowed(s, need):
    """A 0-set of a node with state s can hit its twin set unless mty_ts,
    dominate it unless mty_pr, and do both unless either."""
    return not (need & HIT and s[dp.MTY_TS] or need & DOM and s[dp.MTY_PR])


def _joined_needs(tag, nl, nr):
    """(ok, hit, dom) of the parent's 0-set formed from children's 0-sets
    meeting needs nl and nr, which pair nothing across the join."""
    hl, dl, hr, dr = nl & HIT, nl & DOM, nr & HIT, nr & DOM
    if tag == FALSE_TWIN_TAG:  # no edges between the two sides
        return True, hl or hr, dl and dr
    if tag == ATTACH_TAG:  # the left twin set stays; the right one is dominated now
        return hl or dr, hl, hr or dl
    # true twins: a D vertex in one twin set sees all of the other
    return True, hl or hr, (hl or dr) and (hr or dl)


def _check_every_split(t):
    """Ask every internal node of t for every k-set and every need its flags
    allow, and check the split against the curves; return the request count."""
    states = dp.solve(t).states
    requests = 0
    for i, (tag, left) in enumerate(zip(t.labels, dectree.children(t.labels))):
        if tag == LEAF_TAG:
            continue
        s, sl, sr = states[i], states[left], states[i - 1]
        for k in range(s[dp.TS_SIZE] + 1):
            target = dp.eval_gamma_k(s, k)
            for need in (range(4) if k == 0 else (0,)):
                if not _allowed(s, need):
                    continue
                requests += 1
                where = (i, chr(tag), k, need)
                kl, kr, nl, nr = _split(i, tag, k, need, s, sl, sr)
                assert 0 <= kl <= sl[dp.TS_SIZE] and 0 <= kr <= sr[dp.TS_SIZE], where
                if tag == FALSE_TWIN_TAG:
                    assert k == kl + kr, where
                elif tag == ATTACH_TAG:
                    assert k == kl - kr, where
                else:
                    assert abs(kl - kr) <= k <= kl + kr, where
                    assert (kl + kr - k) % 2 == 0, where
                assert dp.eval_gamma_k(sl, kl) + dp.eval_gamma_k(sr, kr) == target, where
                if (kl, kr) != (0, 0):
                    assert nl == nr == 0, where
                    continue
                assert _allowed(sl, nl) and _allowed(sr, nr), where
                ok, hit, dom = _joined_needs(tag, nl, nr)
                assert ok and (hit or not need & HIT) and (dom or not need & DOM), where
    return requests


def test_split_refuses_children_that_miss_the_node_gamma():
    t = from_nodes((leaf(0), leaf(1), ("T", 0, 1)), 2)
    sl, sr, s = dp.solve(t).states
    assert _split(2, t.labels[2], 0, 0, s, sl, sr)[:2] == (0, 0)
    off = (s[dp.MIN] + 1, *s[dp.MIN + 1:])  # a gamma_0 one above the children's sum
    with pytest.raises(WitnessError, match=r"node 2: split \(0, 0\) of k=0 misses gamma_k=1"):
        _split(2, t.labels[2], 0, 0, off, sl, sr)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.integers(0, 10_000), st.sampled_from(LABEL_MIXES))
def test_split_covers_every_request(n, seed, weights):
    _check_every_split(dectree.generate(n, seed, weights))


@pytest.mark.parametrize("weights", LABEL_MIXES)
def test_split_covers_every_request_over_label_mixes(weights):
    requests = 0
    for seed in range(200):
        n = random.Random(seed).randint(2, 30)
        requests += _check_every_split(dectree.generate(n, seed, weights))
    assert requests > 10_000
