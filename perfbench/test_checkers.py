"""Tests of the benchmark's own generator and checkers.

Run from the root of the checkout: python3 -m pytest perfbench -q
"""

import itertools
import json
import random
import sys
from pathlib import Path

import pytest

import check
import gen
import run
import workloads


def _adj(t: gen.Tree):
    return gen.adjacency(t.n, gen.edges(t))


@pytest.mark.parametrize("n0", [1, 2, 3, 4])
@pytest.mark.parametrize("mix", [(2, 1, 2), (1, 1, 4), (1, 3, 1)])
def test_planted_formula_matches_brute_force(n0, mix):
    for seed in range(4):
        t = gen.planted_tree(n0, random.Random(seed), mix)
        assert t.n == 3 * n0
        assert check.brute_gamma_p(_adj(t)) == 2 * n0


@pytest.mark.parametrize("n", range(2, 13))
def test_closed_forms_match_brute_force(n):
    rng = random.Random(n)
    assert check.brute_gamma_p(_adj(gen.path_caterpillar(n, rng))) == 2 * -(-n // 4)
    assert check.brute_gamma_p(_adj(gen.star_caterpillar(n, rng))) == 2
    assert check.brute_gamma_p(_adj(gen.clique_caterpillar(n, rng))) == 2
    assert check.brute_gamma_p(_adj(gen.clique_tree(n, rng))) == 2


def test_path_and_star_caterpillars_have_their_shape():
    adj = _adj(gen.path_caterpillar(9, random.Random(1)))
    assert sorted(len(a) for a in adj) == [1, 1] + [2] * 7
    assert len(gen.edges(gen.path_caterpillar(9, None))) == 8
    adj = _adj(gen.star_caterpillar(9, random.Random(1)))
    assert sorted(len(a) for a in adj) == [1] * 8 + [8]


def test_stats_match_the_expansion_and_the_finite_rule():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 10)
        mix = rng.choice([(2, 1, 2), (1, 1, 4), (0, 1, 0), (1, 4, 1)])
        t = gen.random_tree(n, rng, mix)
        if rng.random() < 0.3:  # a false-twin root leaves a vertex isolated
            t.join("F", len(t.nodes) - 1, t.leaf(n))
            n += 1
        s, adj = gen.stats(t), _adj(t)
        assert s["n"] == n == len(adj)
        assert s["m"] == len(gen.edges(t)) == sum(map(len, adj)) // 2
        assert s["isolated"] == sum(1 for a in adj if not a)
        gamma = check.brute_gamma_p(adj)
        if s["isolated"]:
            assert gamma is None
        else:
            assert check.expected_gamma_ok(gamma, "even", n) is None


def test_witness_verifier_accepts_a_minimum_pds():
    adj = gen.adjacency(4, [(0, 1), (1, 2), (2, 3)])
    assert check.verify_witness(adj, [1, 2], 2) is None


def test_witness_verifier_rejects_dominating_set_without_perfect_matching():
    # K_{1,4}: centre plus three leaves dominates, but G[W] is K_{1,3}
    adj = gen.adjacency(5, [(0, i) for i in range(1, 5)])
    assert "perfect matching" in check.verify_witness(adj, [0, 1, 2, 3], 4)


def test_witness_verifier_rejects_matchable_set_that_does_not_dominate():
    adj = gen.adjacency(6, [(i, i + 1) for i in range(5)])
    assert "not dominated" in check.verify_witness(adj, [0, 1], 2)


def test_witness_verifier_rejects_wrong_size_and_bad_ids():
    adj = gen.adjacency(4, [(0, 1), (1, 2), (2, 3)])
    assert "size" in check.verify_witness(adj, [0, 1, 2, 3], 2)
    assert "repeats" in check.verify_witness(adj, [1, 1], 2)
    assert "range" in check.verify_witness(adj, [1, 9], 2)


def test_perfect_matching_agrees_with_brute_force():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(2, 8)
        pairs = [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.35]
        adj = gen.adjacency(n, pairs)
        w = [v for v in range(n) if rng.random() < 0.8]
        expect = len(w) % 2 == 0 and check._brute_match(adj, set(w))
        assert check.has_perfect_matching(adj, w) == expect
        if len(w) % 2 == 0:
            nb = {v: adj[v] & set(w) for v in w}
            assert check._exact_matching(nb, set(w)) == expect


def test_graph_text_is_the_documented_edge_list():
    t = gen.random_tree(30, random.Random(5), (2, 1, 2))
    text = gen.graph_text(30, gen.edges(t), random.Random(6))
    lines = text.splitlines()
    n, m = map(int, lines[0].split())
    got = {tuple(sorted(map(int, ln.split()))) for ln in lines[1:]}
    assert (n, m) == (30, len(lines) - 1)
    assert got == {tuple(sorted(e)) for e in gen.edges(t)}


def test_forbidden_plant_keeps_the_pattern_induced():
    import networkx as nx

    t = gen.random_tree(8, random.Random(8), (1, 1, 4))
    for kind, (k, local) in gen.FORBIDDEN.items():
        n, edges = gen.plant_forbidden(8, gen.edges(t), kind, random.Random(9))
        g = nx.Graph(edges)
        g.add_nodes_from(range(n))
        pattern = nx.Graph(local)
        assert n == 8 + k and nx.is_connected(g)
        assert any(nx.is_isomorphic(g.subgraph(sub), pattern)
                   for sub in itertools.combinations(range(n), k))


def test_tree_json_has_pairdoms_own_layout():
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    from pairdom import dectree

    for t in (gen.random_tree(50, random.Random(2), (1, 1, 1)),
              gen.star_caterpillar(40, None), gen.path_caterpillar(40, None)):
        text = gen.tree_json(t)
        json.loads(text)
        assert dectree.dumps(dectree.loads(text)) == text


def _report(op, **over):
    rep = {"n": op.n, "m": op.m, "gamma_p": op.gamma, "witness": None}
    rep.update(over)
    return {"exit": 0, "stdout": json.dumps(rep)}


def test_check_answer_rejects_wrong_gamma_n_m_exit_and_witness(tmp_path):
    t = gen.planted_tree(3, random.Random(1), (1, 1, 4))
    op = workloads._tree_op(tmp_path, "p", t, 6, witness=True)
    # the b_v are the right leaves of the A(a_v, b_v) joins; W = {v, a_v}
    leaf = {i: nd[1] for i, nd in enumerate(t.nodes) if nd[0] == gen.LEAF}
    b_side = {leaf[nd[2]] for nd in t.nodes if nd[0] == "A" and nd[1] in leaf and nd[2] in leaf}
    good = sorted(set(range(9)) - b_side)
    assert run.check_answer(op, _report(op, witness=good)) is None
    assert run.check_answer(op, _report(op, gamma_p=8, witness=good))
    assert run.check_answer(op, _report(op, n=8, witness=good))
    assert run.check_answer(op, _report(op, m=op.m + 1, witness=good))
    assert run.check_answer(op, {**_report(op, witness=good), "exit": 3})
    assert run.check_answer(op, _report(op, witness=good[:-2] + [good[0], good[0]]))
    assert run.check_answer(op, _report(op, witness=None))


def test_check_answer_expects_exit_3_and_null_where_stated(tmp_path):
    not_dh = workloads.Op("hole", [], 5, None, 3)
    assert run.check_answer(not_dh, {"exit": 3, "stdout": ""}) is None
    assert run.check_answer(not_dh, _report(not_dh, gamma_p=2))
    t = gen.random_tree(6, random.Random(2), (1, 1, 4))
    t.join("F", len(t.nodes) - 1, t.leaf(6))
    op = workloads._tree_op(tmp_path, "iso", t, "even")
    assert op.gamma is None
    assert run.check_answer(op, _report(op, gamma_p=None)) is None
    assert run.check_answer(op, _report(op, gamma_p=4))


def test_tail_leaves_ten_values_beyond_it():
    values = list(range(40))
    assert run.tail_value(values) == 29
    assert run.tail_value(values[:11]) == 0
    assert run.tail_value(values[:5]) == 4
