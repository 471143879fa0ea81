import hashlib
import itertools
import random

import pytest

from conftest import (LABEL_MIXES, caterpillar, cycle_graph, find_reduction, induced_subgraph,
                      is_distance_hereditary)
from pairdom import dectree, dp, recognition
from pairdom.graph import build_graph, is_dominating
from pairdom.oracle import has_perfect_matching_induced
from pairdom.recognition import NotDistanceHereditary, decompose, paired_domination_fault


def test_find_reduction_k2():
    assert find_reduction(build_graph(2, [(0, 1)])) == (dectree.ATTACH_TAG, 0, 1)


def test_find_reduction_c5_absent():
    assert find_reduction(cycle_graph(5)) is None


def test_find_reduction_star():
    g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert find_reduction(g) == (dectree.ATTACH_TAG, 1, 0)


def test_find_reduction_true_twins():
    g = build_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])  # 0 and 1 true twins
    assert find_reduction(g) == (dectree.TRUE_TWIN_TAG, 0, 1)


def test_find_reduction_false_twins():
    g = build_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])  # C4: 0,1 false twins
    assert find_reduction(g) == (dectree.FALSE_TWIN_TAG, 0, 1)


def _expands_equal(t, g):
    eg, _ = dectree.expand(t)
    return eg.n == g.n and set(eg.edges()) == set(g.edges())


def test_decompose_ex7(ex7_graph):
    t = decompose(ex7_graph)
    assert _expands_equal(t, ex7_graph)


def test_decompose_c5():
    with pytest.raises(NotDistanceHereditary) as exc:
        decompose(cycle_graph(5))
    assert len(exc.value.remnant) >= 4


def test_decompose_k2():
    g = build_graph(2, [(0, 1)])
    assert _expands_equal(decompose(g), g)


def test_decompose_disconnected_saturates():
    g = build_graph(3, [(0, 1)])  # K2 plus isolated vertex
    t = decompose(g)
    assert _expands_equal(t, g)
    assert dp.solve(t).gamma_p == dp.INF


def test_decompose_many_components_round_trips_through_json():
    # three isolated vertices; K2 + P3 + isolated vertex + K2; and 30
    # connected DH graphs of 2-40 vertices, with all their ids shuffled
    rng = random.Random(7)
    parts = [_relabeled(dectree.expand(dectree.generate(rng.randint(2, 40), s,
                                                        LABEL_MIXES[s % 5]))[0], s)
             for s in range(30)]
    edges, n = [], 0
    for part in parts:
        edges += [(u + n, v + n) for u, v in part.edges()]
        n += part.n
    many = _relabeled(build_graph(n, edges), 7)
    for g in (build_graph(3, []),
              build_graph(8, [(0, 1), (2, 3), (3, 4), (6, 7)]),
              many):
        t = decompose(g)
        assert dectree.validate(t.labels, t.vertices) == []
        again = dectree.loads(dectree.dumps(t))
        assert again == t
        assert _expands_equal(again, g)
    assert (dp.solve(decompose(many)).gamma_p
            == sum(dp.solve(decompose(p)).gamma_p for p in parts))


def test_decompose_remnant_leaves_out_other_components():
    # a C5, a K2 and two isolated vertices: the K2 and the isolated
    # vertices prune away, so the remnant is exactly the C5's ids
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(5, 6)]
    for seed in range(20):
        perm = list(range(9))
        random.Random(seed).shuffle(perm)
        with pytest.raises(NotDistanceHereditary) as exc:
            decompose(build_graph(9, [(perm[u], perm[v]) for u, v in edges]))
        assert exc.value.remnant == tuple(sorted(perm[:5])), seed


def test_decompose_path_and_star():
    for g in (build_graph(6, [(i, i + 1) for i in range(5)]),
              build_graph(6, [(0, i) for i in range(1, 6)])):
        assert _expands_equal(decompose(g), g)


def test_round_trip_generated_trees():
    for seed in range(60):
        n = random.Random(seed).randint(2, 60)
        g, _ = dectree.expand(dectree.generate(n, seed))
        assert _expands_equal(decompose(g), g), seed


def test_is_dh_examples(ex7_graph):
    assert is_distance_hereditary(ex7_graph)
    assert not is_distance_hereditary(cycle_graph(5))
    assert not is_distance_hereditary(cycle_graph(6))


def test_trees_are_distance_hereditary():
    for seed in range(20):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        edges = [(v, rng.randrange(v)) for v in range(1, n)]
        assert is_distance_hereditary(build_graph(n, edges))


def test_is_dh_agrees_with_oracle_small():
    from pairdom.oracle import oracle_is_dh

    for seed in range(80):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        p = rng.uniform(0.2, 0.9)
        edges = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < p]
        g = build_graph(n, edges)
        assert is_distance_hereditary(g) == oracle_is_dh(g), (seed, edges)


def test_verifier_agrees_with_the_reference_on_every_small_dh_graph():
    # bounded-exhaustive: every labelled DH graph on 1..5 vertices with
    # every vertex subset, and every one on 6 vertices with D = V, against
    # the domination test and the backtracking matching search
    dh_graphs = dict.fromkeys(range(1, 7), 0)
    for n in dh_graphs:
        pairs = list(itertools.combinations(range(n), 2))
        subsets = ([d for size in range(n + 1) for d in itertools.combinations(range(n), size)]
                   if n <= 5 else [tuple(range(n))])
        for mask in range(1 << len(pairs)):
            g = build_graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            if not is_distance_hereditary(g):
                continue
            dh_graphs[n] += 1
            for d in subsets:
                if len(d) % 2:
                    expected = "odd set size"
                elif not is_dominating(g, d, range(n)):
                    expected = "set is not dominating"
                elif not has_perfect_matching_induced(g, d):
                    expected = "induced subgraph has no perfect matching"
                else:
                    expected = None
                assert paired_domination_fault(g, d) == expected, (g.edges(), d)
    # the labelled DH graphs on 1..6 vertices: C5, the house and the gem
    # are the 132 graphs on 5 vertices left out
    assert dh_graphs == {1: 1, 2: 2, 3: 8, 4: 64, 5: 892, 6: 18344}


def _relabeled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_generate_and_decompose_match_golden_digests():
    # SHA-256 over the columns of every tree, pinning the exact trees
    # (random stream, merge order and layout), not only that they are valid
    generated, decomposed = hashlib.sha256(), hashlib.sha256()
    for mix in LABEL_MIXES:
        for seed in range(3):
            for n in (1, 2, 50, 1000):
                t = dectree.generate(n, seed, mix)
                generated.update(t.labels + t.vertices.tobytes())
                d = decompose(_relabeled(dectree.expand(t)[0], seed))
                decomposed.update(d.labels + d.vertices.tobytes())
    assert generated.hexdigest() == (
        "92988f1c20a5c6b127a2c72e1e858cba565905e7e345c378aec00265113d5740")
    assert decomposed.hexdigest() == (
        "67ede5a0cfa584cc557aae3758b67b550c231af40f9cb61fb36397647343e87d")


def test_decompose_scales_to_10k_vertex_graph():
    src = dectree.generate(10_000, 5, (1, 1, 4))
    g = _relabeled(dectree.expand(src)[0], 5)
    t = decompose(g)
    assert _expands_equal(t, g)
    assert dp.solve(t).gamma_p == dp.solve(src).gamma_p


def test_decompose_long_path_and_big_star():
    path = build_graph(3000, [(i, i + 1) for i in range(2999)])
    star = build_graph(10_000, [(0, i) for i in range(1, 10_000)])
    # 20 000 vertices share the neighbourhood {a, b}, and a path a-p-q keeps
    # a and b from being twins: the 20 000 prune into one chain of F joins
    k = 20_000
    a, b, p, q = k, k + 1, k + 2, k + 3
    twins = build_graph(k + 4, [(v, x) for v in range(k) for x in (a, b)]
                        + [(a, p), (p, q)])
    for g in (path, star, twins):
        assert _expands_equal(decompose(g), g)


def test_decompose_is_deterministic():
    g = _relabeled(dectree.expand(dectree.generate(2000, 9))[0], 9)
    assert decompose(g) == decompose(g)


def test_decompose_remnant_is_stuck():
    # a C5 on five new vertices, tied to a DH graph by one edge, ids shuffled
    dh, _ = dectree.expand(dectree.generate(2000, 3, (1, 1, 4)))
    n = dh.n
    hole = [(n + i, n + (i + 1) % 5) for i in range(5)]
    g = _relabeled(build_graph(n + 5, dh.edges() + hole + [(0, n)]), 3)
    with pytest.raises(NotDistanceHereditary) as exc:
        decompose(g)
    remnant = exc.value.remnant
    assert len(remnant) >= 5
    assert find_reduction(induced_subgraph(g, remnant)[0]) is None


# graphs with no pendant and no twin, so none prunes at all
HOUSE = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1)])
GEM = build_graph(5, [(0, 1), (1, 2), (2, 3)] + [(4, v) for v in range(4)])
DOMINO = build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])


def _decompose_colliding(g):
    """Prune g with every key 0, so that all filed vertices share one
    bucket and only the actual neighbour sets tell twins apart."""
    return recognition._decompose_adj(
        {v: set(nv) for v, nv in enumerate(g.adjacency)}, [0] * g.n)


def test_pruning_survives_hash_collisions():
    graphs = [_relabeled(dectree.expand(dectree.generate(n, seed, mix))[0], seed)
              for mix in LABEL_MIXES for seed, n in enumerate((2, 7, 30, 60))]
    graphs += [dectree.expand(caterpillar(n, shape))[0]
               for shape in ("path", "star", "clique") for n in (2, 5, 40)]
    for g in graphs:
        assert _expands_equal(_decompose_colliding(g), g)
    for g in (cycle_graph(5), HOUSE, GEM, DOMINO):
        with pytest.raises(NotDistanceHereditary) as exc:
            _decompose_colliding(g)
        assert exc.value.remnant == tuple(range(g.n))
