import itertools
import random

import pytest

from conftest import cycle_graph
from pairdom import dectree, dp
from pairdom.graph import build_graph
from pairdom.recognition import (
    NotDistanceHereditary,
    Reduction,
    ReductionKind,
    decompose,
    find_reduction,
    is_distance_hereditary,
)


def test_find_reduction_k2():
    r = find_reduction(build_graph(2, [(0, 1)]))
    assert r == Reduction(ReductionKind.PENDANT, removed=0, anchor=1)


def test_find_reduction_c5_absent():
    assert find_reduction(cycle_graph(5)) is None


def test_find_reduction_star():
    g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    r = find_reduction(g)
    assert r.kind == ReductionKind.PENDANT
    assert r.removed == 1 and r.anchor == 0


def test_find_reduction_true_twins():
    g = build_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])  # 0 and 1 true twins
    r = find_reduction(g)
    assert r == Reduction(ReductionKind.TRUE_TWIN, removed=0, anchor=1)


def test_find_reduction_false_twins():
    g = build_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])  # C4: 0,1 false twins
    r = find_reduction(g)
    assert r == Reduction(ReductionKind.FALSE_TWIN, removed=0, anchor=1)


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
    # three isolated vertices, then K2 + P3 + isolated vertex + K2
    for g in (build_graph(3, []),
              build_graph(8, [(0, 1), (2, 3), (3, 4), (6, 7)])):
        t = decompose(g)
        assert dectree.validate(t) == []
        again = dectree.loads(dectree.dumps(t))
        assert again == t
        assert _expands_equal(again, g)


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
