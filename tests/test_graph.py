import itertools
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from conftest import has_edge, induced_subgraph
from pairdom.graph import (
    Graph,
    GraphError,
    build_graph,
    format_graph_text,
    is_dominating,
    parse_graph_text,
)
from pairdom.oracle import has_perfect_matching_induced, is_paired_dominating


def random_graph(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = list(itertools.combinations(range(n), 2))
    picks = draw(st.lists(st.sampled_from(pairs) if pairs else st.nothing(),
                          max_size=len(pairs)))
    return build_graph(n, picks)


graphs = st.composite(random_graph)()


def test_build_k2():
    g = build_graph(2, [(0, 1)])
    assert g.n == 2 and g.m == 1
    assert has_edge(g, 0, 1) and has_edge(g, 1, 0)


def test_graph_compares_and_hashes_by_fields():
    g = build_graph(3, [(0, 1), (1, 2)])
    same = Graph(n=3, m=2, adjacency=((1,), (0, 2), (1,)))
    assert g == same and hash(g) == hash(same) and len({g, same}) == 1
    assert g != build_graph(3, [(0, 1), (0, 2)])
    assert g != build_graph(4, [(0, 1), (1, 2)])


def test_build_ex7(ex7_graph):
    assert ex7_graph.n == 7 and ex7_graph.m == 13


def test_build_rejects_self_loop():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(GraphError):
        build_graph(2, [(0, 2)])


def test_build_collapses_duplicates():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


@given(st.integers(2, 8), st.data())
def test_build_graph_agrees_with_a_set_of_edges(n, data):
    # both orientations of every pair, so lists repeat edges and reverse them
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=40))
    reference = {frozenset(e) for e in edges}
    adjacency = tuple(tuple(sorted(v for e in reference if u in e for v in e if v != u))
                      for u in range(n))
    expected = Graph(n, len(reference), adjacency)
    assert build_graph(n, edges) == expected
    assert build_graph(n, iter(edges)) == expected


def test_adjacency_symmetric_and_sorted():
    g = build_graph(5, [(4, 0), (2, 1), (0, 2)])
    for u in range(g.n):
        assert list(g.adjacency[u]) == sorted(g.adjacency[u])
        for v in g.adjacency[u]:
            assert u in g.adjacency[v]
    assert g.m * 2 == sum(len(a) for a in g.adjacency)


def test_is_dominating_cases(ex7_graph):
    assert is_dominating(ex7_graph, {4, 5}, {5, 6})
    assert is_dominating(ex7_graph, set(), set())
    k2 = build_graph(2, [(0, 1)])
    assert is_dominating(k2, {0}, {0, 1})
    assert not is_dominating(ex7_graph, {1}, {5})


@given(graphs)
def test_full_vertex_set_dominates_everything(g):
    assert is_dominating(g, range(g.n), range(g.n))


def test_matching_cases(ex7_graph):
    assert has_perfect_matching_induced(ex7_graph, set())
    assert has_perfect_matching_induced(ex7_graph, {2, 3})
    assert not has_perfect_matching_induced(ex7_graph, {0})
    assert not has_perfect_matching_induced(ex7_graph, {1, 2})  # non-adjacent
    path = build_graph(3000, [(v, v + 1) for v in range(2999)])
    assert has_perfect_matching_induced(path, range(3000))  # deeper than the C stack


def _matching_by_enumeration(g, s):
    s = sorted(s)
    if len(s) % 2:
        return False
    if not s:
        return True
    # try every way of pairing up s
    def pair_up(rest):
        if not rest:
            return True
        a = rest[0]
        return any(
            has_edge(g, a, b) and pair_up([x for x in rest[1:] if x != b])
            for b in rest[1:]
        )
    return pair_up(s)


@given(graphs, st.data())
def test_matching_agrees_with_enumeration(g, data):
    s = data.draw(st.lists(st.integers(0, g.n - 1), max_size=6, unique=True))
    assert has_perfect_matching_induced(g, s) == _matching_by_enumeration(g, s)


def test_paired_dominating_cases(ex7_graph):
    assert is_paired_dominating(ex7_graph, {2, 3})
    assert is_paired_dominating(ex7_graph, {4, 5})
    assert is_paired_dominating(build_graph(2, [(0, 1)]), {0, 1})
    assert not is_paired_dominating(ex7_graph, {1, 2})


@given(graphs, st.data())
def test_paired_dominating_sets_are_even(g, data):
    d = data.draw(st.lists(st.integers(0, g.n - 1), max_size=8, unique=True))
    if is_paired_dominating(g, d):
        assert len(set(d)) % 2 == 0


def test_induced_subgraph(ex7_graph):
    sub, relabel = induced_subgraph(ex7_graph, [3, 4, 5, 6])
    assert sub.n == 4
    assert sub.m == 5  # 3-4, 3-5, 3-6, 4-5, 4-6 relabeled
    assert relabel[3] == 0 and relabel[6] == 3


def test_text_format_round_trip(ex7_graph):
    text = format_graph_text(ex7_graph)
    assert parse_graph_text(text) == ex7_graph


def test_text_format_comments_and_errors():
    g = parse_graph_text("# hello\n2 1\n# mid\n0 1\n")
    assert g.n == 2 and g.m == 1
    with pytest.raises(GraphError):
        parse_graph_text("")
    with pytest.raises(GraphError):
        parse_graph_text("2 2\n0 1\n")  # missing edge line
    with pytest.raises(GraphError):
        parse_graph_text("2 x\n")
    with pytest.raises(GraphError, match=r"^header claims 3 edges but 2 are distinct$"):
        parse_graph_text("3 3\n0 1\n1 0\n1 2\n")
    with pytest.raises(GraphError, match=r"^negative vertex count -1$"):
        parse_graph_text("-1 0\n")


def test_parse_reports_the_first_faulty_line():
    with pytest.raises(GraphError, match=r"^edge \(0, 5\) out of range for n=3$"):
        parse_graph_text("3 2\n0 5\n0 x\n")
    with pytest.raises(GraphError, match=r"^bad edge line '0 x'$"):
        parse_graph_text("3 2\n0 x\n0 5\n")


def test_parse_peak_is_at_most_160_bytes_per_edge():
    # K_200: the edge lines reach build_graph with no tuple per edge kept
    text = format_graph_text(build_graph(200, itertools.combinations(range(200), 2)))
    tracemalloc.start()
    try:
        g = parse_graph_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m == 19_900 and peak <= 160 * g.m
