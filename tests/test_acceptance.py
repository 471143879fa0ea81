"""Acceptance gate: the nine primary criteria, one reported line each.

Shared corpora are built once per module: `corpus_small` (300 trees,
2 <= n <= 14, solved with witnesses) backs criteria 3, 5, 7 and 9;
`corpus_nodes` (100 trees, n <= 12, solved per node) backs criteria 4 and 5.
"""

import itertools
import random
import statistics
import time

import pytest

from conftest import (children, cycle_graph, is_distance_hereditary, is_leaf, label,
                      node_subproblems, solve_with_witness)
from pairdom import dectree, dp, oracle, recognition
from pairdom.cli import main as cli_main
from pairdom.graph import build_graph
from pairdom.oracle import is_paired_dominating


@pytest.fixture
def report(capsys):
    def _report(num, ok, text):
        with capsys.disabled():
            print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {text}")
        assert ok, f"criterion {num} failed: {text}"
    return _report


@pytest.fixture(scope="module")
def corpus_small():
    out = []
    for seed in range(300):
        n = random.Random(seed).randint(2, 14)
        t = dectree.generate(n, seed)
        g, _ = dectree.expand(t)
        out.append((seed, t, g, solve_with_witness(t)))
    return out


@pytest.fixture(scope="module")
def corpus_nodes():
    out = []
    for seed in range(100):
        n = random.Random(10_000 + seed).randint(2, 12)
        t = dectree.generate(n, 10_000 + seed)
        g, _ = dectree.expand(t)
        out.append((seed, t, g, dp.solve(t)))
    return out


def test_criterion_1_worked_example_end_to_end(report, ex7_graph, ex7_tree,
                                     data_dir, capsys):
    t0 = time.perf_counter()
    via_graph = solve_with_witness(recognition.decompose(ex7_graph))
    via_tree = solve_with_witness(ex7_tree)
    elapsed = time.perf_counter() - t0
    ok = via_graph.gamma_p == 2 and via_tree.gamma_p == 2
    for res in (via_graph, via_tree):
        ok = ok and len(res.witness) == 2
        code = cli_main(["check", "--graph", str(data_dir / "ex7.txt"),
                         "--set", ",".join(map(str, res.witness))])
        capsys.readouterr()
        ok = ok and code == 0
    ok = ok and elapsed < 1.0
    report(1, ok, f"worked example gamma_p=2 both paths, witnesses check out, "
                  f"{elapsed:.3f}s")


def test_criterion_2_root_profile(report, ex7_tree):
    root = dp.solve(ex7_tree).states[ex7_tree.root]
    profile = tuple(dp.eval_gamma_k(root, k) for k in range(6))
    report(2, profile == (2, 1, 2, 3, 4, 5),
           f"root curve k=0..5 is {profile}")


def test_criterion_3_gamma_p_oracle_equivalence(report, corpus_small):
    t0 = time.perf_counter()
    bad = [seed for seed, _, g, res in corpus_small
           if res.gamma_p != oracle.oracle_gamma_p(g)]
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 300
    report(3, ok, f"{len(corpus_small)} trees vs exhaustive gamma_p, "
                  f"{len(bad)} mismatches, {elapsed:.1f}s")


def test_criterion_4_per_node_state_equivalence(report, corpus_nodes):
    mismatches = 0
    nodes_checked = 0
    for seed, t, g, res in corpus_nodes:
        for node, sub, ts_local in node_subproblems(t, g):
            nodes_checked += 1
            rep = oracle.oracle_node_state(sub, ts_local)
            s = res.states[node]
            _, _, _, ts_size, gamma_p, mty_ts, mty_pr = s
            curve_ok = all(rep.gamma_k[k] == dp.eval_gamma_k(s, k)
                           for k in range(ts_size + 1))
            flags_ok = (rep.mty_ts == mty_ts and rep.mty_pr == mty_pr
                        and rep.gamma_p == gamma_p)
            if not (curve_ok and flags_ok):
                mismatches += 1
    report(4, mismatches == 0,
           f"{nodes_checked} node states across {len(corpus_nodes)} trees, "
           f"{mismatches} mismatches")


def test_criterion_5_unit_step_and_parity(report, corpus_small, corpus_nodes):
    violations = 0
    states_checked = 0
    for _, _, _, res in itertools.chain(corpus_small, corpus_nodes):
        for s in res.states:
            states_checked += 1
            _, alpha, beta, ts_size, gamma_p, _, _ = s
            for k in range(ts_size):
                if abs(dp.eval_gamma_k(s, k) - dp.eval_gamma_k(s, k + 1)) != 1:
                    violations += 1
            if (beta - alpha) % 2 != 0:
                violations += 1
            if gamma_p != dp.INF and gamma_p % 2 != 0:
                violations += 1
    report(5, violations == 0,
           f"{states_checked} states: unit steps, even beta-alpha, "
           f"even-or-infinite gamma_p; {violations} violations")


def test_criterion_6_recognition_round_trip(report):
    rt_bad = 0
    for seed in range(500):
        n = random.Random(20_000 + seed).randint(2, 200)
        g, _ = dectree.expand(dectree.generate(n, 20_000 + seed))
        g2, _ = dectree.expand(recognition.decompose(g))
        if set(g2.edges()) != set(g.edges()) or g2.n != g.n:
            rt_bad += 1

    dh_bad = 0
    graphs = [cycle_graph(5), cycle_graph(6)]
    for seed in range(198):
        rng = random.Random(30_000 + seed)
        n = rng.randint(1, 8)
        p = rng.uniform(0.15, 0.9)
        edges = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < p]
        graphs.append(build_graph(n, edges))
    for g in graphs:
        if is_distance_hereditary(g) != oracle.oracle_is_dh(g):
            dh_bad += 1
    ok = rt_bad == 0 and dh_bad == 0
    ok = ok and not is_distance_hereditary(cycle_graph(5))
    ok = ok and not is_distance_hereditary(cycle_graph(6))
    report(6, ok, f"500 round-trips ({rt_bad} bad), {len(graphs)} recognizer "
                  f"vs oracle comparisons ({dh_bad} disagreements)")


def test_criterion_7_witness_validity(report, corpus_small):
    bad = 0
    finite = 0
    for seed, t, g, res in corpus_small:
        if res.gamma_p == dp.INF:
            if res.witness is not None:
                bad += 1
            continue
        finite += 1
        if res.witness is None or len(res.witness) != res.gamma_p:
            bad += 1
        elif not is_paired_dominating(g, res.witness):
            bad += 1
    report(7, bad == 0,
           f"{finite} finite instances, every witness paired-dominating "
           f"with |W| = gamma_p; {bad} bad")


def test_criterion_8_linear_scaling(report):
    import gc

    sizes = (10_000, 100_000, 1_000_000)
    trees = {n: dectree.generate(n, seed=42) for n in sizes}
    for t in trees.values():
        dp.solve(t)  # warm-up: allocator growth not timed
    # the sizes take turns, so that a drift of the machine's speed reaches
    # every size alike instead of the one timed while it lasts
    times = {n: [] for n in sizes}
    for _ in range(5):
        for n in sizes:
            gc.collect()
            gc.disable()  # same hygiene as timeit: no collector pauses mid-run
            try:
                t0 = time.perf_counter()
                dp.solve(trees[n])
                times[n].append(time.perf_counter() - t0)
            finally:
                gc.enable()
    medians = {n: statistics.median(times[n]) for n in sizes}
    ratio = medians[1_000_000] / medians[100_000]
    per_leaf_small = medians[10_000] / 10_000
    per_leaf_big = medians[1_000_000] / 1_000_000
    drift = per_leaf_big / per_leaf_small
    ok = ratio <= 15 and drift <= 3 and drift >= 1 / 3
    report(8, ok, f"10^6/10^5 time ratio {ratio:.2f} (<=15), per-leaf drift "
                  f"10^6 vs 10^4 {drift:.2f}x (<=3x)")


def test_criterion_9_recursion_consistency(report, corpus_small):
    violations = 0
    nodes = 0
    for _, t, _, res in corpus_small:
        for node in range(len(t.nodes)):
            if is_leaf(t, node):
                continue
            nodes += 1
            s = res.states[node]
            left, right = children(t, node)
            sl, sr = res.states[left], res.states[right]
            if label(t, node) == dectree.FALSE_TWIN:
                if s[dp.GAMMA_P] != dp.sat_add(sl[dp.GAMMA_P], sr[dp.GAMMA_P]):
                    violations += 1
            else:
                if s[dp.GAMMA_P] != dp.eval_gamma_k(s, 0) + 2 * s[dp.MTY_PR]:
                    violations += 1
    report(9, violations == 0,
           f"{nodes} internal nodes: twin joins add child gamma_p values, "
           f"biclique joins pay gamma_0 + 2*mty_pr; {violations} violations")
