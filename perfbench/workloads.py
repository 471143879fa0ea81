"""The three workloads: one round of operations each, built from a seed.

Every round has the same slots (shape, size, label mix) whatever the seed;
the seed picks tree structure, vertex ids and edge order. So every run of a
workload attempts the same operations and its medians and tails sit on the
same slots.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import gen

DENSE = (1.0, 1.0, 2.0)   # T, F, A label weights: about 7 edges per vertex
SPARSE = (1.0, 1.0, 4.0)  # attachment-heavy: about 2.3 edges per vertex

# Fault kept in tree-count: the nested JSON of this star is deep enough that
# dectree.loads, having raised the recursion limit, lets the C JSON parser
# overflow the 8 MB stack and the process dies with SIGSEGV.
KNOWN_FAULT = "SIGSEGV in dectree.loads on a 100k-deep nested tree"


@dataclass
class Op:
    name: str
    argv: list[str]
    n: int
    m: int | None           # None where the input is not distance-hereditary
    exit: int               # expected exit code: 0, or 3 for not DH
    gamma: object = None    # int, None (no set exists) or "even"
    tree: gen.Tree | None = None   # kept for witness checks
    tree_path: str | None = None   # a tree of the same graph, for dp.solve
    fault: str | None = None       # a named program fault this op hits
    adj: list | None = None        # the expansion's adjacency, built on demand


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _tree_op(work: Path, name: str, t: gen.Tree, gamma, witness=False,
             fault=None) -> Op:
    s = gen.stats(t)
    if gamma == "even" and s["isolated"]:
        gamma = None
    path = _write(work / f"{name}.json", gen.tree_json(t))
    argv = ["solve", "--tree", path, "--json"] + (["--witness"] if witness else [])
    return Op(name, argv, s["n"], s["m"], 0, gamma,
              tree=t if witness else None, tree_path=path, fault=fault)


def tree_count(seed: int, work: Path) -> list[Op]:
    # 28 shallow trees of one size, 7 of each (shape, mix) pair, hold the
    # median and the tail: with one size the ranking has no step between
    # size classes for either to sit on, and 7 draws of each pair average out
    # how the seed moves a tree's edge count.
    rng = random.Random(seed)
    ops = []
    size = 8000
    for rep in range(7):
        for mix_name, mix in (("dense", DENSE), ("sparse", SPARSE)):
            ops.append(_tree_op(work, f"planted-{mix_name}-{size}-{rep}",
                                gen.planted_tree(size // 3, rng, mix), 2 * (size // 3)))
            ops.append(_tree_op(work, f"plain-{mix_name}-{size}-{rep}",
                                gen.random_tree(size, rng, mix), "even"))
    n = 30000
    ops.append(_tree_op(work, "path-30000", gen.path_caterpillar(n, rng), 2 * -(-n // 4)))
    ops.append(_tree_op(work, "star-30000", gen.star_caterpillar(n, rng), 2))
    ops.append(_tree_op(work, "clique-2000", gen.clique_tree(2000, rng), 2))
    # seed-independent, so the failure is the same in every run
    ops.append(_tree_op(work, "star-100000", gen.star_caterpillar(100000, None), 2,
                        fault=KNOWN_FAULT))
    return ops


def _graph_op(work: Path, name: str, t: gen.Tree, gamma, rng: random.Random,
              plant: str | None = None, isolate: bool = False) -> Op:
    s = gen.stats(t)
    n, edges = s["n"], gen.edges(t)
    tree_path = None
    if plant:
        n, edges = gen.plant_forbidden(n, edges, plant, rng)
    else:
        tree_path = _write(work / f"{name}.tree.json", gen.tree_json(t))
    if isolate:
        perm = list(range(n + 1))
        rng.shuffle(perm)
        n, edges = n + 1, [(perm[u], perm[v]) for u, v in edges]
        gamma, tree_path = None, None
    path = _write(work / f"{name}.txt", gen.graph_text(n, edges, rng))
    return Op(name, ["solve", "--graph", path, "--json"], n,
              None if plant else len(edges), 3 if plant else 0, gamma,
              tree_path=tree_path)


def graph_count(seed: int, work: Path) -> list[Op]:
    # 46 graphs of 100-250 vertices hold the median and the tail, so
    # neither sits on a step between size classes. Recognition time varies
    # with the vertex ids from instance to instance; many draws of one size
    # steady the median. Five larger graphs, up to 800 vertices, rank above.
    rng = random.Random(seed)
    ops: list[Op] = []

    def planted(size, rep=0):
        ops.append(_graph_op(work, f"planted-{size}-{rep}",
                             gen.planted_tree(size // 3, rng, SPARSE), 2 * (size // 3), rng))

    def plain(size, mix_name, rep=0):
        mix = DENSE if mix_name == "dense" else SPARSE
        ops.append(_graph_op(work, f"plain-{mix_name}-{size}-{rep}",
                             gen.random_tree(size, rng, mix), "even", rng))

    def path(size, rep=0):
        ops.append(_graph_op(work, f"path-{size}-{rep}", gen.path_caterpillar(size, rng),
                             2 * -(-size // 4), rng))

    def star(size, rep=0):
        ops.append(_graph_op(work, f"star-{size}-{rep}", gen.star_caterpillar(size, rng),
                             2, rng))

    def clique(size, rep=0):
        ops.append(_graph_op(work, f"clique-{size}-{rep}", gen.clique_tree(size, rng), 2, rng))

    def forbidden(kind, size, rep=0):
        ops.append(_graph_op(work, f"{kind}-{size}-{rep}", gen.random_tree(size, rng, SPARSE),
                             None, rng, plant=kind))

    for rep in range(10):
        planted(200, rep), plain(200, "sparse", rep), plain(200, "dense", rep)
    for rep in range(2):
        for kind in gen.FORBIDDEN:
            forbidden(kind, 200, rep)
        ops.append(_graph_op(work, f"isolated-200-{rep}", gen.random_tree(200, rng, SPARSE),
                             None, rng, isolate=True))
        star(250, rep), path(200, rep), clique(100, rep)
    path(300), clique(200), planted(500), plain(500, "sparse"), star(800)
    return ops


def tree_witness(seed: int, work: Path) -> list[Op]:
    # 16 planted trees of 1000 leaves, 8 of each mix, hold the median and the
    # tail. Plain trees of that size take about two thirds as long, so they
    # rank below with the 150-leaf caterpillars; 2000-leaf trees and 250-leaf
    # path and star caterpillars rank above.
    rng = random.Random(seed)
    ops = []

    def planted(size, rep):
        for mix_name, mix in (("dense", DENSE), ("sparse", SPARSE)):
            ops.append(_tree_op(work, f"planted-{mix_name}-{size}-{rep}",
                                gen.planted_tree(size // 3, rng, mix), 2 * (size // 3),
                                witness=True))

    def plain(size, rep):
        for mix_name, mix in (("dense", DENSE), ("sparse", SPARSE)):
            ops.append(_tree_op(work, f"plain-{mix_name}-{size}-{rep}",
                                gen.random_tree(size, rng, mix), "even", witness=True))

    for rep in range(8):
        planted(1000, rep)
    for rep in range(2):
        plain(1000, rep)
    planted(2000, 0), plain(2000, 0)
    for size in (150, 250):
        ops.append(_tree_op(work, f"path-{size}", gen.path_caterpillar(size, rng),
                            2 * -(-size // 4), witness=True))
        ops.append(_tree_op(work, f"star-{size}", gen.star_caterpillar(size, rng), 2,
                            witness=True))
        ops.append(_tree_op(work, f"clique-{size}", gen.clique_caterpillar(size, rng), 2,
                            witness=True))
    return ops


WORKLOADS = {
    "tree-count": tree_count,
    "graph-count": graph_count,
    "tree-witness": tree_witness,
}


def cold_op(work: Path) -> Op:
    """A small instance for the cold first call of every set-up."""
    return _tree_op(work, "cold", gen.planted_tree(4, random.Random(0), SPARSE), 8)
