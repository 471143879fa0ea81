"""Command-line front door.

Subcommands: solve, gen, check, bench, oracle. Exit codes: 0 success,
1 failed check, 2 parse/usage error, 3 input not distance-hereditary,
4 oracle size guard exceeded. PDOM_SEED provides the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from . import dectree, dp, oracle, recognition
from .graph import GraphError, format_graph_text, is_dominating, parse_graph_text

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NOT_DH = 3
EXIT_ORACLE_GUARD = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _default_seed() -> int:
    raw = os.environ.get("PDOM_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"PDOM_SEED must be an integer, got {raw!r}")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")


def _load_graph(path: str):
    try:
        return parse_graph_text(_read(path))
    except GraphError as exc:
        raise CliError(f"{path}: {exc}")


def _load_tree(path: str):
    try:
        return dectree.loads(_read(path))
    except dectree.TreeError as exc:
        raise CliError(f"{path}: {exc}")


def _parse_ids(raw: str) -> list[int]:
    raw = raw.strip()
    if not raw:
        return []
    try:
        return [int(tok) for tok in raw.replace(",", " ").split()]
    except ValueError:
        raise CliError(f"expected comma-separated vertex ids, got {raw!r}")


def _gamma_str(gamma) -> str:
    return "none" if gamma == dp.INF else str(int(gamma))


def _gamma_json(gamma):
    return None if gamma == dp.INF else int(gamma)


def _peak_rss_bytes():
    """Peak resident set size of this process in bytes, or None where
    getrusage is missing (Windows)."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # macOS reports ru_maxrss in bytes, Linux and the BSDs in KiB
    return peak if sys.platform == "darwin" else peak * 1024


def _edge_count(tree, states) -> int:
    """Edge count of the tree's expansion without building it: each T or A
    node adds a biclique between its children's twin sets, whose sizes the
    solver's states carry."""
    return sum(states[nd[1]].ts_size * states[nd[2]].ts_size for nd in tree.nodes
               if nd[0] == dectree.TRUE_TWIN or nd[0] == dectree.ATTACH)


def cmd_solve(args) -> int:
    if (args.graph is None) == (args.tree is None):
        raise CliError("exactly one of --graph/--tree is required")
    t0 = time.perf_counter()
    if args.graph:
        g = _load_graph(args.graph)
        instance = args.graph
        try:
            tree = recognition.decompose(g)
        except recognition.NotDistanceHereditary as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NOT_DH
    else:
        tree = _load_tree(args.tree)
        instance = args.tree
    t_build = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = dp.solve(tree, want_witness=False)
    t_solve = time.perf_counter() - t0

    witness = None
    t_rec = 0.0
    if args.witness and result.gamma_p != dp.INF:
        t0 = time.perf_counter()
        from .witness import reconstruct_witness

        witness = reconstruct_witness(tree, result.states)
        t_rec = time.perf_counter() - t0

    if args.json:
        report = {
            "instance": instance,
            "n": tree.n_leaves,
            "m": _edge_count(tree, result.states),
            "gamma_p": _gamma_json(result.gamma_p),
            "witness": list(witness) if witness is not None else None,
            "elapsed": {"build": t_build, "solve": t_solve, "reconstruct": t_rec},
            "peak_memory": _peak_rss_bytes(),
        }
        print(json.dumps(report))
    else:
        print(f"gamma_p {_gamma_str(result.gamma_p)}")
        if witness is not None:
            print("witness " + ",".join(str(v) for v in witness))
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.n < 1:
        raise CliError(f"--n must be >= 1, got {args.n}")
    weights = [float(w) for w in _parse_weights(args.weights)]
    seed = args.seed if args.seed is not None else _default_seed()
    tree = dectree.generate(args.n, seed, weights)
    if args.out_tree is None and args.out_graph is None:
        raise CliError("nothing to do: give --out-tree and/or --out-graph")
    if args.out_tree:
        with open(args.out_tree, "w", encoding="utf-8") as fh:
            fh.write(dectree.dumps(tree))
    if args.out_graph:
        g, _ = dectree.expand(tree)
        with open(args.out_graph, "w", encoding="utf-8") as fh:
            fh.write(format_graph_text(g))
    return EXIT_OK


def _parse_weights(raw: str) -> list[float]:
    try:
        parts = [float(tok) for tok in raw.split(",")]
    except ValueError:
        raise CliError(f"bad --weights {raw!r}")
    if len(parts) != 3 or any(p < 0 for p in parts) or sum(parts) == 0:
        raise CliError("--weights needs three non-negative numbers, not all zero")
    return parts


def cmd_check(args) -> int:
    g = _load_graph(args.graph)
    ids = _parse_ids(args.set)
    for v in ids:
        if not (0 <= v < g.n):
            raise CliError(f"vertex {v} out of range for n={g.n}")
    d = sorted(set(ids))
    if len(d) % 2 == 1:
        print("fail: odd set size")
        return EXIT_CHECK_FAILED
    if not is_dominating(g, d, range(g.n)):
        print("fail: set is not dominating")
        return EXIT_CHECK_FAILED
    from .graph import has_perfect_matching_induced

    if not has_perfect_matching_induced(g, d):
        print("fail: induced subgraph has no perfect matching")
        return EXIT_CHECK_FAILED
    print("ok: paired-dominating")
    return EXIT_OK


def cmd_bench(args) -> int:
    sizes = [int(s) for s in _parse_ids(args.sizes)]
    if not sizes or any(s < 1 for s in sizes):
        raise CliError("--sizes needs positive integers")
    seed = args.seed if args.seed is not None else _default_seed()
    rows = []
    for n in sizes:
        t0 = time.perf_counter()
        tree = dectree.generate(n, seed)
        t_gen = time.perf_counter() - t0
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            dp.solve(tree, want_witness=False)
            times.append(time.perf_counter() - t0)
        med = statistics.median(times)
        rows.append({
            "n": n,
            "gen_s": round(t_gen, 6),
            "median_solve_s": round(med, 6),
            "per_leaf_us": round(med / n * 1e6, 4),
            "repeats": args.repeats,
            "seed": seed,
        })
    header = f"{'n':>10}  {'gen_s':>10}  {'solve_s':>10}  {'us/leaf':>10}"
    print(header)
    print("-" * len(header))
    for r in rows:
        print(f"{r['n']:>10}  {r['gen_s']:>10.4f}  "
              f"{r['median_solve_s']:>10.4f}  {r['per_leaf_us']:>10.2f}")
    for r in rows:
        print(json.dumps(r))
    return EXIT_OK


def cmd_oracle(args) -> int:
    g = _load_graph(args.graph)
    try:
        if args.ts is None:
            gamma = oracle.oracle_gamma_p(g)
            print(_gamma_str(gamma))
            return EXIT_OK
        ts = _parse_ids(args.ts)
        if args.k is not None:
            val = oracle.oracle_dk(g, ts, args.k)
            print("none" if val is None else str(val))
            return EXIT_OK
        rep = oracle.oracle_node_state(g, ts)
    except oracle.OracleSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE_GUARD
    table = " ".join("none" if v is None else str(v) for v in rep.gamma_k)
    print(f"gamma_k {table}")
    print(f"min {rep.min} alpha {rep.alpha} beta {rep.beta}")
    print(f"mty_ts {int(rep.mty_ts)} mty_pr {int(rep.mty_pr)}")
    print(f"gamma_p {_gamma_str(rep.gamma_p)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairdom",
        description="Paired domination on distance-hereditary graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute gamma_p for a graph or tree file")
    p.add_argument("--graph")
    p.add_argument("--tree")
    p.add_argument("--witness", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gen", help="generate a random decomposition tree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--weights", default="1,1,1",
                   help="true-twin,false-twin,attach label weights")
    p.add_argument("--out-tree")
    p.add_argument("--out-graph")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check", help="verify a paired-dominating set")
    p.add_argument("--graph", required=True)
    p.add_argument("--set", required=True, help="comma-separated vertex ids")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bench", help="count-mode scaling benchmark")
    p.add_argument("--sizes", required=True, help="comma-separated leaf counts")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--repeats", type=int, default=3)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("oracle", help="brute-force ground truth (small n)")
    p.add_argument("--graph", required=True)
    p.add_argument("--ts", default=None)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
