"""Command-line front door.

Subcommands: solve, gen, check, bench, oracle. Exit codes: 0 success,
1 failed check, 2 parse/usage error, 3 input not distance-hereditary,
4 oracle size guard exceeded, 5 internal error (a self-check of
recognition, the solver or the witness failed), 6 out of memory.
`check --set D` decides whether G[D] has a perfect matching with the
solver, in linear time, and exits 3 when G[D], so the graph, is not DH;
`--set @PATH` reads D from a file, as a set too large for one argument.
Standard output that cannot be written (a full disk, a closed pipe) is a
usage error, exit 2. So are a graph without vertices given to
`solve --graph`, as `gen --n 0` refuses an empty tree, and an `oracle`
question without an answer: a twin set or k out of range, --k without
--ts, or a graph where gamma_k is undefined for every k. `gen` and
`bench` take --seed, 0 by default.

`run` is the process entry point of the `pairdom` script and of
`python -m pairdom`; `main(argv)` returns the exit code instead, for callers
in the same process.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from array import array

from . import dectree, dp
from .graph import GraphError, build_graph, format_graph_text, is_dominating, parse_graph_text

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NOT_DH = 3
EXIT_ORACLE_GUARD = 4
EXIT_INTERNAL = 5
EXIT_OUT_OF_MEMORY = 6


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}")


def _print(*lines: str) -> None:
    """Print lines to standard output; a failed write is a usage error."""
    try:
        for line in lines:
            print(line)
    except OSError as exc:
        raise CliError(f"cannot write standard output: {exc}")


def _load_graph(path: str):
    try:
        return parse_graph_text(_read(path).decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: byte {exc.start} is not UTF-8 ({exc.reason})")
    except GraphError as exc:
        raise CliError(f"{path}: {exc}")


def _load_tree(path: str):
    # the reader takes the file a chunk at a time, never the whole text
    try:
        with open(path, "rb") as fh:
            return dectree.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except dectree.TreeError as exc:
        raise CliError(f"{path}: {exc}")


def _parse_ids(text: str, where: str = "") -> list[int]:
    """The vertex ids of a list split on commas and whitespace; a bad token
    is named alone, after `where`."""
    ids = []
    for tok in text.replace(",", " ").split():
        try:
            ids.append(int(tok))
        except ValueError:
            raise CliError(f"{where}expected comma-separated vertex ids, got {tok!r}")
    return ids


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


def _internal_errors() -> tuple:
    """Exceptions that mean pairdom itself is wrong, not its input."""
    from . import recognition
    from .witness import WitnessError

    return recognition.DecomposeError, dp.DpError, WitnessError


def cmd_solve(args) -> int:
    if (args.graph is None) == (args.tree is None):
        raise CliError("exactly one of --graph/--tree is required")
    t0 = time.perf_counter()
    if args.graph:
        from . import recognition

        g = _load_graph(args.graph)
        instance = args.graph
        if g.n == 0:
            raise CliError(f"{args.graph}: graph has no vertices")
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
    # only the witness reads the per-node states
    result = dp.solve(tree, keep_states=args.witness)
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
            "m": dectree.edge_count(tree),
            "gamma_p": _gamma_json(result.gamma_p),
            "witness": list(witness) if witness is not None else None,
            "elapsed": {"build": t_build, "solve": t_solve, "reconstruct": t_rec},
            "peak_memory": _peak_rss_bytes(),
        }
        _print(json.dumps(report))
    else:
        _print(f"gamma_p {_gamma_str(result.gamma_p)}")
        if witness is not None:
            _print("witness " + ",".join(str(v) for v in witness))
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.out_tree is None and args.out_graph is None:
        raise CliError("nothing to do: give --out-tree and/or --out-graph")
    try:
        tree = dectree.generate(args.n, args.seed, _parse_weights(args.weights))
    except dectree.TreeError as exc:
        raise CliError(str(exc))
    if args.out_tree:
        _write(args.out_tree, dectree.dumps(tree))
    if args.out_graph:
        g, _ = dectree.expand(tree)
        _write(args.out_graph, format_graph_text(g))
    return EXIT_OK


def _parse_weights(raw: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",")]
    except ValueError:
        raise CliError(f"bad --weights {raw!r}")


def cmd_check(args) -> int:
    g = _load_graph(args.graph)
    if args.set.startswith("@"):  # no vertex id starts with "@"
        path = args.set[1:]
        ids = _parse_ids(_read(path).decode("ascii", "backslashreplace"), f"{path}: ")
    else:
        ids = _parse_ids(args.set)
    k = dectree.scan_ids(ids, g.n)[0]
    if k >= 0:
        v = ids[k]
        raise CliError(f"vertex {v} out of range for n={g.n}" if not 0 <= v < g.n
                       else f"vertex {v} is listed more than once")
    d = sorted(ids)
    if len(d) % 2 == 1:
        _print("fail: odd set size")
        return EXIT_CHECK_FAILED
    if not is_dominating(g, d, range(g.n)):
        _print("fail: set is not dominating")
        return EXIT_CHECK_FAILED
    if d:  # decompose refuses the empty graph
        from . import recognition

        # each edge of G[D] once, from its end with the smaller local id
        k, local = len(d), {v: i for i, v in enumerate(d)}
        sub = build_graph(k, ((i, j) for i, v in enumerate(d)
                              for w in g.adjacency[v] if (j := local.get(w, -1)) > i))
        try:
            tree = recognition.decompose(sub)
        except recognition.NotDistanceHereditary as exc:
            # G[D] is an induced subgraph of G, so G is not DH either
            exc = recognition.NotDistanceHereditary(d[i] for i in exc.remnant)
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NOT_DH
        # G[D] has a perfect matching exactly when G[D] with a pendant k + v
        # on each vertex v has gamma_p = k: a paired-dominating set holds v
        # or k + v, and holds k + v only paired with v
        pendants = dectree.DecompTree(tree.labels.replace(b"L", b"LLA"), array(
            "i", [x for v in tree.vertices for x in (v, k + v)]))
        if dp.solve(pendants, keep_states=False).gamma_p != k:
            _print("fail: induced subgraph has no perfect matching")
            return EXIT_CHECK_FAILED
    _print("ok: paired-dominating")
    return EXIT_OK


def cmd_bench(args) -> int:
    import statistics

    from .witness import reconstruct_witness

    try:
        sizes = [int(tok) for tok in args.sizes.replace(",", " ").split()]
    except ValueError:
        sizes = []
    if not sizes or any(s < 1 for s in sizes):
        raise CliError("--sizes needs positive integers")
    if args.repeats < 1:
        raise CliError(f"--repeats must be >= 1, got {args.repeats}")
    rows = []
    for n in sizes:
        t0 = time.perf_counter()
        tree = dectree.generate(n, args.seed)
        t_gen = time.perf_counter() - t0
        # the tree's file, read as solve --tree reads it
        text = dectree.dumps(tree).encode()
        solve_times, loads_times, witness_times = [], [], []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            result = dp.solve(tree)
            t1 = time.perf_counter()
            dectree.load(io.BytesIO(text))
            t2 = time.perf_counter()
            if result.gamma_p != dp.INF:  # else there is no witness
                reconstruct_witness(tree, result.states)
                witness_times.append(time.perf_counter() - t2)
            solve_times.append(t1 - t0)
            loads_times.append(t2 - t1)
        med = statistics.median(solve_times)
        peak = _peak_rss_bytes()
        rows.append({
            "n": n,
            "gen_s": round(t_gen, 6),
            "median_loads_s": round(statistics.median(loads_times), 6),
            "median_solve_s": round(med, 6),
            "median_witness_s": (round(statistics.median(witness_times), 6)
                                 if witness_times else None),
            "per_leaf_us": round(med / n * 1e6, 4),
            # the process high-water mark so far, so it covers earlier sizes too
            "peak_rss_mb": None if peak is None else round(peak / (1 << 20), 1),
            "repeats": args.repeats,
            "seed": args.seed,
        })
    header = (f"{'n':>10}  {'gen_s':>10}  {'loads_s':>10}  {'solve_s':>10}  "
              f"{'witness_s':>10}  {'us/leaf':>10}  {'peak_MB':>10}")
    _print(header, "-" * len(header))
    for r in rows:
        witness_s = "none" if r["median_witness_s"] is None else f"{r['median_witness_s']:.4f}"
        peak_mb = "none" if r["peak_rss_mb"] is None else f"{r['peak_rss_mb']:.1f}"
        _print(f"{r['n']:>10}  {r['gen_s']:>10.4f}  {r['median_loads_s']:>10.4f}  "
               f"{r['median_solve_s']:>10.4f}  {witness_s:>10}  {r['per_leaf_us']:>10.2f}  "
               f"{peak_mb:>10}")
    _print(*(json.dumps(r) for r in rows))
    return EXIT_OK


def cmd_oracle(args) -> int:
    from . import oracle

    if args.ts is None and args.k is not None:
        raise CliError("--k needs --ts")
    g = _load_graph(args.graph)
    try:
        if args.ts is None:
            gamma = oracle.oracle_gamma_p(g)
            _print(_gamma_str(gamma))
            return EXIT_OK
        ts = _parse_ids(args.ts)
        if args.k is not None:
            val = oracle.oracle_dk(g, ts, args.k)
            _print("none" if val is None else str(val))
            return EXIT_OK
        rep = oracle.oracle_node_state(g, ts)
    except oracle.OracleSizeError as exc:  # a ValueError, so caught first
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE_GUARD
    except ValueError as exc:  # a twin set or k out of range, or no gamma_k at all
        raise CliError(str(exc))
    table = " ".join("none" if v is None else str(v) for v in rep.gamma_k)
    _print(f"gamma_k {table}",
           f"min {rep.min} alpha {rep.alpha} beta {rep.beta}",
           f"mty_ts {int(rep.mty_ts)} mty_pr {int(rep.mty_pr)}",
           f"gamma_p {_gamma_str(rep.gamma_p)}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse drops a failed write, so help that cannot be written
        # would end in exit 0
        try:
            print(self.format_help(), end="", file=file)
        except OSError as exc:
            raise CliError(f"cannot write standard output: {exc}")


def build_parser() -> argparse.ArgumentParser:
    """The pairdom argument parser, with all five subcommands. Every call
    builds the same parser, so help, usage errors and each command's
    options read the same whatever the command line holds."""
    parser = _Parser(
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weights", default="1,1,1",
                   help="true-twin,false-twin,attach label weights")
    p.add_argument("--out-tree")
    p.add_argument("--out-graph")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check", help="verify a paired-dominating set")
    p.add_argument("--graph", required=True)
    p.add_argument("--set", required=True,
                   help="comma-separated vertex ids, or @PATH to read them from a file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bench", help="in-process loads, solve and witness times, "
                                     "and peak memory")
    p.add_argument("--sizes", required=True, help="comma-separated leaf counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=3)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("oracle", help="brute-force ground truth (small n)")
    p.add_argument("--graph", required=True)
    p.add_argument("--ts", default=None)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # from argparse: help (0) or a usage error
        return EXIT_USAGE if exc.code not in (0, None) else 0
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    # evaluated only once an exception propagates, so witness stays unloaded
    except _internal_errors() as exc:
        print(f"error: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_OUT_OF_MEMORY


def run() -> None:
    """Run main on the command line, flush the standard streams and end the
    process with os._exit. That skips interpreter teardown (module cleanup,
    the final garbage collection, freeing every object built), which takes
    longer than a small solve; nothing pairdom holds needs it."""
    code = main()
    try:
        if sys.stdout is not None:  # None when descriptor 1 was closed at start
            sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
