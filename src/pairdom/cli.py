"""Command-line front door.

Subcommands: solve, gen, check, bench, oracle. Exit codes: 0 success,
1 failed check, 2 parse/usage error, 3 input not distance-hereditary,
4 oracle size guard exceeded, 5 internal error (a self-check of
recognition, the solver or the witness failed), 6 out of memory.
`check --set D` (`--set @PATH` reads D from a file, as a set too large for
one argument) runs the linear verifier `recognition.paired_domination_fault`,
and exits 3 when G[D], so the graph, is not DH.
Standard output that cannot be written (a full disk, a closed pipe) is a
usage error, exit 2. So are a graph without vertices given to
`solve --graph`, as `gen --n 0` refuses an empty tree, and an `oracle`
question without an answer: a twin set with a vertex out of range or
listed twice, k out of range, --k without --ts, or a graph where gamma_k
is undefined for every k. `gen` and `bench` take --seed, 0 by default.
`bench` times the pipeline of `solve --tree` and `solve --tree --witness`
in-process on generated trees, and prints one JSON object per size.

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

from . import dectree, dp
from .graph import GraphError, format_graph_text, parse_graph_text

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
    """The integers of a list split on commas and whitespace: vertex ids,
    or bench's sizes. A bad token is named alone, after `where`."""
    ids = []
    for tok in text.replace(",", " ").split():
        try:
            ids.append(int(tok))
        except ValueError:
            raise CliError(f"{where}expected comma-separated vertex ids, got {tok!r}")
    return ids


def _gamma_str(gamma) -> str:
    return "none" if gamma == dp.INF else str(int(gamma))


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


def _solve_timed(build, source, witness: bool):
    """The pipeline that `solve` runs and `bench` repeats: build the tree
    from source, solve it and, when `witness` is set and gamma_p is finite,
    reconstruct a witness. Returns the tree, gamma_p, the witness or None,
    and the seconds of each step under `build`, `solve` and `reconstruct`."""
    t0 = time.perf_counter()
    tree = build(source)
    t1 = time.perf_counter()
    # only the witness reads the per-node states
    result = dp.solve(tree, keep_states=witness)
    t2 = time.perf_counter()
    found, t_rec = None, 0.0
    if witness and result.gamma_p != dp.INF:
        from .witness import reconstruct_witness

        found = reconstruct_witness(tree, result.states)
        t_rec = time.perf_counter() - t2
    return tree, result.gamma_p, found, {"build": t1 - t0, "solve": t2 - t1,
                                         "reconstruct": t_rec}


def _decompose(path: str):
    """The tree that recognition builds for the graph file at path."""
    from . import recognition

    g = _load_graph(path)
    if g.n == 0:
        raise CliError(f"{path}: graph has no vertices")
    try:
        return recognition.decompose(g)
    except recognition.NotDistanceHereditary as exc:
        raise CliError(str(exc), EXIT_NOT_DH)


def cmd_solve(args) -> int:
    if (args.graph is None) == (args.tree is None):
        raise CliError("exactly one of --graph/--tree is required")
    build = _load_tree if args.graph is None else _decompose
    instance = args.tree if args.graph is None else args.graph
    tree, gamma_p, witness, elapsed = _solve_timed(build, instance, args.witness)
    if args.json:
        report = {
            "instance": instance,
            "n": tree.n_leaves,
            "m": dectree.edge_count(tree),
            "gamma_p": None if gamma_p == dp.INF else int(gamma_p),
            "witness": list(witness) if witness is not None else None,
            "elapsed": elapsed,
            "peak_memory": _peak_rss_bytes(),
        }
        _print(json.dumps(report))
    else:
        _print(f"gamma_p {_gamma_str(gamma_p)}")
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
    if args.out_tree is not None:
        _write(args.out_tree, dectree.dumps(tree))
    if args.out_graph is not None:
        g, _ = dectree.expand(tree)
        _write(args.out_graph, format_graph_text(g))
    return EXIT_OK


def _parse_weights(raw: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",")]
    except ValueError:
        raise CliError(f"bad --weights {raw!r}")


def cmd_check(args) -> int:
    from . import recognition

    g = _load_graph(args.graph)
    if args.set.startswith("@"):  # no vertex id starts with "@"
        path = args.set[1:]
        ids = _parse_ids(_read(path).decode("ascii", "backslashreplace"), f"{path}: ")
    else:
        ids = _parse_ids(args.set)
    try:
        fault = recognition.paired_domination_fault(g, ids)
    except recognition.NotDistanceHereditary as exc:  # a ValueError, so caught first
        raise CliError(str(exc), EXIT_NOT_DH)
    except ValueError as exc:  # a repeated or out-of-range id
        raise CliError(str(exc))
    _print("ok: paired-dominating" if fault is None else f"fail: {fault}")
    return EXIT_OK if fault is None else EXIT_CHECK_FAILED


def cmd_bench(args) -> int:
    import platform
    import statistics

    try:
        sizes = _parse_ids(args.sizes)
    except CliError:
        sizes = []
    if not sizes or any(s < 1 for s in sizes):
        raise CliError("--sizes needs positive integers")
    if args.repeats < 1:
        raise CliError(f"--repeats must be >= 1, got {args.repeats}")

    def median(times, step):
        return round(statistics.median(t[step] for t in times), 6)

    for n in sizes:
        t0 = time.perf_counter()
        tree = dectree.generate(n, args.seed)
        t_gen = time.perf_counter() - t0
        # the tree's file, read as solve --tree reads it
        text = dectree.dumps(tree).encode()
        del tree  # each run holds only the tree it reads, as solve --tree does
        # each repeat runs solve --tree, then solve --tree --witness
        count, full = [], []
        for _ in range(args.repeats):
            _, gamma_p, _, elapsed = _solve_timed(dectree.load, io.BytesIO(text), False)
            count.append(elapsed)
            full.append(_solve_timed(dectree.load, io.BytesIO(text), True)[3])
        med = median(full, "solve")
        peak = _peak_rss_bytes()
        _print(json.dumps({
            "n": n,
            "gen_s": round(t_gen, 6),
            "median_loads_s": median(count + full, "build"),
            # the solve that keeps the per-node states, which the witness reads
            "median_solve_s": med,
            "median_count_solve_s": median(count, "solve"),
            "median_witness_s": None if gamma_p == dp.INF else median(full, "reconstruct"),
            "per_leaf_us": round(med / n * 1e6, 4),
            # the process high-water mark so far, so it covers earlier sizes too
            "peak_rss_mb": None if peak is None else round(peak / (1 << 20), 1),
            "repeats": args.repeats,
            "seed": args.seed,
            # the timings differ between Python versions and machines
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        }))
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
        dectree.check_ids(ts, g.n)
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

    p = sub.add_parser("bench", help="in-process load, solve and witness times, "
                                     "and peak memory, as JSON rows")
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
