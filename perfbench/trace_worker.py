"""In-process traced run of one workload's operations.

Usage: python3 trace_worker.py OPS_JSON OUT_JSONL START

Runs the operations of OPS_JSON from index START on, each three ways in this
process: `pairdom.cli.main` plain, `pairdom.cli.main` with every public layer
function wrapped in a span (these two in alternating order), and a plain
`dp.solve` of the operation's tree.
After each operation one JSON line with its timings, exit code, output and
spans is appended to OUT_JSONL. A crash ends the process mid-operation; the
caller then starts a new worker after the crashed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from types import ModuleType

from pairdom import cli, dectree, dp, graph, recognition, witness

MODULES = (cli, dectree, dp, graph, recognition, witness)

# (module, public function): the layer boundaries that get a span.
LAYERS = (
    (cli, "main"),
    (dectree, "loads"), (dectree, "validate"), (dectree, "expand"),
    (graph, "parse_graph_text"), (graph, "build_graph"), (graph, "is_dominating"),
    (recognition, "decompose"),
    (dp, "solve"),
    (witness, "reconstruct_witness"),
)


def _work(name: str, args, result):
    """Units of work a span did, where the layer has a natural count."""
    if name == "dectree.loads":
        return len(args[0])                 # bytes of tree JSON
    if name == "dectree.expand":
        return result[0].m                  # edges materialized
    if name == "graph.build_graph":
        return result.m
    if name == "recognition.decompose":
        return args[0].n                    # vertices recognized
    if name == "dp.solve":
        return len(args[0].nodes)           # tree nodes solved
    return None


class Tracer:
    """Spans as [name, start, end, parent index, op id, work] in memory."""

    def __init__(self, op: int) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = op
        self.saved: list[tuple[ModuleType, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = t0, t1
            spans[idx][5] = _work(name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap each layer function everywhere it is bound, including names
        imported into other modules (witness.is_dominating,
        dectree.build_graph, cli.parse_graph_text, ...)."""
        for mod, attr in LAYERS:
            fn = getattr(mod, attr)
            name = f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}"
            wrapped = self._wrap(name, fn)
            for other in MODULES:
                for key, val in list(vars(other).items()):
                    if val is fn:
                        self.saved.append((other, key, val))
                        setattr(other, key, wrapped)

    def uninstall(self) -> None:
        for mod, key, val in reversed(self.saved):
            setattr(mod, key, val)
        self.saved.clear()


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t0
    return code, out.getvalue(), elapsed


def main(argv) -> int:
    ops_path, out_path, start = argv[0], argv[1], int(argv[2])
    with open(ops_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    solve, loads = dp.solve, dectree.loads
    for i in range(start, len(ops)):
        op = ops[i]
        tracer = Tracer(i)
        # alternate which call goes first, so warm caches favour neither
        if i % 2 == 0:
            _, _, plain_s = _call(op["argv"])
        tracer.install()
        try:
            code, out, traced_s = _call(op["argv"])
        finally:
            tracer.uninstall()
        if i % 2 == 1:
            _, _, plain_s = _call(op["argv"])
        solve_s = None
        if op["tree_path"] and code == 0:
            with open(op["tree_path"], encoding="utf-8") as fh:
                tree = loads(fh.read())
            t0 = time.perf_counter()
            solve(tree)
            solve_s = time.perf_counter() - t0
        record = {"op": i, "exit": code, "stdout": out, "plain_s": plain_s,
                  "traced_s": traced_s, "solve_s": solve_s, "spans": tracer.spans}
        with open(out_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
