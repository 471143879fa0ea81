"""Benchmark of `pairdom solve` as a user runs it.

Usage (from the root of a pairdom checkout):

    python3 perfbench/run.py --workload tree-count --seed 1 --seconds 32 --trace 0

One client in a closed loop starts one `python3 -m pairdom solve ...` process
per operation and waits for it before starting the next, so at most one
pairdom process runs at a time. Every answer is checked against values the
benchmark computes itself (see check.py and workloads.py). The last line of
standard output is one JSON object: correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 a separate
in-process traced run (trace_worker.py) gives the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen
import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
OP_TIMEOUT_S = 60.0
STARTUP_REPEATS = 5
# Every workload's round is sized to take about this long on a 2-vCPU VM; a
# run attempts round(--seconds / this) whole rounds, at least one, so every
# run of a workload attempts the same operations whatever the seed.
ROUND_SECONDS = 30.0


class Runner:
    """Starts pairdom processes against the checkout's own sources, through
    launcher.py, one at a time."""

    def __init__(self, root: Path, work: Path) -> None:
        self.work = work
        self.env = dict(os.environ)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = str(root / "src")
        # bytecode goes under the run's own directory, never under src/
        self.env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], env=self.env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def spawn(self, argv: list[str]) -> dict:
        """Run one process; wall time, peak RSS, exit code and output."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        req = {"argv": argv, "stdout": str(out_path), "stderr": str(err_path),
               "timeout_s": OP_TIMEOUT_S}
        self.launcher.stdin.write(json.dumps(req) + "\n")
        self.launcher.stdin.flush()
        res = json.loads(self.launcher.stdout.readline())
        res["stdout"] = out_path.read_text(encoding="utf-8", errors="replace")
        res["stderr"] = err_path.read_text(encoding="utf-8", errors="replace")
        return res

    def run(self, argv: list[str]) -> dict:
        return self.spawn([sys.executable, "-m", "pairdom", *argv])


def resolve_source_gammas(root: Path, ops: list[workloads.Op]) -> None:
    """A graph built from a plain random tree has the tree's gamma_p, since
    gamma_p is a graph invariant: solve the source tree in this process,
    outside every timed operation, and expect that exact value."""
    pending = [op for op in ops if op.argv[1] == "--graph" and op.gamma == "even"]
    if not pending:
        return
    sys.dont_write_bytecode = True  # leave nothing under src/
    sys.path.insert(0, str(root / "src"))
    from pairdom import dectree, dp

    for op in pending:
        gamma = dp.solve(dectree.loads(Path(op.tree_path).read_text())).gamma_p
        gamma = None if gamma == dp.INF else int(gamma)
        if check.expected_gamma_ok(gamma, "even", op.n) is not None:
            raise SystemExit(f"source tree of {op.name} solves to {gamma!r}")
        op.gamma = gamma


def check_answer(op: workloads.Op, res: dict) -> str | None:
    """None when the process answered `op` correctly, else the reason."""
    if res["exit"] != op.exit:
        return f"exit {res['exit']}, expected {op.exit}"
    if op.exit != 0:
        return None
    try:
        report = json.loads(res["stdout"])
    except json.JSONDecodeError:
        return "stdout is not one JSON report"
    if report.get("n") != op.n or report.get("m") != op.m:
        return f"n, m = {report.get('n')}, {report.get('m')}; expected {op.n}, {op.m}"
    gamma = report.get("gamma_p")
    bad = check.expected_gamma_ok(gamma, op.gamma, op.n)
    if bad:
        return bad
    if op.tree is not None and gamma is not None:
        w = report.get("witness")
        if not isinstance(w, list):
            return "no witness in the report"
        if op.adj is None:
            op.adj = gen.adjacency(op.n, gen.edges(op.tree))
        return check.verify_witness(op.adj, w, gamma)
    return None


def is_failure(res: dict) -> bool:
    """A failed operation ended without an answer: killed by a signal, or an
    exit code that is neither success nor the not-DH verdict."""
    return res["exit"] not in (0, 3)


def setup(root: Path, runner: Runner, workload: str, seed: int):
    """Generate and write the inputs, then make the first, cold CLI call:
    the bytecode cache is emptied first, so this call compiles."""
    inputs = runner.work / "inputs"
    for path in (inputs, runner.work / "pycache"):
        shutil.rmtree(path, ignore_errors=True)
    inputs.mkdir()
    t0 = time.perf_counter()
    ops = workloads.WORKLOADS[workload](seed, inputs)
    resolve_source_gammas(root, ops)
    cold = workloads.cold_op(inputs)
    res = runner.run(cold.argv)
    elapsed = time.perf_counter() - t0
    bad = check_answer(cold, res)
    if bad:
        raise SystemExit(f"cold call failed: {bad}\n{res['stderr']}")
    return ops, elapsed


def tail_value(values: list[float]) -> float:
    """The value at the highest percentile with at least ten values beyond
    it (the largest value when there are fewer than eleven)."""
    ranked = sorted(values)
    return ranked[-11] if len(ranked) > 10 else ranked[-1]


def end_to_end(records: list[dict], setups: list[float]) -> dict:
    # failed operations rank as slowest
    ranked = [float("inf") if r["failed"] else r["wall_s"] for r in records]
    served = sum(r["n"] for r in records if r["answered"])
    rss = [r["rss_mb"] for r in records]
    metrics = {
        "latency_p50_ms": (statistics.median(ranked) * 1e3, "ms"),
        "latency_tail_ms": (tail_value(ranked) * 1e3, "ms"),
        "vertices_per_s": (served / sum(r["wall_s"] for r in records), "1/s"),
        "rss_p50_mb": (statistics.median(rss), "MB"),
        "rss_max_mb": (max(rss), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def timed_run(root: Path, runner: Runner, args) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        ops, elapsed = setup(root, runner, args.workload, args.seed)
        setups.append(elapsed)
    rounds = max(1, round(args.seconds / ROUND_SECONDS))
    # a seeded order spreads every size class over the run, so a change of
    # machine speed partway through does not split the classes apart
    random.Random(args.seed).shuffle(ops)
    records, correct = [], True
    for _ in range(rounds):
        for op in ops:
            res = runner.run(op.argv)
            failed, bad = is_failure(res), None
            if failed:
                label = f"known fault: {op.fault}" if op.fault else res["stderr"][-500:]
                print(f"FAILED {op.name}: exit {res['exit']} ({label})", file=sys.stderr)
            else:
                bad = check_answer(op, res)
                if bad:
                    correct = False
                    print(f"WRONG {op.name}: {bad}", file=sys.stderr)
            records.append({"name": op.name, "n": op.n, "wall_s": res["wall_s"],
                            "rss_mb": res["rss_mb"], "failed": failed,
                            "answered": not failed and bad is None})
    for r in records:
        print(f"{r['name']:>28} {r['wall_s'] * 1e3:10.1f} ms {r['rss_mb']:8.1f} MB"
              f"{'  FAILED' if r['failed'] else ''}")
    return {"correct": correct, "attempted": len(records),
            "failed": sum(r["failed"] for r in records),
            "metrics": end_to_end(records, setups)}


def traced_records(runner: Runner, ops: list[workloads.Op]) -> list[dict]:
    """Run trace_worker.py over all ops, restarting it after an op that
    crashes it; one record per op, None for an op that crashed."""
    ops_path, out_path = runner.work / "trace_ops.json", runner.work / "trace.jsonl"
    ops_path.write_text(json.dumps([{"argv": op.argv, "tree_path": op.tree_path}
                                    for op in ops]))
    out_path.unlink(missing_ok=True)
    records: list = []
    while len(records) < len(ops):
        start = len(records)
        proc = subprocess.run([sys.executable, str(HERE / "trace_worker.py"),
                               str(ops_path), str(out_path), str(start)],
                              env=runner.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        lines = out_path.read_text().splitlines() if out_path.exists() else []
        records = [json.loads(ln) for ln in lines]
        if proc.returncode != 0:
            crashed = len(records)
            print(f"trace worker: op {ops[crashed].name} exited {proc.returncode}"
                  f"\n{proc.stderr[-500:]}", file=sys.stderr)
            with open(out_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(None) + "\n")
            records.append(None)
    return records


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time of its direct child spans."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


LAYER_NAMES = ("cli.main", "dectree.loads", "dectree.validate", "dectree.expand",
               "graph.parse_graph_text", "graph.build_graph", "graph.is_dominating",
               "recognition.decompose", "dp.solve", "witness.reconstruct_witness")


def per_layer(records: list, startup_s: float) -> dict:
    done = [r for r in records if r is not None]
    if not done:
        raise SystemExit("no operation completed in the traced run")
    self_s = dict.fromkeys(LAYER_NAMES, 0.0)
    total_s = dict.fromkeys(LAYER_NAMES, 0.0)
    calls = dict.fromkeys(LAYER_NAMES, 0)
    work = dict.fromkeys(LAYER_NAMES, 0)
    for r in done:
        for span, own in zip(r["spans"], self_times(r["spans"])):
            name = span[0]
            self_s[name] += own
            total_s[name] += span[2] - span[1]
            calls[name] += 1
            work[name] += span[5] or 0
    k = len(done)

    def per_op_ms(name):
        return self_s[name] / k * 1e3

    def rate(name, scale=1.0):
        return work[name] / scale / total_s[name] if total_s[name] else 0.0

    with_tree = [r for r in done if r["solve_s"]]
    over = (sum(startup_s + r["plain_s"] for r in with_tree)
            / sum(r["solve_s"] for r in with_tree)) if with_tree else 0.0
    metrics = {
        "cli.startup_ms": (startup_s * 1e3, "ms"),
        "cli.main.self_ms": (per_op_ms("cli.main"), "ms"),
        "cli.over_solve": (over, "ratio"),
        "dectree.loads.self_ms": (per_op_ms("dectree.loads"), "ms"),
        "dectree.loads.mb_per_s": (rate("dectree.loads", 1e6), "MB/s"),
        "dectree.validate.calls": (calls["dectree.validate"] / k, "count"),
        "dectree.validate.self_ms": (per_op_ms("dectree.validate"), "ms"),
        "dectree.expand.calls": (calls["dectree.expand"] / k, "count"),
        "dectree.expand.edges": (work["dectree.expand"] / k, "count"),
        "dectree.expand.self_ms": (per_op_ms("dectree.expand"), "ms"),
        "graph.parse_graph_text.self_ms": (per_op_ms("graph.parse_graph_text"), "ms"),
        "graph.build_graph.self_ms": (per_op_ms("graph.build_graph"), "ms"),
        "graph.build_graph.edges": (work["graph.build_graph"] / k, "count"),
        "graph.is_dominating.calls": (calls["graph.is_dominating"] / k, "count"),
        "graph.is_dominating.self_ms": (per_op_ms("graph.is_dominating"), "ms"),
        "recognition.decompose.self_ms": (per_op_ms("recognition.decompose"), "ms"),
        "recognition.decompose.vertices_per_s": (rate("recognition.decompose"), "1/s"),
        "dp.solve.self_ms": (per_op_ms("dp.solve"), "ms"),
        "dp.solve.nodes_per_s": (rate("dp.solve"), "1/s"),
        "witness.reconstruct_witness.self_ms": (per_op_ms("witness.reconstruct_witness"), "ms"),
        "trace.overhead_ms": (sum(r["traced_s"] - r["plain_s"] for r in done) / k * 1e3, "ms"),
    }
    return {key: {"value": v, "unit": u} for key, (v, u) in metrics.items()}


def traced_run(root: Path, runner: Runner, args) -> dict:
    ops, _ = setup(root, runner, args.workload, args.seed)
    startup_s = statistics.median(
        runner.spawn([sys.executable, "-c", "import pairdom.cli"])["wall_s"]
        for _ in range(STARTUP_REPEATS))
    records = traced_records(runner, ops)
    correct = True
    for op, rec in zip(ops, records):
        if rec is None:
            continue
        bad = check_answer(op, {"exit": rec["exit"], "stdout": rec["stdout"]})
        if bad:
            correct = False
            print(f"WRONG {op.name} (traced): {bad}", file=sys.stderr)
    return {"correct": correct, "attempted": len(records),
            "failed": sum(r is None for r in records),
            "metrics": per_layer(records, startup_s)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "pairdom" / "cli.py").is_file():
        print(f"error: {root} holds no pairdom sources (src/pairdom); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        with Runner(root, work) as runner:
            result = (traced_run if args.trace else timed_run)(root, runner, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
