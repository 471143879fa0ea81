import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import pairdom
from conftest import LABEL_MIXES, leaf
from pairdom import cli, dectree
from pairdom.cli import main
from pairdom.graph import (format_graph_text, has_perfect_matching_induced,
                           is_dominating, parse_graph_text)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _pairdom_env():
    src = str(Path(pairdom.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_import_cli_loads_no_unused_modules():
    # the tree path of solve must not pay for the oracle, recognition or witness
    code = ("import sys, pairdom.cli; print(sorted(m for m in ('pairdom.oracle', "
            "'pairdom.recognition', 'pairdom.witness') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_pairdom_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # dataclasses imports inspect, which imports ast, dis and tokenize: about
    # a tenth of every CLI start, on the tree path and the graph path alike
    for modules in ("pairdom.cli", "pairdom.cli, pairdom.recognition"):
        code = (f"import sys, {modules}; print(sorted(m for m in ('dataclasses', "
                "'inspect') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_pairdom_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", modules
    # typing costs about 3 ms per start; -S keeps a site .pth file from
    # loading it before pairdom does
    for modules in ("pairdom.cli", "pairdom.cli, pairdom.recognition, pairdom.witness"):
        proc = subprocess.run([sys.executable, "-S", "-c",
                               f"import sys, {modules}; print('typing' in sys.modules)"],
                              capture_output=True, text=True, env=_pairdom_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False", modules


def test_solve_graph(capsys, data_dir):
    code, out, _ = run(capsys, "solve", "--graph", str(data_dir / "ex7.txt"))
    assert code == 0
    assert out.strip() == "gamma_p 2"


def test_solve_tree(capsys, data_dir):
    code, out, _ = run(capsys, "solve", "--tree", str(data_dir / "ex7_tree.json"))
    assert code == 0
    assert out.strip() == "gamma_p 2"


def test_solve_witness(capsys, data_dir):
    code, out, _ = run(capsys, "solve", "--graph", str(data_dir / "ex7.txt"),
                       "--witness")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "gamma_p 2"
    ids = [int(x) for x in lines[1].split()[1].split(",")]
    assert len(ids) == 2
    code, out, _ = run(capsys, "check", "--graph", str(data_dir / "ex7.txt"),
                       "--set", ",".join(map(str, ids)))
    assert code == 0


def test_solve_single_leaf_none(capsys, data_dir):
    code, out, _ = run(capsys, "solve", "--tree", str(data_dir / "leaf.json"))
    assert code == 0
    assert out.strip() == "gamma_p none"


def test_solve_not_dh_exits_3(capsys, data_dir):
    code, _, err = run(capsys, "solve", "--graph", str(data_dir / "c5.txt"))
    assert code == 3
    assert "not distance-hereditary" in err


@pytest.mark.parametrize("module, name, error", [
    ("recognition", "decompose", "DecomposeError"),
    ("dp", "solve", "DpError"),
    ("witness", "reconstruct_witness", "WitnessError"),
])
def test_solve_internal_error_exits_5(capsys, data_dir, monkeypatch,
                                      module, name, error):
    mod = importlib.import_module(f"pairdom.{module}")

    def broken(*args, **kwargs):
        raise getattr(mod, error)("self-check failed")

    monkeypatch.setattr(mod, name, broken)
    code, out, err = run(capsys, "solve", "--graph", str(data_dir / "ex7.txt"),
                         "--witness")
    assert code == 5
    assert out == ""
    assert err == "error: internal error: self-check failed\n"


def test_solve_out_of_memory_exits_6(capsys, data_dir, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(pairdom.dp, "solve", exhausted)
    code, out, err = run(capsys, "solve", "--tree", str(data_dir / "ex7_tree.json"))
    assert (code, out, err) == (6, "", "error: out of memory\n")


def test_solve_witness_out_of_memory_exits_6(capsys, data_dir, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("pairdom.witness.reconstruct_witness", exhausted)
    code, out, err = run(capsys, "solve", "--tree", str(data_dir / "ex7_tree.json"),
                         "--witness")
    assert (code, out, err) == (6, "", "error: out of memory\n")


def test_solve_json_round_trips(capsys, data_dir):
    code, out, _ = run(capsys, "solve", "--graph", str(data_dir / "ex7.txt"),
                       "--witness", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["gamma_p"] == 2
    assert report["n"] == 7 and report["m"] == 13
    assert len(report["witness"]) == 2
    assert set(report["elapsed"]) == {"build", "solve", "reconstruct"}
    assert report["peak_memory"] >= 1 << 20  # resident set size, in bytes
    assert json.loads(json.dumps(report)) == report


def test_solve_deep_star_tree_subprocess(tmp_path):
    # a 100000-leaf star caterpillar A(...A(A(0, 1), 2)..., n-1) nests
    # 100000 objects deep; reading it must not exhaust any stack
    n = 100_000
    nodes = [leaf(0)]
    for v in range(1, n):
        nodes += [leaf(v), ("A", len(nodes) - 1, len(nodes))]
    path = tmp_path / "star.json"
    path.write_text(dectree.dumps(dectree.from_nodes(nodes, len(nodes) - 1)))
    env = _pairdom_env()
    for flags in (["--json"], ["--witness", "--json"]):
        proc = subprocess.run(
            [sys.executable, "-m", "pairdom", "solve", "--tree", str(path), *flags],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        report = json.loads(proc.stdout)
        assert (report["n"], report["m"], report["gamma_p"]) == (n, n - 1, 2)
    # every edge of the star meets its centre 0
    assert len(set(report["witness"])) == 2 and 0 in report["witness"]


def _buffered_env():
    # a pipe or a file then gets block-buffered output, flushed only at exit
    env = _pairdom_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_hard_exit_loses_no_output(tmp_path, capsys):
    tree = dectree.generate(60000, 1)
    path = tmp_path / "t.json"
    path.write_text(dectree.dumps(tree))
    argv = ["solve", "--tree", str(path), "--witness", "--json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    keys = ("n", "m", "gamma_p", "witness")
    expected = {k: json.loads(out)[k] for k in keys}
    cmd = [sys.executable, "-m", "pairdom", *argv]
    env = _buffered_env()
    piped = subprocess.run(cmd, capture_output=True, env=env, timeout=300)
    report = tmp_path / "report.json"
    with open(report, "wb") as fh:
        filed = subprocess.run(cmd, stdout=fh, stderr=subprocess.PIPE, env=env,
                               timeout=300)
    for proc, text in ((piped, piped.stdout), (filed, report.read_bytes())):
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert len(text) > 64 * 1024  # more than a pipe buffer holds
        assert text.endswith(b"\n")  # print's last newline waits for the flush
        assert {k: json.loads(text)[k] for k in keys} == expected
    out_tree = tmp_path / "gen.json"
    proc = subprocess.run([sys.executable, "-m", "pairdom", "gen", "--n", "60000",
                           "--seed", "1", "--out-tree", str(out_tree)],
                          capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert dectree.loads(out_tree.read_text()) == tree


@pytest.mark.parametrize("target, unbuffered", [
    ("/dev/full", False),  # the final flush fails
    ("/dev/full", True),   # the write inside solve fails
    ("closed pipe", False),
])
def test_unwritable_stdout_exits_2(data_dir, target, unbuffered):
    env = _buffered_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    if target == "closed pipe":
        read_end, fd = os.pipe()
        os.close(read_end)
    elif os.path.exists(target):
        fd = os.open(target, os.O_WRONLY)
    else:
        pytest.skip(f"no {target} on this platform")
    # argparse writes the help itself, and drops a failed write
    argvs = (["solve", "--tree", str(data_dir / "ex7_tree.json"), "--json"],
             ["-h"], ["solve", "-h"])
    try:
        procs = [subprocess.run([sys.executable, "-m", "pairdom", *argv], stdout=fd,
                                stderr=subprocess.PIPE, text=True, env=env, timeout=60)
                 for argv in argvs]
    finally:
        os.close(fd)
    for argv, proc in zip(argvs, procs):
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr.startswith("error: cannot write standard output: "), argv
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_solve_json_null_gamma(capsys, data_dir):
    code, out, _ = run(capsys, "solve", "--tree", str(data_dir / "leaf.json"),
                       "--json")
    assert code == 0
    assert json.loads(out)["gamma_p"] is None


def test_solve_usage_errors(capsys, data_dir):
    code, _, _ = run(capsys, "solve")
    assert code == 2
    code, _, _ = run(capsys, "solve", "--graph", str(data_dir / "ex7.txt"),
                     "--tree", str(data_dir / "ex7_tree.json"))
    assert code == 2
    code, _, _ = run(capsys, "solve", "--graph", "/nonexistent/x.txt")
    assert code == 2


@pytest.mark.parametrize("flags", [[], ["--json"], ["--witness", "--json"]])
def test_solve_empty_graph_exits_2(capsys, tmp_path, flags):
    # refused as gen --n 0 refuses an empty tree, not left to recognition
    graph = tmp_path / "g.txt"
    graph.write_text("0 0\n")
    code, out, err = run(capsys, "solve", "--graph", str(graph), *flags)
    assert (code, out, err) == (2, "", f"error: {graph}: graph has no vertices\n")


def test_non_utf8_input_exits_2(capsys, tmp_path):
    graph, tree = tmp_path / "g.txt", tmp_path / "t.json"
    graph.write_bytes(b"1 0\n\xff\n")
    tree.write_bytes(b'{"leaf": \xff0}')
    for argv in (["solve", "--graph", str(graph)],
                 ["check", "--graph", str(graph), "--set", "0"],
                 ["oracle", "--graph", str(graph)],
                 ["solve", "--tree", str(tree)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {argv[2]}: ") and "Traceback" not in err


def test_gen_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    ga, gb = tmp_path / "a.txt", tmp_path / "b.txt"
    for tree, graph in ((a, ga), (b, gb)):
        code, _, _ = run(capsys, "gen", "--n", "100", "--seed", "7",
                         "--out-tree", str(tree), "--out-graph", str(graph))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert ga.read_bytes() == gb.read_bytes()


def test_gen_single_leaf(tmp_path, capsys):
    out = tmp_path / "t.json"
    code, _, _ = run(capsys, "gen", "--n", "1", "--out-tree", str(out))
    assert code == 0
    assert json.loads(out.read_text()) == {"leaf": 0}


def test_gen_then_solve_finite_even(tmp_path, capsys):
    tree = tmp_path / "t.json"
    code, _, _ = run(capsys, "gen", "--n", "50", "--seed", "1",
                     "--out-tree", str(tree))
    assert code == 0
    code, out, _ = run(capsys, "solve", "--tree", str(tree))
    assert code == 0
    value = out.split()[1]
    if value != "none":
        assert int(value) % 2 == 0


def test_gen_seed_defaults_to_0(tmp_path, capsys, monkeypatch):
    # the seed comes from --seed alone; PDOM_SEED in the environment changes nothing
    monkeypatch.setenv("PDOM_SEED", "41")
    outputs = []
    for seed in ((), ("--seed", "0")):
        tree, graph = tmp_path / f"t{len(seed)}.json", tmp_path / f"g{len(seed)}.txt"
        assert run(capsys, "gen", "--n", "30", *seed, "--out-tree", str(tree),
                   "--out-graph", str(graph)) == (0, "", "")
        outputs.append((tree.read_bytes(), graph.read_bytes()))
    assert outputs[0] == outputs[1]


def test_check_pass_and_failures(capsys, data_dir, tmp_path):
    ex7 = str(data_dir / "ex7.txt")
    code, out, _ = run(capsys, "check", "--graph", ex7, "--set", "2,3")
    assert code == 0 and "ok" in out
    code, out, _ = run(capsys, "check", "--graph", ex7, "--set", "0")
    assert code == 1 and "odd" in out
    code, out, _ = run(capsys, "check", "--graph", ex7, "--set", "1,2")
    assert code == 1
    code, _, _ = run(capsys, "check", "--graph", ex7, "--set", "1,99")
    assert code == 2
    for repeated in ("2,3,3", "3,3"):  # a set lists each vertex once
        code, out, err = run(capsys, "check", "--graph", ex7, "--set", repeated)
        assert (code, out) == (2, "") and "vertex 3 is listed more than once" in err
    path = tmp_path / "path.txt"
    path.write_text("3000 2999\n" + "".join(f"{v} {v + 1}\n" for v in range(2999)))
    code, out, _ = run(capsys, "check", "--graph", str(path),
                       "--set", ",".join(map(str, range(3000))))
    assert code == 0 and "ok" in out
    star = tmp_path / "star.txt"
    star.write_text("4 3\n0 1\n0 2\n0 3\n")
    code, out, _ = run(capsys, "check", "--graph", str(star), "--set", "0,1,2,3")
    assert (code, out) == (1, "fail: induced subgraph has no perfect matching\n")


def test_check_reads_the_set_from_a_file(capsys, data_dir, tmp_path):
    ex7, ids = str(data_dir / "ex7.txt"), tmp_path / "ids.txt"
    for text in ("2,3\n", " 2\n\t3 ", "3, 2"):  # commas or whitespace
        ids.write_text(text)
        assert run(capsys, "check", "--graph", ex7, "--set", f"@{ids}") == \
            (0, "ok: paired-dominating\n", "")
    missing = tmp_path / "missing.txt"
    code, out, err = run(capsys, "check", "--graph", ex7, "--set", f"@{missing}")
    assert (code, out) == (2, "") and err.startswith(f"error: cannot read {missing}: ")
    ids.write_text("1,x,3")  # the bad token alone, not the whole file
    assert run(capsys, "check", "--graph", ex7, "--set", f"@{ids}") == \
        (2, "", f"error: {ids}: expected comma-separated vertex ids, got 'x'\n")
    # a repeated or out-of-range id fails as it does inline, and the first
    # fault in the set's order is the one named
    for text, message in (("2,3,3", "vertex 3 is listed more than once"),
                          ("1,99", "vertex 99 out of range for n=7"),
                          ("2,99,2", "vertex 99 out of range for n=7"),
                          ("2,2,99", "vertex 2 is listed more than once")):
        ids.write_text(text)
        for arg in (f"@{ids}", text):
            assert run(capsys, "check", "--graph", ex7, "--set", arg) == \
                (2, "", f"error: {message}\n")


def test_check_agrees_with_the_matching_search(capsys, tmp_path):
    # random even dominating sets of generated graphs: check must find a
    # perfect matching of G[D] exactly when the backtracking search does
    rng = random.Random(5)
    outcomes = set()
    for i, mix in enumerate(LABEL_MIXES * 30):
        g, _ = dectree.expand(dectree.generate(rng.randint(2, 14), i, mix))
        path = tmp_path / "g.txt"
        path.write_text(format_graph_text(g))
        d = {v for v in range(g.n) if rng.random() < 0.4}
        d |= {v for v in range(g.n) if not is_dominating(g, d, (v,))}
        if len(d) % 2:
            d ^= {rng.choice([v for v in range(g.n) if v not in d] or [min(d)])}
        if not is_dominating(g, d, range(g.n)):
            continue
        matched = has_perfect_matching_induced(g, d)
        outcomes.add(matched)
        code, out, err = run(capsys, "check", "--graph", str(path),
                             "--set", ",".join(map(str, sorted(d))))
        assert (code, out, err) == ((0, "ok: paired-dominating\n", "") if matched else
                                    (1, "fail: induced subgraph has no perfect matching\n", ""))
    assert outcomes == {False, True}


def test_check_passes_the_witness_of_a_3000_vertex_graph(capsys, tmp_path):
    graph = str(tmp_path / "g.txt")
    assert run(capsys, "gen", "--n", "3000", "--seed", "1", "--weights", "0,1,1",
               "--out-graph", graph)[0] == 0
    code, out, _ = run(capsys, "solve", "--graph", graph, "--witness", "--json")
    assert code == 0
    witness = json.loads(out)["witness"]
    assert len(witness) > 1000
    assert run(capsys, "check", "--graph", graph, "--set", ",".join(map(str, witness))) == \
        (0, "ok: paired-dominating\n", "")
    # swap a witness vertex a for a neighbour b whose only witness neighbour
    # is a: the set still dominates, but b has no partner in it
    g = parse_graph_text(Path(graph).read_text())
    kept = set(witness)
    for a in witness:
        swapped = [b for b in g.adjacency[a] if b not in kept
                   and all(w == a or w not in kept for w in g.adjacency[b])
                   and is_dominating(g, kept - {a} | {b}, range(g.n))]
        if swapped:
            break
    d = kept - {a} | {swapped[0]}
    assert run(capsys, "check", "--graph", graph, "--set", ",".join(map(str, sorted(d)))) == \
        (1, "fail: induced subgraph has no perfect matching\n", "")


def test_check_exits_3_naming_the_graphs_vertices(capsys, tmp_path):
    # G[D] is the 6-cycle on 2..7, which has a perfect matching but is not
    # distance-hereditary, so neither is the graph
    graph = tmp_path / "g.txt"
    graph.write_text("8 8\n2 3\n3 4\n4 5\n5 6\n6 7\n2 7\n0 2\n1 3\n")
    code, out, err = run(capsys, "check", "--graph", str(graph), "--set", "2,3,4,5,6,7")
    assert (code, out) == (3, "")
    assert err == ("error: graph is not distance-hereditary; "
                   "stuck remnant (2, 3, 4, 5, 6, 7)\n")


@pytest.mark.parametrize("argv", [
    # (arguments, start of the message); {tmp} and {data} name directories
    (["gen", "--n", "5", "--weights", "nan,1,1", "--out-tree", "{tmp}/x.json"],
     "bad label weights [nan, 1.0, 1.0]: "),
    (["gen", "--n", "5", "--weights", "1,inf,1", "--out-tree", "{tmp}/x.json"],
     "bad label weights [1.0, inf, 1.0]: "),
    (["gen", "--n", "5", "--out-tree", "/nonexistent/x.json"], "cannot write /nonexistent/x.json"),
    (["bench", "--sizes", "10", "--repeats", "0"], "--repeats must be >= 1, got 0"),
    (["gen", "--n", "5", "--weights", "a,b,c", "--out-tree", "{tmp}/x.json"],
     "bad --weights 'a,b,c'"),
    (["bench", "--sizes", "0"], "--sizes needs positive integers"),
    (["check", "--graph", "{data}/ex7.txt", "--set", "1,x"],
     "expected comma-separated vertex ids, got 'x'"),
    (["bench", "--sizes", "10k"], "--sizes needs positive integers"),
    (["oracle", "--graph", "{data}/ex7.txt", "--ts", "0,9"], "twin set [0, 9] not within 0..6"),
    (["oracle", "--graph", "{data}/ex7.txt", "--ts", "0", "--k", "5"],
     "k=5 out of range [0, 1]"),
    (["oracle", "--graph", "{data}/k1.txt", "--ts", ""], "gamma_k undefined for every k"),
    (["oracle", "--graph", "{data}/ex7.txt", "--k", "2"], "--k needs --ts"),
    (["oracle", "--graph", "{data}/ex7.txt", "--ts", "0,x"],
     "expected comma-separated vertex ids, got 'x'"),
])
def test_usage_errors_exit_2(capsys, tmp_path, data_dir, argv):
    args, message = argv
    code, out, err = run(capsys, *(a.format(tmp=tmp_path, data=data_dir) for a in args))
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message) and "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_cli_never_validates_a_tree(capsys, tmp_path, monkeypatch):
    # the constructor looks `validate` up at call time, so the wrapper sees
    # every check; the readers and builders the CLI uses are valid by
    # construction and make none
    calls = []
    validate = dectree.validate

    def counted(labels, vertices):
        calls.append(len(labels))
        return validate(labels, vertices)

    monkeypatch.setattr(dectree, "validate", counted)
    tree, graph = tmp_path / "t.json", tmp_path / "g.txt"
    for argv in (["gen", "--n", "300", "--seed", "2", "--out-tree", str(tree),
                  "--out-graph", str(graph)],
                 ["solve", "--tree", str(tree), "--json", "--witness"],
                 ["solve", "--graph", str(graph), "--json", "--witness"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and calls == [], argv
    assert json.loads(out)["witness"]
    dectree.from_nodes((leaf(0), leaf(1), ("A", 0, 1)), 2)
    assert calls == [3]


def test_usage_names_all_five_commands(capsys):
    commands = ("solve", "gen", "check", "bench", "oracle")
    code, out, _ = run(capsys, "-h")
    assert code == 0 and all(c in out for c in commands)
    code, _, err = run(capsys, "sovle")
    assert code == 2 and all(c in err.split("choose from")[1] for c in commands)
    assert run(capsys)[0] == 2
    for command in commands:
        code, out, _ = run(capsys, command, "-h")
        assert code == 0 and out.startswith(f"usage: pairdom {command} ")


def test_bench_single_row(capsys):
    code, out, _ = run(capsys, "bench", "--sizes", "500", "--seed", "3",
                       "--repeats", "2")
    assert code == 0
    rows = [json.loads(ln) for ln in out.splitlines() if ln.startswith("{")]
    assert len(rows) == 1
    assert rows[0]["n"] == 500 and rows[0]["median_solve_s"] >= 0
    assert rows[0]["median_loads_s"] >= 0
    assert rows[0]["median_witness_s"] >= 0


def test_bench_reports_the_peak_rss_after_each_size(capsys):
    code, out, _ = run(capsys, "bench", "--sizes", "300,200", "--seed", "3",
                       "--repeats", "1")
    assert code == 0 and "peak_MB" in out
    rows = [json.loads(ln) for ln in out.splitlines() if ln.startswith("{")]
    peaks = [r["peak_rss_mb"] for r in rows]
    # a high-water mark of this process, in MiB: it never falls
    assert 1 <= peaks[0] <= peaks[1] <= cli._peak_rss_bytes() / (1 << 20) + 0.05


def test_oracle_gamma_p(capsys, data_dir):
    code, out, _ = run(capsys, "oracle", "--graph", str(data_dir / "ex7.txt"))
    assert code == 0 and out.strip() == "2"


def test_oracle_table(capsys, data_dir):
    code, out, _ = run(capsys, "oracle", "--graph", str(data_dir / "ex7.txt"),
                       "--ts", "0,1,2,3,4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "gamma_k 2 1 2 3 4 5"
    assert lines[1] == "min 1 alpha 1 beta 1"
    assert lines[2] == "mty_ts 0 mty_pr 0"
    assert lines[3] == "gamma_p 2"


def test_oracle_and_check_agree_on_a_graph_without_vertices(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("0 0\n")
    assert run(capsys, "oracle", "--graph", str(graph)) == (0, "0\n", "")
    assert run(capsys, "check", "--graph", str(graph), "--set", "") == \
        (0, "ok: paired-dominating\n", "")
    code, out, _ = run(capsys, "oracle", "--graph", str(graph), "--ts", "")
    assert code == 0
    assert out.splitlines()[1] == "min 0 alpha 0 beta 0"
    assert out.splitlines()[3] == "gamma_p 0"


def test_oracle_guard_exit_4(tmp_path, capsys):
    big = tmp_path / "big.txt"
    n = 30
    lines = [f"{n} {n - 1}"] + [f"{i} {i + 1}" for i in range(n - 1)]
    big.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "oracle", "--graph", str(big))
    assert code == 4 and "limited to" in err
