import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pairdom
from pairdom import dectree
from pairdom.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    nodes = [dectree.leaf(0)]
    for v in range(1, n):
        nodes += [dectree.leaf(v), ("A", len(nodes) - 1, len(nodes))]
    path = tmp_path / "star.json"
    path.write_text(dectree.dumps(dectree.DecompTree(tuple(nodes), len(nodes) - 1)))
    src = str(Path(pairdom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "pairdom", "solve", "--tree", str(path), "--json"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout)
    assert (report["n"], report["m"], report["gamma_p"]) == (n, n - 1, 2)


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


def test_gen_seed_from_env(tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.setenv("PDOM_SEED", "41")
    run(capsys, "gen", "--n", "30", "--out-tree", str(a))
    monkeypatch.delenv("PDOM_SEED")
    run(capsys, "gen", "--n", "30", "--seed", "41", "--out-tree", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_check_pass_and_failures(capsys, data_dir):
    ex7 = str(data_dir / "ex7.txt")
    code, out, _ = run(capsys, "check", "--graph", ex7, "--set", "2,3")
    assert code == 0 and "ok" in out
    code, out, _ = run(capsys, "check", "--graph", ex7, "--set", "0")
    assert code == 1 and "odd" in out
    code, out, _ = run(capsys, "check", "--graph", ex7, "--set", "1,2")
    assert code == 1
    code, _, _ = run(capsys, "check", "--graph", ex7, "--set", "1,99")
    assert code == 2


def test_bench_single_row(capsys):
    code, out, _ = run(capsys, "bench", "--sizes", "500", "--seed", "3",
                       "--repeats", "2")
    assert code == 0
    rows = [json.loads(ln) for ln in out.splitlines() if ln.startswith("{")]
    assert len(rows) == 1
    assert rows[0]["n"] == 500 and rows[0]["median_solve_s"] >= 0


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


def test_oracle_guard_exit_4(tmp_path, capsys):
    big = tmp_path / "big.txt"
    n = 30
    lines = [f"{n} {n - 1}"] + [f"{i} {i + 1}" for i in range(n - 1)]
    big.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "oracle", "--graph", str(big))
    assert code == 4 and "limited to" in err
