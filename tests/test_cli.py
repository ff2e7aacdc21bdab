import os
import subprocess
import sys
from pathlib import Path

import pytest

import fjmedia
from fjmedia import load_edge_list
from fjmedia.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# generate


def test_generate_stdout(capsys):
    code, out, err = run_cli(capsys, "generate", "--gen", "dreg", "--n", "8",
                             "--d", "2", "--seed", "1")
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0].startswith("# fjmedia generate: graph.kind=dreg")
    assert len(lines) == 1 + 8  # header + n*d/2 edges
    u, v, w = lines[1].split()
    assert float(w) == 1.0 and int(u) != int(v)


def test_generate_to_file_roundtrips(tmp_path, capsys):
    path = tmp_path / "net.edges"
    code, out, _ = run_cli(capsys, "generate", "--gen", "ba", "--n", "30",
                           "--m", "2", "--seed", "3", "--out", str(path))
    assert code == 0
    assert "wrote 30 nodes" in out
    g = load_edge_list(str(path))
    assert g.n == 30
    assert g.m == 2 * 28 + 1  # K_2 core, then m edges per newcomer


def test_generate_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.edges", tmp_path / "b.edges"
    run_cli(capsys, "generate", "--gen", "dreg", "--n", "20", "--d", "4",
            "--seed", "9", "--out", str(a))
    run_cli(capsys, "generate", "--gen", "dreg", "--n", "20", "--d", "4",
            "--seed", "9", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# experiment subcommands


def test_equilibrium_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "eq.csv"
    code, stdout, _ = run_cli(
        capsys, "equilibrium", "--gen", "dreg", "--n", "30", "--d", "4",
        "--alpha", "1.0", "--beta", "0.5", "--gamma", "0.05",
        "--reps", "2", "--seed", "5", "--out", str(out))
    assert code == 0
    assert "rep 0:" in stdout and "rep 1:" in stdout
    assert f"wrote {out}" in stdout
    csv_lines = out.read_text().strip().split("\n")
    assert csv_lines[0] == "rep,sum_s,sum_z,lower,upper,exact_if_regular,truncated"
    assert len(csv_lines) == 3
    manifest = (tmp_path / "eq.csv.manifest").read_text()
    assert "mode = equilibrium" in manifest
    assert "rep1.count_M = 30" in manifest


def test_periods_run_summary(capsys):
    code, stdout, _ = run_cli(
        capsys, "periods", "--gen", "dreg", "--n", "20", "--d", "4",
        "--alpha", "1.0", "--beta", "0.5", "--gamma", "0.1",
        "--reps", "1", "--epsilon", "0.01", "--max-periods", "50")
    assert code == 0
    assert "stop=radicalized_up" in stdout


def test_nonstubborn_alpha_defaults_to_one(capsys):
    code, stdout, _ = run_cli(
        capsys, "nonstubborn", "--gen", "ba", "--n", "25", "--m", "2",
        "--beta", "0.5", "--gamma", "0.1", "--reps", "1")
    assert code == 0
    assert "z_M_star=" in stdout and "bound=" in stdout


def test_bounds_run_prints_ell_star(capsys):
    code, stdout, _ = run_cli(
        capsys, "bounds", "--gen", "dreg", "--n", "30", "--d", "4",
        "--alpha", "1.0", "--beta", "0.025", "--gamma", "0.01", "--reps", "1")
    assert code == 0
    assert "ell_star=" in stdout


def test_run_from_file_graph(tmp_path, capsys):
    path = tmp_path / "net.edges"
    run_cli(capsys, "generate", "--gen", "dreg", "--n", "16", "--d", "4",
            "--seed", "2", "--out", str(path))
    code, stdout, _ = run_cli(
        capsys, "equilibrium", "--graph", str(path),
        "--alpha", "0.5", "--beta", "0.5", "--gamma", "0.05", "--reps", "1")
    assert code == 0
    assert "sum_z=" in stdout


# ---------------------------------------------------------------------------
# error handling


def test_graph_and_gen_conflict(capsys):
    code, _, err = run_cli(
        capsys, "equilibrium", "--graph", "x.edges", "--gen", "ba",
        "--n", "10", "--m", "2",
        "--alpha", "1.0", "--beta", "0.5", "--gamma", "0.1")
    assert code == 2
    assert "error:" in err and "mutually exclusive" in err


def test_missing_generator_params(capsys):
    code, _, err = run_cli(capsys, "equilibrium", "--gen", "ba", "--n", "10",
                           "--alpha", "1.0", "--beta", "0.5", "--gamma", "0.1")
    assert code == 2 and "--m" in err


def test_missing_graph_source(capsys):
    code, _, err = run_cli(capsys, "bounds", "--alpha", "1.0", "--beta", "0.5",
                           "--gamma", "0.1")
    assert code == 2 and "either --graph or --gen" in err


def test_unreadable_graph_file(capsys):
    code, _, err = run_cli(
        capsys, "equilibrium", "--graph", "/no/such/file.edges",
        "--alpha", "1.0", "--beta", "0.5", "--gamma", "0.1")
    assert code == 2 and "error:" in err


def test_odd_degree_sum_reports_error(capsys):
    code, _, err = run_cli(
        capsys, "equilibrium", "--gen", "dreg", "--n", "9", "--d", "3",
        "--alpha", "1.0", "--beta", "0.5", "--gamma", "0.1")
    assert code == 2 and "even" in err


def test_alpha_out_of_range_reports_error(capsys):
    code, _, err = run_cli(
        capsys, "equilibrium", "--gen", "dreg", "--n", "10", "--d", "2",
        "--alpha", "1.5", "--beta", "0.5", "--gamma", "0.1")
    assert code == 2 and "alpha" in err


@pytest.mark.parametrize("n", ["10", "11"])
def test_small_n_periods_asks_for_epsilon(tmp_path, capsys, n):
    # default epsilon 10/n is not below 1/(1+gamma) = 1/1.1 for n <= 11
    out = tmp_path / "p.csv"
    argv = ["periods", "--gen", "dreg", "--n", n, "--d", "2", "--alpha", "1",
            "--beta", "0.1", "--gamma", "0.1", "--reps", "2", "--out", str(out)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "--epsilon" in err and "10/n" in err
    assert not out.exists()
    code, _, err = run_cli(capsys, *argv, "--epsilon", "0.05")
    assert code == 0 and err == ""
    assert "epsilon = 0.050000000000000003\n" in (tmp_path / "p.csv.manifest").read_text()


def test_missing_required_flag_exits(capsys):
    with pytest.raises(SystemExit):
        main(["equilibrium", "--gen", "dreg", "--n", "10", "--d", "2",
              "--beta", "0.5", "--gamma", "0.1"])  # no --alpha


# ---------------------------------------------------------------------------
# module entry point


def test_module_invocation():
    # the child imports the same fjmedia as this process, installed or not
    src = str(Path(fjmedia.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fjmedia", "generate", "--gen", "dreg",
         "--n", "6", "--d", "2", "--seed", "0"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.startswith("# fjmedia generate:")
