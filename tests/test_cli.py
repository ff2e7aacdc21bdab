import csv
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fjmedia
from fjmedia import (ExperimentConfig, GraphSpec, config_from_manifest, load_edge_list,
                     run_experiment)
from fjmedia.cli import main
import fjmedia.harness as harness


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


def test_generate_stdout_bytes_equal_the_out_file(tmp_path, capsys):
    flags = ["generate", "--gen", "ba", "--n", "40", "--m", "3", "--seed", "2"]
    code, out, _ = run_cli(capsys, *flags)
    path = tmp_path / "net.edges"
    assert code == 0 and run_cli(capsys, *flags, "--out", str(path))[0] == 0
    assert out.encode() == path.read_bytes()


def test_generate_to_file_roundtrips(tmp_path, capsys):
    path = tmp_path / "net.edges"
    code, out, _ = run_cli(capsys, "generate", "--gen", "ba", "--n", "30",
                           "--m", "2", "--seed", "3", "--out", str(path))
    assert code == 0
    assert "wrote 30 nodes" in out
    g = load_edge_list(str(path))
    assert g.n == 30
    assert g.m == 2 * 28 + 1  # K_2 core, then m edges per newcomer


# sha256 of the files `fjmedia generate` wrote at 0.1.18, when a graph still
# kept its edge arrays: generate writes each generator's edges in the order
# it makes them.  The BA files are the ones CI pins; d = 56 > (n - 1) / 2
# is written through the complement, in row-major order
GENERATE_DIGESTS = [
    ("dreg", "20", "500", "1", "affa683437428c9be630d31d2cbb43e175b09e055f6e1439d04ee72487fa04e8"),
    ("dreg", "56", "60", "0", "a48d56d29cf7ddfc6e72cd6232c2dd8d69481ee72a2826bb89607e7ebfd21f17"),
    ("ba", "3", "20000", "0", "86894d5a60fb59dda2c56f07eb69eba23e0770523f24349af1285faadd58043f"),
    ("ba", "40", "2000", "3", "db248ce1b888ec7fb2cb9de64f736224eb25ae26272edb621754aa091910cb4e"),
]


@pytest.mark.parametrize("gen, k, n, seed, digest", GENERATE_DIGESTS,
                         ids=[f"{g}-n{n}-k{k}-seed{s}" for g, k, n, s, _ in GENERATE_DIGESTS])
def test_generate_bytes_are_pinned(tmp_path, capsys, gen, k, n, seed, digest):
    path = tmp_path / "net.edges"
    flag = "--m" if gen == "ba" else "--d"
    code, out, _ = run_cli(capsys, "generate", "--gen", gen, "--n", n, flag, k,
                           "--seed", seed, "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


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


@pytest.mark.parametrize("source", [["--gen", "ba", "--n", "20000", "--m", "3"],
                                    ["--graph", "never-read.edges"]])
def test_nonstubborn_alpha_below_one_exits_before_any_graph(monkeypatch, capsys, source):
    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was built or read")
    for name in ("gen_barabasi_albert", "gen_random_regular", "load_edge_list", "open"):
        monkeypatch.setattr(harness, name, no_graph, raising=False)
    code, out, err = run_cli(capsys, "nonstubborn", *source, "--alpha", "0.5",
                             "--beta", "0.5", "--gamma", "0.05")
    assert (code, out) == (2, "")
    assert err == "error: nonstubborn mode needs alpha = 1, got alpha = 0.5\n"


def test_bounds_run_prints_ell_star(capsys):
    code, stdout, _ = run_cli(
        capsys, "bounds", "--gen", "dreg", "--n", "30", "--d", "4",
        "--alpha", "1.0", "--beta", "0.025", "--gamma", "0.01", "--reps", "1")
    assert code == 0
    assert "ell_star=" in stdout


def test_bounds_ell_star_predicts_periods_at_non_integral_alpha_n(tmp_path, capsys):
    # alpha * n = 22.55 rounds to 23 followers of M; the closed forms must
    # read the realized 23/41, as the solve does, not the nominal 0.55
    flags = ["--gen", "dreg", "--n", "41", "--d", "4", "--alpha", "0.55",
             "--beta", "0.5", "--gamma", "0.05", "--reps", "2", "--seed", "3"]
    bounds, periods = tmp_path / "b.csv", tmp_path / "p.csv"
    assert run_cli(capsys, "bounds", *flags, "--out", str(bounds))[0] == 0
    assert run_cli(capsys, "periods", *flags, "--max-periods", "5000",
                   "--out", str(periods))[0] == 0
    with bounds.open() as fh:
        ell = {row["rep"]: float(row["ell_star"]) for row in csv.DictReader(fh)}
    with periods.open() as fh:
        last = {row["rep"]: row for row in csv.DictReader(fh)}  # rows in order
    assert sorted(ell) == sorted(last) == ["0", "1"]
    for rep, row in last.items():
        assert row["stop_cause"] == "radicalized_up"
        assert int(row["period"]) - math.ceil(ell[rep]) in (0, 1), (rep, ell[rep])


def test_bounds_ell_star_at_a_small_rise(tmp_path, capsys):
    # F - 1 = 5e-14: log of the rounded F gave 9275865485469.1289, wrong in the
    # 4th digit; log1p of the rise gives the 60-digit decimal value
    out = tmp_path / "b.csv"
    assert run_cli(capsys, "bounds", "--gen", "dreg", "--n", "50", "--d", "4", "--alpha", "1",
                   "--beta", "1e-7", "--gamma", "1e-7", "--reps", "1",
                   "--out", str(out))[0] == 0
    (row,) = csv.DictReader(out.read_text().splitlines())
    assert float(row["ell_star"]) == pytest.approx(9268456125990.0173, rel=1e-15)


# the denominator 1 + sum(w) - w^T b cancelled: to exactly 0 at 1e16 (a
# ZeroDivisionError escaped main) and to sum_z = z_M_star = 0 at 1e300
@pytest.mark.parametrize("graph, beta", [(["dreg", "--n", "2", "--d", "0"], "1e300"),
                                         (["ba", "--n", "300", "--m", "3"], "1e16"),
                                         (["ba", "--n", "300", "--m", "3"], "1e300")],
                         ids=["dreg-1e300", "ba-1e16", "ba-1e300"])
def test_nonstubborn_at_a_huge_beta_gives_the_consensus(tmp_path, capsys, graph, beta):
    # as beta grows, every node and the source agree on (sum(s) + s_M) / (n + 1)
    out = tmp_path / "ns.csv"
    code, _, err = run_cli(capsys, "nonstubborn", "--gen", *graph, "--beta", beta,
                           "--gamma", "0.1", "--reps", "1", "--seed", "0", "--out", str(out))
    assert code == 0, err
    (row,) = csv.DictReader(out.read_text().splitlines())
    n = int(graph[2])
    consensus = (float(row["sum_s"]) + float(row["s_M"])) / (n + 1)
    assert float(row["z_M_star"]) == pytest.approx(consensus, abs=1e-12)
    assert float(row["mean_z"]) == pytest.approx(consensus, abs=1e-12)
    assert float(row["sum_z"]) == pytest.approx(n * consensus, rel=1e-12)


# command lines on which an exception escaped main, found by
# tests/test_properties.py::test_a_command_line_exits_cleanly_or_with_an_error_line
FOUND_COMMAND_LINES = [
    # 0.1.14: at s = 0, 1 + sum(w) - w^T b cancelled to 0 and z_M* was 0 / 0
    "nonstubborn --gen dreg --n 2 --d 0 --alpha 1.0 --beta 1e+19 --gamma 0.0 --tol 0.001 "
    "--innate-mu 0.0 --innate-var 0.0 --reps 1 --seed 0",
]


@pytest.mark.parametrize("argv", FOUND_COMMAND_LINES)
def test_a_found_command_line_exits_cleanly_and_reruns(tmp_path, capsys, argv):
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    code, _, err = run_cli(capsys, *argv.split(), "--out", str(first))
    assert code == 0, err
    manifest = Path(f"{first}.manifest").read_text(encoding="utf-8")
    run_experiment(config_from_manifest(manifest, output=str(again)))
    assert again.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("graph, regular", [(["ba", "--n", "300", "--m", "3"], False),
                                            (["dreg", "--n", "300", "--d", "4"], True)],
                         ids=["ba", "dreg"])
def test_bracket_above_beta_one_only_on_a_regular_graph(tmp_path, capsys, graph, regular):
    # the bracket is proved for beta <= 1; a regular graph's is the exact sum
    out = tmp_path / "eq.csv"
    assert run_cli(capsys, "equilibrium", "--gen", *graph, "--alpha", "0.7", "--beta", "5",
                   "--gamma", "0.1", "--reps", "1", "--out", str(out))[0] == 0
    with out.open() as fh:
        (row,) = csv.DictReader(fh)
    bracket = (row["lower"], row["upper"])
    if regular:
        assert bracket == (row["exact_if_regular"],) * 2 and row["lower"] != ""
    else:
        assert bracket == ("", "") and row["exact_if_regular"] == ""


@pytest.mark.parametrize("mode", ["equilibrium", "periods", "nonstubborn", "bounds"])
def test_run_without_optional_flags_uses_the_config_defaults(tmp_path, capsys, mode):
    # the CLI keeps no run defaults of its own: ExperimentConfig's apply
    cli_out, lib_out = tmp_path / "cli.csv", tmp_path / "lib.csv"
    alpha = [] if mode == "nonstubborn" else ["--alpha", "1"]
    code, _, err = run_cli(capsys, mode, "--gen", "dreg", "--n", "30", "--d", "4",
                           *alpha, "--beta", "0.5", "--gamma", "0.1",
                           "--out", str(cli_out))
    assert code == 0 and err == ""
    run_experiment(ExperimentConfig(mode, GraphSpec("dreg", n=30, d=4), 1.0, 0.5,
                                    0.1, output=str(lib_out)))
    assert cli_out.read_bytes() == lib_out.read_bytes()
    assert (Path(f"{cli_out}.manifest").read_bytes()
            == Path(f"{lib_out}.manifest").read_bytes())


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
    # every missing flag is named, and only those
    code, _, err = run_cli(capsys, "equilibrium", "--gen", "dreg",
                           "--alpha", "1.0", "--beta", "0.5", "--gamma", "0.1")
    assert code == 2 and err == "error: --gen dreg needs --n and --d\n"


def test_missing_graph_source(capsys):
    code, _, err = run_cli(capsys, "bounds", "--alpha", "1.0", "--beta", "0.5",
                           "--gamma", "0.1")
    assert code == 2 and "either --graph or --gen" in err


def test_generate_without_gen_names_only_its_own_flag(capsys):
    code, out, err = run_cli(capsys, "generate", "--n", "10", "--d", "2")
    assert (code, out, err) == (2, "", "error: need --gen\n")


def test_unreadable_graph_file(capsys):
    code, _, err = run_cli(
        capsys, "equilibrium", "--graph", "/no/such/file.edges",
        "--alpha", "1.0", "--beta", "0.5", "--gamma", "0.1")
    assert code == 2 and "error:" in err and "/no/such/file.edges" in err
    assert "repetition" not in err


def test_bad_graph_file_names_the_file_and_line(tmp_path, capsys):
    path = tmp_path / "loop.edges"
    path.write_text("0 1\n1 1\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys, "periods", "--graph", str(path),
        "--alpha", "1.0", "--beta", "0.5", "--gamma", "0.1", "--reps", "2")
    assert code == 2
    assert str(path) in err and "line 2" in err and "self-loop" in err
    assert "repetition" not in err


def test_undecodable_graph_file_names_the_file_and_line(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_bytes("".join(f"{i} {i + 1}\n" for i in range(300)).encode() + b"2 \xff0\n")
    code, _, err = run_cli(
        capsys, "equilibrium", "--graph", str(path),
        "--alpha", "1.0", "--beta", "0.5", "--gamma", "0.1")
    assert code == 2
    assert err == f"error: {path}: line 301: not valid UTF-8\n"


def test_a_parse_error_before_an_undecodable_byte_is_named_first(tmp_path, capsys):
    # text mode decodes 8 KB ahead of the line it hands out, so the bad byte
    # on line 301 used to be reported before line 2's error
    path = tmp_path / "bad.edges"
    path.write_bytes(b"0 1\nx y\n" + "".join(f"{i} {i + 1}\n" for i in range(298)).encode()
                     + b"2 \xff0\n")
    code, _, err = run_cli(
        capsys, "equilibrium", "--graph", str(path),
        "--alpha", "1.0", "--beta", "0.5", "--gamma", "0.1")
    assert code == 2
    assert err == f"error: {path}: line 2: unparsable node id in 'x y'\n"


@pytest.mark.parametrize("mode", ["equilibrium", "periods", "bounds"])
@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "1"])
def test_tol_outside_unit_interval_exits_before_any_repetition(capsys, mode, tol):
    code, _, err = run_cli(capsys, mode, "--gen", "dreg", "--n", "30", "--d", "6",
                           "--alpha", "0.9", "--beta", "0.5", "--gamma", "0.1",
                           "--reps", "1", "--tol", tol)
    assert code == 2 and "tol" in err
    assert "Traceback" not in err and "repetition" not in err


@pytest.mark.parametrize("flag, value", [
    ("--innate-mu", "nan"), ("--innate-mu", "inf"), ("--innate-mu", "-inf"),
    ("--innate-var", "inf"), ("--innate-var", "nan")])
def test_non_finite_innate_flag_exits_before_any_repetition(capsys, flag, value):
    code, _, err = run_cli(capsys, "equilibrium", "--gen", "dreg", "--n", "30",
                           "--d", "4", "--alpha", "0.9", "--beta", "0.5",
                           "--gamma", "0.1", "--reps", "1", f"{flag}={value}")
    field = flag[2:].replace("-", "_")
    assert code == 2 and field in err and value in err
    assert "Traceback" not in err and "repetition" not in err


def test_negative_seed_names_the_flag(capsys):
    code, _, err = run_cli(capsys, "equilibrium", "--gen", "dreg", "--n", "30",
                           "--d", "6", "--alpha", "0.9", "--beta", "0.5",
                           "--gamma", "0.1", "--reps", "1", "--seed", "-1")
    assert code == 2 and "seed" in err and "repetition" not in err
    code, out, err = run_cli(capsys, "generate", "--gen", "dreg", "--n", "10",
                             "--d", "2", "--seed", "-1")
    assert code == 2 and out == "" and "seed must be >= 0, got -1" in err


def test_negative_float_flag_values_with_an_exponent(capsys):
    # argparse alone reads "-1e-3" and "-inf" as unknown flags
    base = ["equilibrium", "--gen", "dreg", "--n", "30", "--d", "4",
            "--alpha", "0.9", "--gamma", "0.1", "--reps", "1"]
    code, _, err = run_cli(capsys, *base, "--beta", "0.5", "--innate-mu", "-1e-3")
    assert code == 0 and err == ""
    code, _, err = run_cli(capsys, *base, "--beta", "-1e-3")
    assert code == 2 and "beta must be >= 0" in err
    code, _, err = run_cli(capsys, *base, "--beta", "0.5", "--innate-mu", "-inf")
    assert code == 2 and "innate_mu must be finite, got -inf" in err


def test_periods_with_a_loose_tol_runs(capsys):
    # a spill above 1 within tol * ||b||_2 is solver error, not an excursion
    code, out, err = run_cli(capsys, "periods", "--gen", "ba", "--n", "2000",
                             "--m", "3", "--alpha", "1", "--beta", "0.5",
                             "--gamma", "0.05", "--reps", "3", "--tol", "1e-2")
    assert code == 0 and err == ""
    assert out.count("stop=radicalized_up") == 3


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
    assert "repetition" not in err
    assert not out.exists()
    code, _, err = run_cli(capsys, *argv, "--epsilon", "0.05")
    assert code == 0 and err == ""
    assert "epsilon = 0.050000000000000003\n" in (tmp_path / "p.csv.manifest").read_text()


def test_explicit_epsilon_above_the_up_threshold_names_both(capsys):
    code, _, err = run_cli(capsys, "periods", "--gen", "dreg", "--n", "30", "--d", "4",
                           "--alpha", "1", "--beta", "0.5", "--gamma", "0.1",
                           "--epsilon", "0.95")
    assert code == 2
    assert err == ("error: need 0 < epsilon < up_threshold <= 1, got epsilon = 0.95 "
                   "and up_threshold = 0.909091\n")


def test_missing_required_flag_exits(capsys):
    with pytest.raises(SystemExit):
        main(["equilibrium", "--gen", "dreg", "--n", "10", "--d", "2",
              "--beta", "0.5", "--gamma", "0.1"])  # no --alpha


def test_tiny_innate_opinions_keep_their_sum(tmp_path, capsys):
    # ||s||_2 underflows to 0 here; the solve used to return the zero vector
    out = tmp_path / "tiny.csv"
    code, _, _ = run_cli(
        capsys, "equilibrium", "--gen", "dreg", "--n", "30", "--d", "4",
        "--alpha", "0.9", "--beta", "0.5", "--gamma", "0.1", "--innate-mu", "1e-170",
        "--innate-var", "0", "--reps", "1", "--out", str(out))
    assert code == 0
    (row,) = csv.DictReader(out.read_text().splitlines())
    exact = float(row["exact_if_regular"])
    assert exact > 0
    assert math.isclose(float(row["sum_z"]), exact, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# module entry point


def _run_module(*argv, timeout=None, **env):
    # the child imports the same fjmedia as this process, installed or not,
    # with ``env`` added to its environment
    src = str(Path(fjmedia.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "fjmedia", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path, **env}, timeout=timeout)


def test_module_invocation():
    proc = _run_module("generate", "--gen", "dreg", "--n", "6", "--d", "2", "--seed", "0")
    assert proc.returncode == 0
    assert proc.stdout.startswith("# fjmedia generate:")


def test_output_bytes_do_not_follow_the_blas_thread_count(tmp_path):
    # OpenBLAS splits a dot product this long between its threads, and the
    # split changes the rounding; the solves sum every dot product in
    # numpy's own fixed order instead
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"ns-{threads}.csv"
        proc = _run_module("nonstubborn", "--gen", "ba", "--n", "20000", "--m", "3",
                           "--beta", "0.5", "--gamma", "0.05", "--reps", "2", "--seed", "0",
                           "--out", str(out), timeout=120, OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_huge_media_strength_is_solved_to_its_exact_sum(tmp_path):
    # the entries of b are about 1e301 and the squares in ||b||_2 overflow;
    # the solve runs on b scaled to max|b| in [1, 2), and ||b||_2 itself is
    # finite
    out = tmp_path / "huge.csv"
    proc = _run_module("equilibrium", "--gen", "dreg", "--n", "5000", "--d", "20",
                       "--alpha", "0.9", "--beta", "1e300", "--gamma", "0.1",
                       "--reps", "1", "--out", str(out), timeout=60)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    (row,) = csv.DictReader(out.read_text().splitlines())
    assert abs(float(row["sum_z"]) - float(row["exact_if_regular"])) <= 1e-8 * 5000


def test_periods_run_refuses_an_overflowing_right_hand_side_at_the_solve():
    # beta * (1 + d) is finite; a periods run computes no sum bound, so the
    # first solve is what names the overflow
    proc = _run_module("periods", "--gen", "dreg", "--n", "50", "--d", "4",
                       "--alpha", "0.9", "--beta", "3.5e307", "--gamma", "0.1",
                       "--reps", "1", timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert "error: repetition 0: " in proc.stderr
    assert "||b||_2 is inf at iteration 0" in proc.stderr


@pytest.mark.parametrize("mode", ["equilibrium", "periods", "nonstubborn", "bounds"])
def test_beta_whose_media_weight_overflows_names_beta(mode):
    # bounds runs no solve: only its closed forms can refuse the beta
    alpha = [] if mode == "nonstubborn" else ["--alpha", "0.9"]
    proc = _run_module(mode, "--gen", "dreg", "--n", "50", "--d", "4", *alpha,
                       "--beta", "1e308", "--gamma", "0.1", "--reps", "1", timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert "error: repetition 0: beta 1e+308 is too large: " in proc.stderr
    assert "beta * (1 + d_max) overflows" in proc.stderr


# each case is the flags and the closed form that overflows
@pytest.mark.parametrize("flags", [
    (["--alpha", "1", "--gamma", "0.9", "--innate-mu", "0.2"], "the sum bounds overflow"),
    (["--alpha", "1", "--gamma", "1"], "the capped sum overflows"),  # z_M capped
    (["--alpha", "0.9", "--gamma", "0.1"], "the sum bounds overflow"),
])
def test_closed_form_sum_that_overflows_names_beta(flags):
    # beta * (1 + d) is finite, but beta * swing and alpha * beta(1+d) * n are not
    flags, overflow = flags
    proc = _run_module("bounds", "--gen", "dreg", "--n", "50", "--d", "4",
                       "--beta", "3.5e307", *flags, "--reps", "1", timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert f"error: repetition 0: beta 3.5e+307 is too large: {overflow}\n" in proc.stderr
