"""CSV goldens: the first three written by fjmedia 0.1.3, before the CSR
kernel, and the two file runs by 0.1.4, before the in-place operator.

A CSR row adds its terms in another order than the edge scatter did, and
the head-then-tail sum of 0.1.5 in another order again, so a column that
comes out of a solve may move at roundoff level; it is compared at 1e-12
relative.  Every other column, and the row count, stays byte for
byte.  The file runs read ``weighted.edges`` (mixed weights, so the kernel's
weight multiply stays covered) and ``regular.edges`` (a 6-regular graph with
unit weights, where the kernel skips it).
"""

import csv
import math
from pathlib import Path

import pytest

from fjmedia.cli import main

GOLDEN = Path(__file__).parent / "golden"

RUNS = {
    "periods": ["--gen", "ba", "--n", "300", "--m", "3", "--alpha", "0.8",
                "--beta", "0.05", "--gamma", "0.05", "--reps", "2", "--seed", "4"],
    "nonstubborn": ["--gen", "ba", "--n", "300", "--m", "3", "--beta", "0.5",
                    "--gamma", "0.05", "--reps", "3", "--seed", "4"],
    "equilibrium": ["--gen", "ba", "--n", "300", "--m", "3", "--alpha", "0.7",
                    "--beta", "0.5", "--gamma", "0.05", "--reps", "3", "--seed", "4"],
}

FILE_RUNS = {
    "equilibrium-weighted-file": ["equilibrium", "--graph", str(GOLDEN / "weighted.edges"),
                                  "--alpha", "0.7", "--beta", "0.5", "--gamma", "0.05",
                                  "--reps", "3", "--seed", "4"],
    "periods-regular-file": ["periods", "--graph", str(GOLDEN / "regular.edges"),
                             "--alpha", "0.8", "--beta", "0.05", "--gamma", "0.05",
                             "--reps", "2", "--seed", "4"],
}

SOLVE_DERIVED = {
    "periods": {"sum_z", "mean_z", "z_M", "z_Mprime"},
    "nonstubborn": {"sum_z", "mean_z", "z_M_star"},
    "equilibrium": {"sum_z"},
}


@pytest.mark.parametrize("mode", sorted(RUNS))
def test_csv_matches_the_0_1_3_golden(tmp_path, capsys, mode):
    _assert_matches_golden(tmp_path, capsys, [mode, *RUNS[mode]], mode)


@pytest.mark.parametrize("name", sorted(FILE_RUNS))
def test_file_run_csv_matches_the_0_1_4_golden(tmp_path, capsys, name):
    _assert_matches_golden(tmp_path, capsys, FILE_RUNS[name], name)


def _assert_matches_golden(tmp_path, capsys, argv, name):
    out = tmp_path / f"{name}.csv"
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    with open(GOLDEN / f"{name}.csv", newline="") as fh:
        want = list(csv.reader(fh))
    with open(out, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == want[0] and len(got) == len(want)
    solve_derived = SOLVE_DERIVED[argv[0]]
    for line, (row, ref) in enumerate(zip(got[1:], want[1:]), start=2):
        for col, a, b in zip(want[0], row, ref):
            if col in solve_derived:
                assert math.isclose(float(a), float(b), rel_tol=1e-12, abs_tol=0.0), (line, col)
            else:
                assert a == b, (line, col)
