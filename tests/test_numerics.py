import numpy as np
import pytest

from fjmedia import (ConvergenceError, DiagPlusLaplacianOperator, Graph,
                     SolveReport, gen_barabasi_albert,
                     gen_random_regular, solve_spd)
from oracles import laplacian as dense_laplacian
from oracles import solve as dense_solve


def _no_edge_graph(n):
    z = np.empty(0, dtype=np.int64)
    return Graph(n, z, z, np.empty(0))


def path3():
    return Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])


# ---------------------------------------------------------------------------
# operator


def test_operator_apply_matches_dense():
    rng = np.random.default_rng(0)
    for seed in range(5):
        g = gen_barabasi_albert(40, 2, seed=seed)
        gamma = rng.uniform(0.1, 3.0, g.n)
        op = DiagPlusLaplacianOperator(g, gamma)
        A = np.diag(gamma) + dense_laplacian(g)
        x = rng.normal(size=g.n)
        assert np.allclose(op.apply(x), A @ x, atol=1e-10)


def test_operator_rejects_nonpositive_gamma():
    g = path3()
    with pytest.raises(ValueError):
        DiagPlusLaplacianOperator(g, np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        DiagPlusLaplacianOperator(g, np.array([1.0, -2.0, 1.0]))
    with pytest.raises(ValueError):
        DiagPlusLaplacianOperator(g, np.ones(2))


# ---------------------------------------------------------------------------
# conjugate gradient


def test_identity_solve():
    # no edges, gamma = 1: A = I, so x = b in one CG step
    g = _no_edge_graph(4)
    op = DiagPlusLaplacianOperator(g, np.ones(4))
    b = np.array([1.0, -2.0, 0.5, 3.0])
    rep = solve_spd(op, b)
    assert np.allclose(rep.solution, b, atol=1e-12)
    assert rep.iterations == 1
    assert rep.residual <= 1e-10


def test_zero_rhs_short_circuits():
    g = path3()
    op = DiagPlusLaplacianOperator(g, np.ones(3))
    rep = solve_spd(op, np.zeros(3))
    assert np.array_equal(rep.solution, np.zeros(3))
    assert rep.iterations == 0
    assert rep.residual == 0.0


def test_path_solve_frozen_value():
    # (I + L) x = (0, 0.5, 1) on the path 0-1-2  =>  x = (0.25, 0.5, 0.75)
    op = DiagPlusLaplacianOperator(path3(), np.ones(3))
    rep = solve_spd(op, np.array([0.0, 0.5, 1.0]))
    assert np.allclose(rep.solution, [0.25, 0.5, 0.75], atol=1e-10)


def test_cg_matches_dense_oracle():
    rng = np.random.default_rng(21)
    for seed in range(12):
        if seed % 2:
            g = gen_barabasi_albert(int(rng.integers(20, 120)), 3, seed=seed)
        else:
            g = gen_random_regular(int(rng.integers(10, 60)) * 2, 6, seed=seed)
        gamma = rng.uniform(0.05, 2.0, g.n)
        b = rng.normal(size=g.n)
        got = solve_spd(DiagPlusLaplacianOperator(g, gamma), b, tol=1e-12).solution
        want = dense_solve(np.diag(gamma) + dense_laplacian(g), b)
        assert np.max(np.abs(got - want)) <= 1e-8


def test_reported_residual_is_true_residual():
    g = gen_barabasi_albert(80, 3, seed=3)
    op = DiagPlusLaplacianOperator(g, np.full(g.n, 0.5))
    b = np.random.default_rng(5).normal(size=g.n)
    rep = solve_spd(op, b, tol=1e-10)
    check = np.linalg.norm(op.apply(rep.solution) - b) / np.linalg.norm(b)
    assert rep.residual <= 1e-10
    assert abs(rep.residual - check) <= 1e-14


def test_inverse_positivity():
    # (gamma + L) is a nonsingular M-matrix: nonnegative rhs -> nonnegative x
    rng = np.random.default_rng(9)
    for seed in range(8):
        g = gen_barabasi_albert(60, 2, seed=seed)
        gamma = rng.uniform(0.2, 1.5, g.n)
        b = rng.uniform(0.0, 1.0, g.n)
        x = solve_spd(DiagPlusLaplacianOperator(g, gamma), b, tol=1e-12).solution
        assert x.min() >= -1e-12


def test_max_iter_exhaustion_raises_with_residual():
    g = gen_random_regular(40, 4, seed=2)
    op = DiagPlusLaplacianOperator(g, np.full(g.n, 1e-6))
    b = np.random.default_rng(1).normal(size=g.n)
    with pytest.raises(ConvergenceError) as exc_info:
        solve_spd(op, b, tol=1e-15, max_iter=2)
    err = exc_info.value
    assert err.iterations == 2
    assert err.residual > 0


def test_row_sum_bounds_of_inverse():
    # y^T = 1^T ((1+beta) I + beta D + L)^{-1} is bracketed by
    # 1/(beta(d_max+1)+1) <= y_j <= 1/(beta(d_min+1)+1), tight when regular
    rng = np.random.default_rng(33)
    for seed in range(6):
        regular = seed % 2 == 0
        if regular:
            g = gen_random_regular(30, 4, seed=seed)
        else:
            g = gen_barabasi_albert(30, 2, seed=seed)
        beta = float(rng.uniform(0.05, 1.0))
        gamma_diag = (1.0 + beta) + beta * g.degree
        op = DiagPlusLaplacianOperator(g, gamma_diag)
        lo = 1.0 / (beta * (g.stats.d_max + 1.0) + 1.0)
        hi = 1.0 / (beta * (g.stats.d_min + 1.0) + 1.0)
        for j in range(g.n):
            e = np.zeros(g.n)
            e[j] = 1.0
            col = solve_spd(op, e, tol=1e-13).solution
            y_j = float(col.sum())  # A symmetric, so column sum = row sum
            assert lo - 1e-10 <= y_j <= hi + 1e-10, (seed, j)
            if regular:
                assert abs(y_j - lo) <= 1e-10


def test_solve_report_solution_read_only():
    rep = SolveReport(np.array([1.0, 2.0]), 1, 0.0)
    with pytest.raises(ValueError):
        rep.solution[0] = 9.0
