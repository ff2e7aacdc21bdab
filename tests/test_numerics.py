import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from fjmedia import (ConvergenceError, DiagPlusLaplacianOperator, ExperimentConfig,
                     Graph, GraphSpec, MediaSystem, SolveReport, gen_barabasi_albert,
                     gen_random_regular, load_edge_list, neighbor_sum,
                     numerics, run_experiment, solve_spd)
from fjmedia.graph import _ba_edges
from graph_cases import KERNEL_GRAPHS
from oracles import adjacency, media_matrix, neighbors, plain_cg
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


@pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
def test_operator_apply_out_gives_the_same_bits_and_matches_dense(name):
    g = KERNEL_GRAPHS[name]()
    rng = np.random.default_rng(2)
    gamma = rng.uniform(0.1, 3.0, g.n)
    op = DiagPlusLaplacianOperator(g, gamma)
    x = rng.normal(size=g.n)
    want = op.apply(x)
    buf = np.full(g.n, np.nan)
    got = op.apply(x, out=buf)
    assert got is buf
    assert got.tobytes() == want.tobytes()
    assert np.allclose(want, (np.diag(gamma) + dense_laplacian(g)) @ x, atol=1e-10)
    # (d x - W x) + gamma x, from the same operands in that order
    formula = (g.degree * x - neighbor_sum(g, x)) + gamma * x
    assert want.tobytes() == formula.tobytes()


@pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
def test_operator_bound_constants(name):
    # the certified stop reads the graph's longest adjacency row, and
    # abs_norm bounds || |A| ||_2
    g = KERNEL_GRAPHS[name]()
    gamma = np.random.default_rng(3).uniform(0.1, 3.0, g.n)
    op = DiagPlusLaplacianOperator(g, gamma)
    assert g.longest_row == max(len(neighbors(g, i)) for i in range(g.n))
    abs_a = np.diag(gamma) + np.diag(adjacency(g).sum(axis=1)) + adjacency(g)
    assert np.linalg.eigvalsh(abs_a).max() <= op.abs_norm * (1 + 1e-12)


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
    # measured ||A x - b|| / ||b|| <= residual <= tol on every solve: a
    # measured residual is that value, a certified one a bound above it
    g = gen_barabasi_albert(80, 3, seed=3)
    op = DiagPlusLaplacianOperator(g, np.full(g.n, 0.5))
    rng = np.random.default_rng(5)
    seen = set()
    for tol in (1e-6, 1e-10, 1e-13, 1e-15):
        for _ in range(4):
            b = rng.normal(size=g.n)
            rep = solve_spd(op, b, tol=tol)
            check = np.linalg.norm(op.apply(rep.solution) - b) / np.linalg.norm(b)
            assert check <= rep.residual <= tol
            if not rep.certified:
                assert abs(rep.residual - check) <= 1e-14
            seen.add(rep.certified)
    assert seen == {True, False}


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
    with pytest.raises(ConvergenceError, match="in 2 iterations") as exc_info:
        numerics._pcg(op, b, float(np.linalg.norm(b)), 1e-15, max_iter=2)
    err = exc_info.value
    assert err.iterations == 2
    assert err.residual > 0


def test_overflowing_rhs_stops_before_the_first_iteration():
    op = DiagPlusLaplacianOperator(path3(), np.ones(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error says it, not a numpy warning
        # sqrt(3) * 1.5e308 is past the float range, though every entry is not
        with pytest.raises(ValueError, match=r"\|\|b\|\|_2 is inf at iteration 0"):
            solve_spd(op, np.full(3, 1.5e308))
        with pytest.raises(ValueError, match=r"\|\|b\|\|_2 is inf at iteration 0"):
            solve_spd(op, np.array([1.0, np.inf, 0.0]))
        with pytest.raises(ValueError, match=r"\|\|b\|\|_2 is nan at iteration 0"):
            solve_spd(op, np.array([1.0, np.nan, 0.0]))
        # the squares in ||b||_2 overflow, but ||b||_2 itself is finite:
        # (I + L) x = b is solved by x = b, as b is constant
        rep = solve_spd(op, np.full(3, 1e300))
    assert np.allclose(rep.solution, 1e300, rtol=1e-12, atol=0.0)
    assert rep.rhs_norm == pytest.approx(math.sqrt(3) * 1e300, rel=1e-15)


def test_rhs_whose_norm_underflows_is_solved_scaled():
    # every square in ||b||_2 underflows; the answer is 2**-600 times that of
    # the scaled right-hand side, to the bit, in as many iterations
    g = gen_barabasi_albert(60, 2, seed=3)
    op = DiagPlusLaplacianOperator(g, np.full(g.n, 0.5))
    b = np.random.default_rng(8).uniform(0.0, 1.0, g.n)
    tiny = np.ldexp(b, -600)
    assert np.linalg.norm(tiny) == 0.0
    rep, ref = solve_spd(op, tiny), solve_spd(op, b)
    assert np.array_equal(rep.solution, np.ldexp(ref.solution, -600))
    assert ref.certified
    assert ((rep.iterations, rep.residual, rep.certified)
            == (ref.iterations, ref.residual, ref.certified))
    assert rep.rhs_norm == math.ldexp(ref.rhs_norm, -600) > 0.0


def test_rhs_norm_is_the_two_norm_of_the_given_rhs():
    g = gen_barabasi_albert(60, 2, seed=3)
    op = DiagPlusLaplacianOperator(g, np.full(g.n, 0.5))
    b = np.random.default_rng(8).uniform(0.0, 1.0, g.n)
    # summed in numpy's pairwise order, as every dot product of the solve
    assert solve_spd(op, b).rhs_norm == math.sqrt(np.add.reduce(b * b))
    assert solve_spd(op, b).rhs_norm == pytest.approx(np.linalg.norm(b), rel=1e-15)
    # far below 1 the solve runs on a power-of-two multiple of b; the norm
    # comes back to the bit
    small = np.ldexp(b, -501)
    assert np.abs(small).max() < 2.0 ** -500
    rhs_norm = solve_spd(op, small).rhs_norm
    assert rhs_norm > 0.0 and rhs_norm == math.ldexp(math.sqrt(np.add.reduce(b * b)), -501)
    assert solve_spd(op, np.zeros(g.n)).rhs_norm == 0.0


def test_overflowing_cg_scalar_stops_at_its_iteration():
    # b is scaled to max|b| in [1, 2), but p . A p, a sum of 40 terms of
    # about 1e307, still overflows in the first step
    g = gen_random_regular(40, 4, seed=2)
    op = DiagPlusLaplacianOperator(g, np.full(g.n, 1e307))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match=r"p\.Ap is inf at iteration 1") as exc_info:
            solve_spd(op, np.full(g.n, 1e150))
        # A p = 1e200 * 1e150 overflowed here before b was scaled
        rep = solve_spd(DiagPlusLaplacianOperator(g, np.full(g.n, 1e200)),
                        np.full(g.n, 1e150))
    assert exc_info.value.iterations == 1
    assert np.allclose(rep.solution, 1e-50, rtol=1e-12, atol=0.0)


def test_a_solution_past_the_float_range_stops_the_solve():
    # A = 1e-300 I + L maps the constant 1e310 to 1e10, so CG on the scaled
    # b converges, and only scaling its solution back overflows
    op = DiagPlusLaplacianOperator(path3(), np.full(3, 1e-300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match=r"max\|x\| is inf at iteration \d"):
            solve_spd(op, np.full(3, 1e10))


def _fj_and_media_operators(g, beta):
    return (DiagPlusLaplacianOperator(g, np.ones(g.n)),
            DiagPlusLaplacianOperator(g, 1.0 + beta * (1.0 + g.degree)))


def test_constant_diagonal_keeps_plain_cg_iterates():
    # on a d-regular graph the Jacobi scaling is exactly 1.0 everywhere
    rng = np.random.default_rng(17)
    for seed, (n, d) in enumerate([(40, 4), (200, 6), (501, 20), (1000, 3)]):
        g = gen_random_regular(n, d, seed=seed)
        for op in _fj_and_media_operators(g, float(rng.uniform(0.01, 2.0))):
            b = rng.uniform(0.0, 1.0, g.n)
            for tol in (1e-6, 1e-10, 1e-13):
                rep = solve_spd(op, b, tol=tol)
                want, iterations = plain_cg(op, b, tol)
                assert np.array_equal(rep.solution, want), (n, d, tol)
                assert rep.iterations == iterations


def test_jacobi_cuts_iterations_on_a_hub_graph():
    g = gen_barabasi_albert(2000, 3, seed=4)
    b = np.random.default_rng(6).uniform(0.0, 1.0, g.n)
    for op in _fj_and_media_operators(g, 0.5):
        rep = solve_spd(op, b, tol=1e-10)
        x, iterations = plain_cg(op, b, 1e-10)
        for sol in (rep.solution, x):
            assert np.linalg.norm(op.apply(sol) - b) <= 1e-10 * np.linalg.norm(b)
        assert rep.iterations < iterations


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0, 1.0])
def test_tol_outside_unit_interval_raises(tol):
    op = DiagPlusLaplacianOperator(path3(), np.ones(3))
    with pytest.raises(ValueError, match="tol"):
        solve_spd(op, np.ones(3), tol=tol)


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
    rep = SolveReport(np.array([1.0, 2.0]), 1, 0.0, 1.0)
    with pytest.raises(ValueError):
        rep.solution[0] = 9.0


def test_operator_and_report_compare_by_identity():
    g = path3()
    op, twin = (DiagPlusLaplacianOperator(g, np.ones(3)) for _ in range(2))
    rep, rep_twin = (solve_spd(op, np.ones(3)) for _ in range(2))
    for a, b in ((op, twin), (rep, rep_twin)):
        assert a == a and a != b
        assert len({a, b, a}) == 2 and a in {a}


def _count_applies(monkeypatch):
    applied = []
    real = DiagPlusLaplacianOperator.apply

    def counting(op, x, out=None):
        applied.append(x)
        return real(op, x, out=out)

    monkeypatch.setattr(DiagPlusLaplacianOperator, "apply", counting)
    return applied


def _replacement_case():
    system = MediaSystem(gen_barabasi_albert(300, 3, seed=1), 0.5)
    return system, np.random.default_rng(1).random(300) + 0.3 * system.weight


def test_residual_replacement_reuses_the_verified_product(monkeypatch):
    # the recursion residual reaches tol once before the true one does: the
    # check's A x restarts CG, and no product is formed twice
    system, b = _replacement_case()
    assert np.abs(b).max() >= 2.0  # so the solve runs on a scaled b
    applied = _count_applies(monkeypatch)
    rep = solve_spd(system.op, b, tol=1e-15)
    # CG applies its one direction vector, updated in place; every other
    # product is a check's A x
    verifications = sum(x is not applied[0] for x in applied)
    assert (rep.iterations, verifications) == (23, 2)  # one restart, then the pass
    assert len(applied) == rep.iterations + verifications
    assert rep.residual <= 1e-15 and not rep.certified
    want = dense_solve(media_matrix(system.graph, 0.5), b)
    assert np.max(np.abs(rep.solution - want)) <= 1e-12 * np.max(np.abs(want))


def test_a_solve_that_stagnates_above_tol_stops_at_once():
    # 1e-15 lies below the accuracy CG attains on README's periods run: the
    # measured residual after a replacement stops falling, and the solve ends
    # there instead of measuring again at each iteration up to 10n = 5000
    config = ExperimentConfig(mode="periods", graph=GraphSpec(kind="dreg", n=500, d=20),
                              alpha=1.0, beta=0.025, gamma=0.01, repetitions=5,
                              tol=1e-15)
    with pytest.raises(ConvergenceError,
                       match=r"did not reach tol=1e-15: the measured residual "
                             r"stagnated at \d\.\d{3}e-15") as exc_info:
        run_experiment(config)
    assert exc_info.value.iterations < 100
    assert 1e-15 < exc_info.value.residual < 1e-14


def test_certified_one_step_solve_forms_no_verification_product(monkeypatch):
    # near consensus on a regular graph CG stops after one step, as most
    # periods of a radicalisation run do, and the proven bound stands in
    # for the product that would check it
    g = gen_random_regular(200, 6, seed=3)
    op = MediaSystem(g, 0.025).op
    b = 0.5 + 1e-13 * np.random.default_rng(2).normal(size=g.n)
    applied = _count_applies(monkeypatch)
    rep = solve_spd(op, b, tol=1e-10)
    assert (rep.iterations, rep.certified) == (1, True)
    assert len(applied) == rep.iterations


def test_a_bound_too_small_is_caught_by_the_residual_hook(monkeypatch, residual_hook):
    # at 1e-6 of the proven bound the replacement case certifies its first
    # stop, whose measured residual is above tol, and the hook refuses it
    system, b = _replacement_case()
    real = numerics._rounding_bound
    monkeypatch.setattr(numerics, "_rounding_bound", lambda *args: 1e-6 * real(*args))
    with pytest.raises(AssertionError, match="a certified solve stopped at iteration"):
        solve_spd(system.op, b, tol=1e-15)
    rep = residual_hook(system.op, b, float(np.linalg.norm(b)), 1e-15, 10 * b.size)
    measured = np.linalg.norm(system.op.apply(rep.solution) - b) / np.linalg.norm(b)
    assert rep.certified and rep.iterations < 23
    assert measured > 1e-15


def _wide_weights():
    lo, hi = _ba_edges(200, 3, 5)
    weights = 10.0 ** np.random.default_rng(0).uniform(-6.0, 6.0, lo.size)
    return Graph(200, lo, hi, weights)


EDGE_GRAPHS = {
    "n=1": lambda: _no_edge_graph(1),
    "dense dreg n=60 d=56": lambda: gen_random_regular(60, 56, seed=0),
    "weighted file": lambda: load_edge_list(Path(__file__).parent / "golden" / "weighted.edges"),
    "weights 1e-6 to 1e6": _wide_weights,
}


@pytest.mark.parametrize("tol", [0.5, 1e-15])
@pytest.mark.parametrize("beta", [0.5, 1e3])
@pytest.mark.parametrize("name", sorted(EDGE_GRAPHS))
def test_edge_inputs_meet_tol_as_measured(name, beta, tol):
    # the residual hook checks every solve; a constant diagonal keeps the
    # iterates of plain CG, certified stop or not
    op = MediaSystem(EDGE_GRAPHS[name](), beta).op
    b = np.random.default_rng(4).uniform(0.0, 1.0, op.graph.n)
    rep = solve_spd(op, b, tol=tol)
    measured = np.linalg.norm(op.apply(rep.solution) - b) / np.linalg.norm(b)
    assert measured <= rep.residual <= tol
    if np.all(op.inv_diag == 1.0):
        want, iterations = plain_cg(op, b, tol)
        assert np.array_equal(rep.solution, want)
        assert rep.iterations == iterations
