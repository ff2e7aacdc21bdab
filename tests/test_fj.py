from pathlib import Path

import numpy as np
import pytest

import fjmedia
import fjmedia.fj as fj_module
from fjmedia import (DiagPlusLaplacianOperator, Graph, MediaSystem, fj_equilibrium,
                     fj_step, gen_barabasi_albert, gen_random_regular,
                     load_edge_list, opinion_vector, solve_spd)
from oracles import fj_matrix, iterate_media
from oracles import solve as dense_solve


def path3():
    return Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])


def _no_edge_graph(n):
    z = np.empty(0, dtype=np.int64)
    return Graph(n, z, z, np.empty(0))


# ---------------------------------------------------------------------------
# opinion_vector


def test_opinion_vector_accepts_list():
    v = opinion_vector([0.0, 0.5, 1.0])
    assert v.dtype == np.float64
    assert np.array_equal(v, [0.0, 0.5, 1.0])


def test_opinion_vector_checks_range():
    for bad in (1.0001, -0.1, np.nan, np.inf, -np.inf, -1e-300):
        for values in ([bad, 0.5], [0.5, bad]):
            with pytest.raises(ValueError, match=r"^opinions must lie in \[0, 1\]$"):
                opinion_vector(values)
    z = opinion_vector([-0.0, 1.0])
    assert z[0] == 0.0 and np.signbit(z[0])  # -0.0 is accepted as it is


def test_opinion_vector_lives_in_media_and_resolves_everywhere():
    assert fjmedia.opinion_vector is fj_module.opinion_vector is fjmedia.media.opinion_vector


def test_opinion_vector_checks_length():
    with pytest.raises(ValueError):
        opinion_vector([0.5, 0.5], n=3)


# ---------------------------------------------------------------------------
# fj_step


def test_step_path_by_hand():
    # node 1 on the path: (s_1 + z_0 + z_2) / (1 + 2)
    g = path3()
    s = np.array([0.0, 0.5, 1.0])
    z = fj_step(g, s, s)
    assert np.allclose(z, [0.25, 0.5, 0.75])


def test_step_fixes_consensus():
    g = gen_barabasi_albert(30, 2, seed=1)
    s = np.full(g.n, 0.7)
    assert np.allclose(fj_step(g, s, s), s, atol=1e-15)


def test_step_stays_in_box():
    rng = np.random.default_rng(4)
    g = gen_random_regular(40, 6, seed=4)
    for _ in range(20):
        s = rng.uniform(0.0, 1.0, g.n)
        z = rng.uniform(0.0, 1.0, g.n)
        out = fj_step(g, s, z)
        assert out.min() >= 0.0 and out.max() <= 1.0


# ---------------------------------------------------------------------------
# fj_equilibrium


def test_equilibrium_path_frozen():
    z = fj_equilibrium(path3(), np.array([0.0, 0.5, 1.0]))
    assert np.allclose(z, [0.25, 0.5, 0.75], atol=1e-10)


def test_equilibrium_no_edges_returns_innate():
    s = np.array([0.2, 0.9, 0.0])
    z = fj_equilibrium(_no_edge_graph(3), s)
    assert np.allclose(z, s, atol=1e-12)


def test_equilibrium_sum_conservation():
    # 1^T (I + L)^{-1} s = 1^T s since L 1 = 0
    rng = np.random.default_rng(7)
    for seed in range(6):
        g = gen_barabasi_albert(80, 3, seed=seed)
        s = rng.uniform(0.0, 1.0, g.n)
        z = fj_equilibrium(g, s)
        assert abs(z.sum() - s.sum()) <= 1e-8


def test_equilibrium_matches_dense_oracle():
    rng = np.random.default_rng(11)
    for seed in range(8):
        g = gen_barabasi_albert(50, 2, seed=seed)
        s = rng.uniform(0.0, 1.0, g.n)
        got = fj_equilibrium(g, s, tol=1e-12)
        want = dense_solve(fj_matrix(g), s)
        assert np.max(np.abs(got - want)) <= 1e-8


def test_methods_agree():
    rng = np.random.default_rng(13)
    g = gen_random_regular(60, 4, seed=2)
    s = rng.uniform(0.0, 1.0, g.n)
    direct = fj_equilibrium(g, s, tol=1e-12)
    iterated = iterate_media(g, s, 0.0, np.zeros(g.n), tol=1e-12)
    assert np.max(np.abs(direct - iterated)) <= 1e-10


FJ_GRAPHS = {
    "ba": lambda: gen_barabasi_albert(2000, 3, seed=1),
    "dreg": lambda: gen_random_regular(500, 20, seed=1),
    "weighted file": lambda: load_edge_list(Path(__file__).parent / "golden" / "weighted.edges"),
}


@pytest.mark.parametrize("name", sorted(FJ_GRAPHS))
def test_equilibrium_is_the_beta_zero_media_system(monkeypatch, name):
    # at beta = 0 the weight is exactly 0, the diagonal exactly 1.0 and the
    # right-hand side exactly s: the iterates of a solve on I + L itself
    g = FJ_GRAPHS[name]()
    s = np.random.default_rng(3).uniform(0.0, 1.0, g.n)
    systems = []
    real = fj_module.equilibrium_with_media

    def spy(system, s, zeta, tol):
        systems.append(system)
        return real(system, s, zeta, tol)

    monkeypatch.setattr(fj_module, "equilibrium_with_media", spy)
    z = fj_equilibrium(g, s)
    (system,) = systems
    assert system.graph is g and system.beta == 0.0
    assert np.array_equal(system.op.gamma_diag, np.ones(g.n))
    want = solve_spd(DiagPlusLaplacianOperator(g, np.ones(g.n)), s).solution
    assert z.tobytes() == want.tobytes()


def test_innate_length_checked():
    with pytest.raises(ValueError):
        fj_equilibrium(path3(), np.array([0.0, 0.5]))
