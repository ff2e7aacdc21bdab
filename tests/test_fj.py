import numpy as np
import pytest

from fjmedia import (Graph, fj_equilibrium, fj_step, gen_barabasi_albert,
                     gen_random_regular, opinion_vector)
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
    with pytest.raises(ValueError):
        opinion_vector([0.0, 1.0001])
    with pytest.raises(ValueError):
        opinion_vector([-0.1, 0.5])
    with pytest.raises(ValueError):
        opinion_vector([np.nan, 0.5])


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


def test_innate_length_checked():
    with pytest.raises(ValueError):
        fj_equilibrium(path3(), np.array([0.0, 0.5]))
