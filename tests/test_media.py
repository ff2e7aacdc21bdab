import numpy as np
import pytest

from fjmedia import (Graph, MediaAssignment, MediaConfig, MediaSystem,
                     assign_media, build_zeta, equilibrium_with_media, fj_equilibrium,
                     gen_barabasi_albert, gen_random_regular, source_opinions,
                     sum_bounds, truncated_lower_bound, truncated_regular_sum)
from oracles import iterate_media, media_matrix, media_rhs
from oracles import solve as dense_solve


def path3():
    return Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])


def complete_graph(n):
    return Graph.from_edges(
        n, [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)])


def all_to_M(n):
    return MediaAssignment(np.ones(n, dtype=bool))


# ---------------------------------------------------------------------------
# config and assignment


def test_config_validation():
    MediaConfig(alpha=0.0, beta=0.0, gamma=0.0)
    MediaConfig(alpha=1.0, beta=5.0, gamma=1.0)
    with pytest.raises(ValueError):
        MediaConfig(alpha=1.2, beta=0.1, gamma=0.1)
    with pytest.raises(ValueError):
        MediaConfig(alpha=0.5, beta=-0.1, gamma=0.1)
    with pytest.raises(ValueError):
        MediaConfig(alpha=0.5, beta=float("nan"), gamma=0.1)
    with pytest.raises(ValueError):
        MediaConfig(alpha=0.5, beta=0.1, gamma=-0.1)


def test_assign_counts():
    g = gen_barabasi_albert(101, 2, seed=0)
    assert assign_media(g, 0.0, seed=1).count_M == 0
    assert assign_media(g, 1.0, seed=1).count_M == 101
    # 50.5 rounds half away from zero
    assert assign_media(g, 0.5, seed=1).count_M == 51
    with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
        assign_media(g, 1.5, seed=1)


def test_assign_halves_large_odd_n():
    # 4039 * 0.5 = 2019.5 -> 2020, not banker's 2019/2020 coin flip
    g = gen_random_regular(4039, 0, seed=0)
    a = assign_media(g, 0.5, seed=7)
    assert a.count_M == 2020
    assert int(a.attached_to_M.sum()) == 2020


def test_assign_deterministic():
    g = gen_barabasi_albert(200, 2, seed=3)
    a = assign_media(g, 0.3, seed=11)
    b = assign_media(g, 0.3, seed=11)
    c = assign_media(g, 0.3, seed=12)
    assert np.array_equal(a.attached_to_M, b.attached_to_M)
    assert not np.array_equal(a.attached_to_M, c.attached_to_M)


def test_count_M_follows_the_mask():
    a = MediaAssignment(np.array([True, False, True]))
    assert (a.n, a.count_M) == (3, 2)


def test_assignment_mask_read_only():
    a = assign_media(gen_barabasi_albert(10, 1, seed=0), 0.5, seed=0)
    with pytest.raises(ValueError):
        a.attached_to_M[0] = True


# ---------------------------------------------------------------------------
# source opinions and zeta


def test_source_opinions_plain():
    src = source_opinions(np.array([0.0, 0.5, 1.0]), gamma=0.01)
    assert src.z_M == pytest.approx(0.505, abs=1e-15)
    assert src.z_Mprime == pytest.approx(0.495, abs=1e-15)
    assert not src.truncated


def test_source_opinions_cap():
    src = source_opinions(np.array([0.999, 0.999]), gamma=0.01)
    assert src.z_M == 1.0
    assert src.truncated


def test_source_opinions_exact_boundary_not_truncated():
    # (1 + gamma) * mean == 1 exactly: capped value reached, flag stays off
    src = source_opinions(np.array([0.5, 0.5]), gamma=1.0)
    assert src.z_M == 1.0
    assert src.z_Mprime == 0.0
    assert not src.truncated


def test_source_opinions_validation():
    with pytest.raises(ValueError):
        source_opinions(np.empty(0), gamma=0.1)
    with pytest.raises(ValueError):
        source_opinions(np.array([0.5]), gamma=1.5)


def test_build_zeta():
    a = MediaAssignment(np.array([True, False, True]))
    zeta = build_zeta(a, 0.9, 0.1)
    assert np.array_equal(zeta, [0.9, 0.1, 0.9])


# ---------------------------------------------------------------------------
# equilibrium


def test_beta_zero_reduces_to_fj():
    g = gen_barabasi_albert(40, 2, seed=5)
    s = np.random.default_rng(5).uniform(0.0, 1.0, g.n)
    a = assign_media(g, 0.5, seed=1)
    z = equilibrium_with_media(MediaSystem(g, 0.0), s, build_zeta(a, 0.7, 0.3),
                               tol=1e-12).solution
    assert np.max(np.abs(z - fj_equilibrium(g, s, tol=1e-12))) <= 1e-9


def test_consensus_with_agreeing_sources():
    g = gen_random_regular(20, 4, seed=1)
    s = np.full(g.n, 0.6)
    a = assign_media(g, 0.5, seed=2)
    z = equilibrium_with_media(MediaSystem(g, 0.8), s, build_zeta(a, 0.6, 0.6)).solution
    assert np.allclose(z, 0.6, atol=1e-9)


def test_path_all_to_M_frozen():
    # path 0-1-2, s = (0, 0.5, 1), beta = 0.5, z_M = 0.505 everywhere
    g = path3()
    s = np.array([0.0, 0.5, 1.0])
    src = source_opinions(s, gamma=0.01)
    zeta = build_zeta(all_to_M(3), src.z_M, src.z_Mprime)
    z = equilibrium_with_media(MediaSystem(g, 0.5), s, zeta, tol=1e-12).solution
    want = [0.33594202898550724, 0.5028260869565216, 0.6692753623188407]
    assert np.allclose(z, want, atol=1e-10)
    assert z.sum() == pytest.approx(1.5080434782608694, abs=1e-10)


def test_direct_and_iterate_agree():
    g = gen_barabasi_albert(60, 3, seed=9)
    rng = np.random.default_rng(9)
    s = rng.uniform(0.0, 1.0, g.n)
    a = assign_media(g, 0.4, seed=3)
    zeta = build_zeta(a, 0.8, 0.2)
    direct = equilibrium_with_media(MediaSystem(g, 0.3), s, zeta, tol=1e-12).solution
    iterated = iterate_media(g, s, 0.3, zeta, tol=1e-13)
    assert np.max(np.abs(direct - iterated)) <= 1e-9


def test_equilibrium_matches_dense_oracle():
    rng = np.random.default_rng(17)
    for seed in range(8):
        g = gen_barabasi_albert(50, 2, seed=seed)
        s = rng.uniform(0.0, 1.0, g.n)
        beta = float(rng.uniform(0.0, 1.0))
        a = assign_media(g, float(rng.uniform(0.0, 1.0)), seed=seed)
        src = source_opinions(s, float(rng.uniform(0.0, 0.5)))
        zeta = build_zeta(a, src.z_M, src.z_Mprime)
        got = equilibrium_with_media(MediaSystem(g, beta), s, zeta, tol=1e-12).solution
        want = dense_solve(media_matrix(g, beta), media_rhs(g, s, beta, zeta))
        assert np.max(np.abs(got - want)) <= 1e-8


@pytest.mark.parametrize("beta", [-0.5, np.nan, np.inf, 1e308])
def test_media_system_names_a_bad_beta(beta):
    with pytest.raises(ValueError, match="beta"):
        MediaSystem(gen_random_regular(20, 4, seed=1), beta)


def test_media_system_forms_the_weight_once_read_only():
    g = gen_barabasi_albert(40, 2, seed=5)
    system = MediaSystem(g, 0.5)
    assert np.array_equal(system.weight, 0.5 * (1.0 + g.degree))
    assert np.array_equal(system.op.gamma_diag, 1.0 + system.weight)
    for arr in (system.weight, system.op.gamma_diag, system.op.inv_diag):
        with pytest.raises(ValueError):
            arr[0] = 9.0


def test_media_system_builds_each_operator_on_first_use_only():
    g = gen_barabasi_albert(40, 2, seed=5)
    system = MediaSystem(g, 0.5)
    assert "op" not in vars(system) and "weight_op" not in vars(system)
    assert system.op is system.op and system.weight_op is system.weight_op
    assert np.array_equal(system.weight_op.gamma_diag, system.weight)
    with pytest.raises(ValueError, match="positive"):  # diag(w) + L is singular at beta = 0
        MediaSystem(g, 0.0).weight_op


def test_equilibrium_input_sizes_checked():
    g = path3()
    s = np.array([0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        equilibrium_with_media(MediaSystem(g, 0.5), s, np.full(4, 0.5))
    with pytest.raises(ValueError):
        equilibrium_with_media(MediaSystem(g, -0.5), s, np.full(3, 0.5))


# ---------------------------------------------------------------------------
# closed-form sums


def test_sum_bounds_alpha_half_regular_is_conserved():
    # equal-sized factions cancel: sum(z) == sum(s) on a regular graph
    g = gen_random_regular(30, 4, seed=6)
    s = np.random.default_rng(6).uniform(0.0, 0.9, g.n)
    b = sum_bounds(g, s, MediaConfig(alpha=0.5, beta=0.7, gamma=0.2))
    assert b.exact_if_regular == pytest.approx(s.sum(), rel=1e-12)


def test_sum_bounds_regular_collapses():
    g = gen_random_regular(24, 6, seed=2)
    s = np.random.default_rng(2).uniform(0.0, 0.8, g.n)
    b = sum_bounds(g, s, MediaConfig(alpha=0.8, beta=0.4, gamma=0.05))
    assert b.lower == pytest.approx(b.exact_if_regular, rel=1e-12)
    assert b.upper == pytest.approx(b.exact_if_regular, rel=1e-12)


def test_sum_bounds_growth_factor_frozen():
    # 44-regular, beta = 0.025, gamma = 0.01, alpha = 1: factor
    # 1 + gamma*beta*45/(beta*45 + 1), applied to an innate sum of 2019.5
    g = complete_graph(45)
    s = np.full(45, 0.5)
    b = sum_bounds(g, s, MediaConfig(alpha=1.0, beta=0.025, gamma=0.01))
    factor = b.exact_if_regular / s.sum()
    assert factor == pytest.approx(1.005294117647059, rel=1e-13)
    assert factor * 2019.5 == pytest.approx(2030.1914705882355, rel=1e-13)


def test_sum_bounds_bracket_measured_sum():
    rng = np.random.default_rng(23)
    for seed in range(6):
        g = gen_barabasi_albert(70, 2, seed=seed)
        s = rng.uniform(0.0, 0.85, g.n)
        config = MediaConfig(alpha=float(rng.uniform(0, 1)),
                             beta=float(rng.uniform(0.01, 1.0)),
                             gamma=float(rng.uniform(0.0, 0.15)))
        a = assign_media(g, config.alpha, seed=seed)
        src = source_opinions(s, config.gamma)
        zeta = build_zeta(a, src.z_M, src.z_Mprime)
        z = equilibrium_with_media(MediaSystem(g, config.beta), s, zeta,
                                   tol=1e-12).solution
        b = sum_bounds(g, s, config)
        assert b.lower - 1e-8 <= z.sum() <= b.upper + 1e-8, seed


def test_sum_bounds_exact_on_regular_matches_measured():
    # exact fraction: 27 of 45 nodes gives alpha = 0.6 with no rounding
    g = complete_graph(45)
    s = np.random.default_rng(3).uniform(0.1, 0.8, 45)
    config = MediaConfig(alpha=0.6, beta=0.9, gamma=0.08)
    a = assign_media(g, 0.6, seed=4)
    assert a.count_M == 27
    src = source_opinions(s, config.gamma)
    zeta = build_zeta(a, src.z_M, src.z_Mprime)
    z = equilibrium_with_media(MediaSystem(g, config.beta), s, zeta, tol=1e-13).solution
    b = sum_bounds(g, s, config)
    assert z.sum() == pytest.approx(b.exact_if_regular, abs=1e-9)


def test_sum_bounds_rejects_truncated():
    g = path3()
    with pytest.raises(ValueError, match="truncated"):
        sum_bounds(g, np.array([0.99, 0.99, 0.99]),
                   MediaConfig(alpha=1.0, beta=0.5, gamma=0.1))


def test_sum_bounds_refuses_bounds_that_overflow():
    # beta (1 + d_max) = 1.5e308 is admitted, but times a swing of 1.8 the
    # bounds pass the float range
    g = gen_random_regular(4, 2, seed=0)
    config = MediaConfig(alpha=1.0, beta=0.5e308, gamma=0.8)
    MediaSystem(g, config.beta)  # the media weight itself is in range
    with pytest.raises(ValueError, match="^beta 5e[+]307 is too large: the sum bounds overflow$"):
        sum_bounds(g, np.full(4, 0.5), config)


def test_sum_bounds_nonregular_has_no_exact():
    g = Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0)])
    b = sum_bounds(g, np.full(4, 0.4), MediaConfig(0.5, 0.5, 0.05))
    assert b.exact_if_regular is None
    assert b.lower < b.upper


# ---------------------------------------------------------------------------
# truncated regime


def test_truncated_regular_sum_frozen():
    # d = 44, beta = 0.025, alpha = 1, gamma = 0.1, sum_s = 0.9 n
    config = MediaConfig(alpha=1.0, beta=0.025, gamma=0.1)
    n = 1000
    val = truncated_regular_sum(44.0, n, 0.9 * n, config)
    assert val / n == pytest.approx(0.9529411764705883, rel=1e-13)


def test_truncated_regular_sum_beta_zero_is_identity():
    config = MediaConfig(alpha=0.7, beta=0.0, gamma=0.3)
    assert truncated_regular_sum(10.0, 50, 33.0, config) == pytest.approx(33.0)


def test_truncated_regular_sum_monotone_in_alpha():
    lo = truncated_regular_sum(6.0, 40, 30.0, MediaConfig(0.2, 0.5, 0.1))
    hi = truncated_regular_sum(6.0, 40, 30.0, MediaConfig(0.9, 0.5, 0.1))
    assert lo < hi


def test_truncated_regular_sum_matches_measured():
    # capped z_M == 1, fraction exactly 0.6 on a 44-regular graph
    g = complete_graph(45)
    s = np.full(45, 0.95)
    config = MediaConfig(alpha=0.6, beta=0.3, gamma=0.1)
    src = source_opinions(s, config.gamma)
    assert src.truncated and src.z_M == 1.0
    a = assign_media(g, 0.6, seed=8)
    zeta = build_zeta(a, src.z_M, src.z_Mprime)
    z = equilibrium_with_media(MediaSystem(g, config.beta), s, zeta, tol=1e-13).solution
    want = truncated_regular_sum(44.0, 45, float(s.sum()), config)
    assert z.sum() == pytest.approx(want, abs=1e-9)


def test_truncated_regular_sum_validation():
    config = MediaConfig(0.5, 0.5, 0.1)
    with pytest.raises(ValueError):
        truncated_regular_sum(5.0, 0, 1.0, config)
    with pytest.raises(ValueError):
        truncated_regular_sum(-1.0, 10, 1.0, config)
    # beta * (1 + d) is finite, but alpha * beta(1 + d) * n is not
    with pytest.raises(ValueError, match="the capped sum overflows"):
        truncated_regular_sum(4, 50, 49.0, MediaConfig(0.9, 3.5e307, 0.1))


def test_truncated_lower_bound_value_and_checks():
    assert truncated_lower_bound(30.0, 0.5, 0.1) == pytest.approx(
        30.0 * (1.0 - 0.1 + 0.05), rel=1e-14)
    with pytest.raises(ValueError):
        truncated_lower_bound(1.0, 1.5, 0.1)
    with pytest.raises(ValueError):
        truncated_lower_bound(1.0, 0.5, -0.1)


def test_truncated_lower_bound_holds_on_measured_instance():
    g = complete_graph(45)
    s = np.full(45, 0.95)
    config = MediaConfig(alpha=0.6, beta=0.3, gamma=0.1)
    src = source_opinions(s, config.gamma)
    a = assign_media(g, 0.6, seed=8)
    zeta = build_zeta(a, src.z_M, src.z_Mprime)
    z = equilibrium_with_media(MediaSystem(g, config.beta), s, zeta, tol=1e-13).solution
    assert z.sum() > truncated_lower_bound(float(s.sum()), config.alpha,
                                           config.gamma)
