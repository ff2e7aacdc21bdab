import decimal
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import fjmedia.media as media_module
import fjmedia.periods as periods_module
from fjmedia import (DiagPlusLaplacianOperator, Graph, MediaAssignment,
                     MediaConfig, STOP_CAUSES, StopCriteria, alpha_half_limit,
                     analytic_summary, assign_media, build_zeta, ell_star,
                     gen_random_regular, run_periods, source_opinions)


def cycle4():
    return Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0),
                                (3, 0, 1.0)])


def path3():
    return Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])


def half_assignment(n):
    mask = np.zeros(n, dtype=bool)
    mask[: n // 2] = True
    return MediaAssignment(mask)


def all_to_M(n):
    return MediaAssignment(np.ones(n, dtype=bool))


# ---------------------------------------------------------------------------
# stop criteria


def test_default_epsilon_must_sit_below_up_threshold():
    with pytest.raises(ValueError, match=r"10/n = 0\.909091 .* 0\.909091"):
        StopCriteria.for_run(gamma=0.1, n=11)
    assert StopCriteria.for_run(gamma=0.1, n=12).epsilon == 10.0 / 12
    assert StopCriteria.for_run(gamma=0.1, n=11, epsilon=0.05).epsilon == 0.05


def test_stop_criteria_for_run_defaults():
    stop = StopCriteria.for_run(gamma=0.1, n=200)
    assert stop.up_threshold == pytest.approx(1.0 / 1.1, rel=1e-15)
    assert stop.epsilon == pytest.approx(0.05, rel=1e-15)
    assert stop.max_periods == 1000
    assert stop.fixed_point_tol == 1e-10


def test_stop_criteria_validation():
    with pytest.raises(ValueError):
        StopCriteria(up_threshold=0.5, epsilon=0.5, max_periods=10)
    with pytest.raises(ValueError):
        StopCriteria(up_threshold=1.1, epsilon=0.1, max_periods=10)
    with pytest.raises(ValueError):
        StopCriteria(up_threshold=0.9, epsilon=0.1, max_periods=0)
    with pytest.raises(ValueError):
        StopCriteria(up_threshold=0.9, epsilon=0.1, max_periods=10,
                     fixed_point_tol=-1.0)


def test_stop_causes_tuple():
    assert STOP_CAUSES == ("radicalized_up", "radicalized_down",
                           "max_periods", "fixed_point")


# ---------------------------------------------------------------------------
# trajectory bookkeeping


def test_record_zero_is_initial_state():
    s0 = np.array([0.2, 0.4, 0.6])
    stop = StopCriteria(up_threshold=0.99, epsilon=0.001, max_periods=2)
    traj = run_periods(path3(), s0, MediaConfig(1.0, 0.5, 0.05), all_to_M(3),
                       stop)
    first = traj.records[0]
    assert first.period == 0
    assert first.sum_z == pytest.approx(1.2, rel=1e-15)
    assert first.mean_z == pytest.approx(0.4, rel=1e-15)
    assert first.z_M == pytest.approx(1.05 * 0.4, rel=1e-14)
    assert first.z_Mprime == pytest.approx(0.95 * 0.4, rel=1e-14)
    assert not first.truncated


def test_max_periods_stop():
    g = gen_random_regular(20, 4, seed=1)
    s0 = np.full(20, 0.3)
    stop = StopCriteria(up_threshold=0.99, epsilon=1e-4, max_periods=5,
                        fixed_point_tol=None)
    traj = run_periods(g, s0, MediaConfig(1.0, 0.5, 0.1), all_to_M(20), stop)
    assert traj.stop_cause == "max_periods"
    assert traj.periods_run == 5
    assert len(traj.records) == 6


@pytest.mark.parametrize("spill, raises", [(0.9, False), (1.1, True)])
def test_opinion_excursion_beyond_the_solve_tolerance_raises(monkeypatch, spill, raises):
    # a solve within tol leaves z inside tol * ||b||_2 of the exact
    # equilibrium; more than that above 1 is an error, less is clipped
    g = gen_random_regular(20, 4, seed=1)
    s0, config, tol = np.full(20, 0.3), MediaConfig(1.0, 0.5, 0.1), 1e-3
    real = periods_module.equilibrium_with_media

    def spilling(system, s, zeta, tol):
        report = real(system, s, zeta, tol=tol)
        z = report.solution.copy()
        rhs = s + system.beta * (1.0 + system.graph.degree) * zeta
        z[3] = 1.0 + spill * tol * np.linalg.norm(rhs)
        return replace(report, solution=z)

    monkeypatch.setattr(periods_module, "equilibrium_with_media", spilling)
    stop = StopCriteria(up_threshold=0.99, epsilon=1e-4, max_periods=1)
    if raises:
        with pytest.raises(ValueError, match=r"opinions left \[0,1\]"):
            run_periods(g, s0, config, all_to_M(20), stop, tol=tol)
    else:
        traj = run_periods(g, s0, config, all_to_M(20), stop, tol=tol)
        assert traj.final_state.max() == 1.0


def test_a_nan_opinion_is_refused(monkeypatch):
    # NaN compares False with any bound, and np.clip keeps it: a NaN in the
    # last allowed period would otherwise reach the CSV as nan
    with pytest.raises(ValueError, match=r"opinions left \[0,1\].*nan"):
        periods_module._clamp_unit(np.array([0.5, np.nan]), 1e-10)
    g = gen_random_regular(20, 4, seed=1)
    real = periods_module.equilibrium_with_media

    def nan_at_node_3(system, s, zeta, tol):
        report = real(system, s, zeta, tol=tol)
        z = report.solution.copy()
        z[3] = np.nan
        return replace(report, solution=z)

    monkeypatch.setattr(periods_module, "equilibrium_with_media", nan_at_node_3)
    stop = StopCriteria(up_threshold=0.99, epsilon=1e-4, max_periods=1)
    with pytest.raises(ValueError, match=r"opinions left \[0,1\]"):
        run_periods(g, np.full(20, 0.3), MediaConfig(1.0, 0.5, 0.1), all_to_M(20), stop)


@pytest.fixture
def built_operators(monkeypatch):
    """Every DiagPlusLaplacianOperator built while the test runs."""
    built = []
    real = DiagPlusLaplacianOperator.__post_init__

    def counting(op):
        built.append(op)
        real(op)

    monkeypatch.setattr(DiagPlusLaplacianOperator, "__post_init__", counting)
    return built


def test_a_run_builds_one_operator(built_operators):
    g = gen_random_regular(40, 4, seed=3)
    s0 = np.random.default_rng(3).uniform(0.2, 0.6, g.n)
    stop = StopCriteria(up_threshold=0.99, epsilon=1e-4, max_periods=50,
                        fixed_point_tol=None)
    traj = run_periods(g, s0, MediaConfig(0.5, 0.5, 0.1), assign_media(g, 0.5, seed=1),
                       stop)
    assert (traj.stop_cause, traj.periods_run) == ("max_periods", 50)
    assert len(built_operators) == 1


def test_assignment_size_checked():
    with pytest.raises(ValueError, match="assignment size does not match graph"):
        run_periods(path3(), np.full(3, 0.5), MediaConfig(1.0, 0.5, 0.1),
                    all_to_M(4), StopCriteria(0.9, 0.01, 10))
    with pytest.raises(ValueError, match="assignment size does not match graph"):
        analytic_summary(path3(), np.full(3, 0.5), MediaConfig(1.0, 0.5, 0.1), all_to_M(4))


def test_a_run_computes_no_closed_form(monkeypatch):
    # the closed forms belong to the rows that print them, not to the protocol
    def refuse(*args, **kwargs):
        raise AssertionError("run_periods computed a closed form")

    for module, name in ((periods_module, "analytic_summary"), (periods_module, "ell_star"),
                         (periods_module, "sum_bounds"),
                         (periods_module, "truncated_regular_sum"),
                         (media_module, "sum_bounds")):
        monkeypatch.setattr(module, name, refuse)
    stop = StopCriteria.for_run(0.1, 30, max_periods=100, epsilon=0.01)
    traj = run_periods(gen_random_regular(30, 4, seed=2), np.full(30, 0.3),
                       MediaConfig(1.0, 0.5, 0.1), all_to_M(30), stop)
    assert traj.stop_cause == "radicalized_up"


@pytest.mark.parametrize("max_periods, cause", [(100, "radicalized_up"), (5, "max_periods")])
def test_each_period_computes_its_source_opinions_once(monkeypatch, max_periods, cause):
    # record 0's pair is the one period 1 consumes, so a run of T periods
    # needs T pairs
    calls = []
    real = media_module.source_opinions

    def counting(s, gamma):
        calls.append(gamma)
        return real(s, gamma)

    for module in (periods_module, media_module):
        monkeypatch.setattr(module, "source_opinions", counting)
    stop = StopCriteria.for_run(0.1, 30, max_periods=max_periods, epsilon=0.01)
    traj = run_periods(gen_random_regular(30, 4, seed=2), np.full(30, 0.3),
                       MediaConfig(1.0, 0.5, 0.1), all_to_M(30), stop)
    assert traj.stop_cause == cause
    assert len(calls) == traj.periods_run


# ---------------------------------------------------------------------------
# radicalization up: geometric growth and the crossing period


def test_radicalizes_up_at_predicted_period():
    # 4-regular, alpha = 1, beta = 0.5, gamma = 0.1:
    # growth F = 1 + 0.1 * 2.5 / 3.5, ell* = log(1/0.33)/log(F) = 16.07
    g = gen_random_regular(30, 4, seed=2)
    config = MediaConfig(alpha=1.0, beta=0.5, gamma=0.1)
    s0 = np.full(30, 0.3)
    # default epsilon = 10/n only suits large n; pin it below the start mean
    stop = StopCriteria.for_run(config.gamma, 30, max_periods=100,
                                epsilon=0.01)
    traj = run_periods(g, s0, config, all_to_M(30), stop, tol=1e-12)
    want_ell = ell_star(30, 9.0, 4, config)
    assert traj.stop_cause == "radicalized_up"
    assert traj.periods_run == math.ceil(want_ell)
    assert analytic_summary(g, s0, config, all_to_M(30))["ell_star"] == pytest.approx(
        want_ell, rel=1e-12)
    assert traj.records[-1].mean_z >= stop.up_threshold


def test_per_period_growth_matches_closed_form():
    g = gen_random_regular(30, 4, seed=2)
    config = MediaConfig(alpha=1.0, beta=0.5, gamma=0.1)
    stop = StopCriteria.for_run(config.gamma, 30, max_periods=100,
                                epsilon=0.01)
    traj = run_periods(g, np.full(30, 0.3), config, all_to_M(30), stop,
                       tol=1e-12)
    b = config.beta * 5.0
    growth = 1.0 + config.gamma * b / (b + 1.0)
    sums = traj.sums
    for t in range(len(sums) - 1):
        assert sums[t + 1] / sums[t] == pytest.approx(growth, rel=1e-9), t


def test_radicalizes_down_with_alpha_zero():
    g = gen_random_regular(20, 4, seed=3)
    config = MediaConfig(alpha=0.0, beta=1.0, gamma=0.3)
    mask = np.zeros(20, dtype=bool)
    a = MediaAssignment(mask)
    stop = StopCriteria.for_run(config.gamma, 20, max_periods=100)
    traj = run_periods(g, np.full(20, 0.6), config, a, stop)
    assert traj.stop_cause == "radicalized_down"
    assert traj.records[-1].mean_z <= stop.epsilon
    # alpha = 0 shrinks the sum by 1 - gamma*B/(B+1) per period
    factor = 1.0 - 0.3 * 5.0 / 6.0
    assert traj.sums[1] / traj.sums[0] == pytest.approx(factor, rel=1e-9)


def test_zero_innate_state_dies_immediately():
    g = gen_random_regular(20, 4, seed=4)
    stop = StopCriteria.for_run(0.1, 20)
    traj = run_periods(g, np.zeros(20), MediaConfig(1.0, 0.5, 0.1),
                       all_to_M(20), stop)
    assert traj.stop_cause == "radicalized_down"
    assert traj.periods_run == 1
    assert traj.records[-1].sum_z == 0.0


# ---------------------------------------------------------------------------
# balanced protocol: conservation and the limit profile


def test_alpha_half_conserves_sum_and_reaches_fixed_point():
    g = gen_random_regular(16, 4, seed=5)
    s0 = np.random.default_rng(5).uniform(0.2, 0.8, 16)
    config = MediaConfig(alpha=0.5, beta=0.6, gamma=0.05)
    stop = replace(StopCriteria.for_run(config.gamma, 16, max_periods=5000, epsilon=0.01),
                   fixed_point_tol=1e-12)
    traj = run_periods(g, s0, config, half_assignment(16), stop, tol=1e-12)
    assert traj.stop_cause == "fixed_point"
    assert np.max(np.abs(traj.sums - traj.sums[0])) <= 1e-8 * traj.sums[0]
    assert analytic_summary(g, s0, config, half_assignment(16))["ell_star"] is None


def test_alpha_half_run_converges_to_limit_profile():
    g = gen_random_regular(16, 4, seed=5)
    s0 = np.random.default_rng(5).uniform(0.2, 0.8, 16)
    config = MediaConfig(alpha=0.5, beta=0.6, gamma=0.05)
    a = half_assignment(16)
    stop = replace(StopCriteria.for_run(config.gamma, 16, max_periods=5000, epsilon=0.01),
                   fixed_point_tol=1e-13)
    traj = run_periods(g, s0, config, a, stop, tol=1e-13)
    # sources stay pinned to the conserved mean, so the limit only sees the
    # period-0 source profile
    src = source_opinions(s0, config.gamma)
    zeta0 = build_zeta(a, src.z_M, src.z_Mprime)
    limit = alpha_half_limit(g, config.beta, zeta0, tol=1e-13)
    assert traj.final_state is not None
    assert np.max(np.abs(traj.final_state - limit)) <= 1e-5


# ---------------------------------------------------------------------------
# ell_star closed form


def test_ell_star_frozen_values():
    config = MediaConfig(alpha=1.0, beta=0.025, gamma=0.01)
    assert ell_star(4039, 2019.5, 44, config) == pytest.approx(
        129.38959164316503, rel=1e-12)
    assert ell_star(500, 250.0, 20, config) == pytest.approx(
        198.79382101055273, rel=1e-12)


def test_ell_star_boundary_is_zero():
    # sum_s0 = n/(1+gamma) exactly: the very first sources already sit at 1
    config = MediaConfig(alpha=1.0, beta=0.5, gamma=0.25)
    assert ell_star(100, 80.0, 4, config) == 0.0


def test_ell_star_on_the_ceiling_that_source_opinions_leaves_uncapped_is_zero():
    # (1 + gamma) (sum / n) is 1, so z_M is uncapped, but (1 + gamma) sum / n
    # rounds above 1 and log(n / (sum (1 + gamma))) to -1.1e-16
    config = MediaConfig(alpha=1.0, beta=0.025, gamma=0.05)
    s = np.full(500, 0.9523809523809523)
    assert not source_opinions(s, config.gamma).truncated
    assert ell_star(500, 476.1904761904762, 20, config) == 0.0
    g = gen_random_regular(500, 20, seed=0)
    assert analytic_summary(g, s, config, all_to_M(500))["ell_star"] == 0.0


def decimal_ell_star(n, sum_s0, d, config):
    """ell* in 60-digit decimal arithmetic from the exact values of its inputs."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        alpha, beta, gamma = (decimal.Decimal(v) for v in
                              (config.alpha, config.beta, config.gamma))
        b = (decimal.Decimal(d) + 1) * beta
        growth = 1 + gamma * b * (2 * alpha - 1) / (b + 1)
        return (decimal.Decimal(n) / (decimal.Decimal(sum_s0) * (1 + gamma))).ln() / growth.ln()


# (beta, gamma); log(F) with F = 1 + rise rounded loses the rise's digits as it
# shrinks: relative error 4.4e-14, 1.6e-9, 5.1e-6 and 8.0e-4 on the first
# four, and F rounds to 1 on the last, where ell* is 1.386294361613037698e19
@pytest.mark.parametrize("beta, gamma", [(0.025, 0.01), (1e-4, 1e-4), (1e-6, 1e-6),
                                         (1e-7, 1e-7), (1e-10, 1e-10)])
def test_ell_star_matches_a_decimal_reference(beta, gamma):
    config = MediaConfig(alpha=1.0, beta=beta, gamma=gamma)
    want = decimal_ell_star(100, 50.0, 4, config)
    assert ell_star(100, 50.0, 4, config) == pytest.approx(float(want), rel=1e-15)


def test_ell_star_rejections():
    with pytest.raises(ValueError):
        ell_star(100, 50.0, 4, MediaConfig(alpha=0.5, beta=0.5, gamma=0.1))
    with pytest.raises(ValueError):
        ell_star(100, 50.0, 4, MediaConfig(alpha=1.0, beta=0.0, gamma=0.1))
    with pytest.raises(ValueError):
        ell_star(100, 50.0, 4, MediaConfig(alpha=1.0, beta=0.5, gamma=0.0))
    with pytest.raises(ValueError, match="growth factor above 1"):
        # F - 1 = 5e-400 underflows to 0: no finite crossing, not a division by 0
        ell_star(100, 50.0, 4, MediaConfig(alpha=1.0, beta=1e-200, gamma=1e-200))
    with pytest.raises(ValueError, match="ell_star overflows"):
        # F - 1 = 5e-320 is subnormal, and ell* = log(2) / 5e-320 is past the float range
        ell_star(100, 50.0, 4, MediaConfig(alpha=1.0, beta=1e-160, gamma=1e-160))
    with pytest.raises(ValueError):
        ell_star(100, 0.0, 4, MediaConfig(alpha=1.0, beta=0.5, gamma=0.1))
    with pytest.raises(ValueError):
        # (1+gamma) * 90 / 100 > 1: already truncated
        ell_star(100, 90.0, 4, MediaConfig(alpha=1.0, beta=0.5, gamma=0.2))


def test_ell_star_prediction_absent_off_regular():
    s0 = np.array([0.2, 0.4, 0.6])
    summary = analytic_summary(path3(), s0, MediaConfig(1.0, 0.5, 0.05), all_to_M(3))
    assert summary["ell_star"] is None


# ---------------------------------------------------------------------------
# alpha = 1/2 limit profile


def test_alpha_half_limit_consensus():
    g = gen_random_regular(12, 4, seed=6)
    limit = alpha_half_limit(g, 0.7, np.full(12, 0.45))
    assert np.allclose(limit, 0.45, atol=1e-10)


def test_alpha_half_limit_cycle_frozen():
    limit = alpha_half_limit(cycle4(), 1.0, np.array([1.0, 1.0, 0.0, 0.0]),
                             tol=1e-13)
    assert np.allclose(limit, [0.8, 0.8, 0.2, 0.2], atol=1e-10)


def test_alpha_half_limit_builds_one_operator(built_operators):
    # the system's diag(w) + L, and not the unused (1 + w) one beside it
    g = gen_random_regular(40, 4, seed=3)
    zeta0 = np.random.default_rng(3).uniform(0.2, 0.6, g.n)
    alpha_half_limit(g, 0.5, zeta0)
    (op,) = built_operators
    assert np.array_equal(op.gamma_diag, 0.5 * (1.0 + g.degree))


def test_alpha_half_limit_rejections():
    with pytest.raises(ValueError):
        alpha_half_limit(path3(), 0.5, np.full(3, 0.5))
    with pytest.raises(ValueError):
        alpha_half_limit(cycle4(), 0.0, np.full(4, 0.5))
    with pytest.raises(ValueError):
        alpha_half_limit(cycle4(), 0.5, np.full(3, 0.5))


def test_alpha_half_limit_names_a_beta_whose_media_weight_overflows():
    g = gen_random_regular(20, 4, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning before the check
        with pytest.raises(ValueError, match=r"beta 1e\+308 is too large: "
                                             r"beta \* \(1 \+ d_max\) overflows"):
            alpha_half_limit(g, 1e308, np.full(20, 0.5))


# ---------------------------------------------------------------------------
# truncated regime inside a run


def test_truncated_period_keeps_mean_above_floor():
    # start above the ceiling: sources cap at 1 but the pull of M' cannot
    # push the mean below s_bar * (1 - gamma + alpha*gamma)
    g = gen_random_regular(20, 4, seed=7)
    s0 = np.full(20, 0.95)
    config = MediaConfig(alpha=0.6, beta=0.5, gamma=0.1)
    a = MediaAssignment(np.arange(20) < 12)
    stop = StopCriteria(up_threshold=1.0, epsilon=0.01, max_periods=3,
                        fixed_point_tol=None)
    traj = run_periods(g, s0, config, a, stop, tol=1e-12)
    assert traj.records[1].truncated
    floor = 0.95 * (1.0 - config.gamma + config.alpha * config.gamma)
    for rec in traj.records[1:]:
        assert rec.mean_z >= floor - 1e-10
