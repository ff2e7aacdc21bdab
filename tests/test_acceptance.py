"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints an ``ACCEPTANCE nn PASS`` line with the measured numbers
once its assertions clear, so `pytest -v -s` gives a one-line-per-criterion
protocol.  Tolerances are part of the contract and are not to be loosened.
"""

import math

import numpy as np
import pytest

from fjmedia import (MediaConfig, StopCriteria, alpha_half_limit,
                     assign_media, build_zeta, ell_star,
                     equilibrium_with_media, fj_equilibrium,
                     gen_barabasi_albert, gen_random_regular,
                     nonstubborn_equilibrium, run_periods, sample_innate,
                     source_opinions, sum_bounds, truncated_lower_bound,
                     truncated_regular_sum)
from fjmedia.cli import main as cli_main
from oracles import iterate_media


def _random_graph(rng, n_max=500):
    n = int(rng.integers(50, n_max + 1))
    if rng.integers(2):
        return gen_barabasi_albert(n, int(rng.integers(2, 4)),
                                   seed=int(rng.integers(2**31)))
    n -= n % 2  # keep n*d even
    return gen_random_regular(n, int(rng.choice([4, 10])),
                              seed=int(rng.integers(2**31)))


def _exact_fraction_alpha(rng, n):
    # alpha with alpha*n integral, so the realized attachment matches exactly
    return int(rng.integers(0, n + 1)) / n


def test_criterion_01_sum_conservation():
    # plain FJ equilibrium preserves the opinion total: 1^T z* = 1^T s
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        g = _random_graph(rng)
        s = rng.uniform(0.0, 1.0, g.n)
        z = fj_equilibrium(g, s)
        err = abs(float(z.sum()) - float(s.sum()))
        assert err <= 1e-8 * g.n
        worst = max(worst, err / g.n)
    print(f"ACCEPTANCE 01 PASS: sum conservation on 50 graphs, "
          f"worst |dsum|/n = {worst:.2e} (allowed 1e-8)")


def test_criterion_02_direct_vs_iterate():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        g = _random_graph(rng, n_max=300)
        s = rng.uniform(0.0, 0.8, g.n)
        beta = float(rng.uniform(0.0, 1.0))
        gamma = float(rng.uniform(0.0, 0.2))
        a = assign_media(g, float(rng.uniform(0.0, 1.0)),
                         seed=int(rng.integers(2**31)))
        src = source_opinions(s, gamma)
        zeta = build_zeta(a, src.z_M, src.z_Mprime)
        direct = equilibrium_with_media(g, s, beta, zeta, tol=1e-10)
        iterated = iterate_media(g, s, beta, zeta, tol=1e-10)
        diff = float(np.max(np.abs(direct - iterated)))
        assert diff <= 1e-7
        worst = max(worst, diff)
    print(f"ACCEPTANCE 02 PASS: direct vs iterate on 50 instances, "
          f"worst linf = {worst:.2e} (allowed 1e-7)")


def test_criterion_03_bounds_bracket():
    rng = np.random.default_rng(103)
    violations = 0
    margin = np.inf
    for _ in range(200):
        n = int(rng.integers(30, 151))
        g = gen_barabasi_albert(n, 2, seed=int(rng.integers(2**31)))
        s = rng.uniform(0.0, 0.8, n)
        config = MediaConfig(alpha=float(rng.uniform(0.0, 1.0)),
                             beta=float(rng.uniform(0.01, 1.0)),
                             gamma=float(rng.uniform(0.0, 0.15)))
        src = source_opinions(s, config.gamma)
        assert not src.truncated
        a = assign_media(g, config.alpha, seed=int(rng.integers(2**31)))
        zeta = build_zeta(a, src.z_M, src.z_Mprime)
        z = equilibrium_with_media(g, s, config.beta, zeta, tol=1e-10)
        b = sum_bounds(g, s, config)
        total = float(z.sum())
        if not (b.lower - 1e-8 <= total <= b.upper + 1e-8):
            violations += 1
        margin = min(margin, total - b.lower, b.upper - total)
    assert violations == 0
    print(f"ACCEPTANCE 03 PASS: bracket held on 200/200 instances, "
          f"tightest margin {margin:.2e}")


def test_criterion_04_regular_exactness():
    rng = np.random.default_rng(104)
    worst = 0.0
    for i in range(50):
        d = (4, 10, 44)[i % 3]
        lo = max(d + 2, 50)
        n = int(rng.integers(lo, 201 if d == 44 else 501))
        n -= n % 2
        g = gen_random_regular(n, d, seed=int(rng.integers(2**31)))
        s = rng.uniform(0.0, 0.8, n)
        config = MediaConfig(alpha=_exact_fraction_alpha(rng, n),
                             beta=float(rng.uniform(0.01, 1.0)),
                             gamma=float(rng.uniform(0.0, 0.15)))
        a = assign_media(g, config.alpha, seed=int(rng.integers(2**31)))
        assert a.count_M == round(config.alpha * n)
        src = source_opinions(s, config.gamma)
        zeta = build_zeta(a, src.z_M, src.z_Mprime)
        z = equilibrium_with_media(g, s, config.beta, zeta, tol=1e-11)
        exact = sum_bounds(g, s, config).exact_if_regular
        err = abs(float(z.sum()) - exact)
        assert err <= 1e-8 * n, (i, d, n)
        worst = max(worst, err / n)
    print(f"ACCEPTANCE 04 PASS: regular-graph closed form on 50 graphs "
          f"(d in 4/10/44), worst |dsum|/n = {worst:.2e} (allowed 1e-8)")


def test_criterion_05_truncated_regime():
    rng = np.random.default_rng(105)
    worst = 0.0
    for i in range(15):
        d = (4, 10)[i % 2]
        n = int(rng.integers(100, 301))
        n -= n % 2
        g = gen_random_regular(n, d, seed=int(rng.integers(2**31)))
        s = rng.uniform(0.85, 1.0, n)
        config = MediaConfig(alpha=_exact_fraction_alpha(rng, n),
                             beta=float(rng.uniform(0.01, 1.0)), gamma=0.2)
        src = source_opinions(s, config.gamma)
        assert src.truncated and src.z_M == 1.0
        a = assign_media(g, config.alpha, seed=int(rng.integers(2**31)))
        zeta = build_zeta(a, src.z_M, src.z_Mprime)
        z = equilibrium_with_media(g, s, config.beta, zeta, tol=1e-11)
        total = float(z.sum())
        sum_s = float(s.sum())
        want = truncated_regular_sum(d, n, sum_s, config)
        err = abs(total - want)
        assert err <= 1e-8 * n
        assert sum_s < n
        assert total > truncated_lower_bound(sum_s, config.alpha, config.gamma)
        worst = max(worst, err / n)
    print(f"ACCEPTANCE 05 PASS: truncated closed form + floor on 15 regular "
          f"instances, worst |dsum|/n = {worst:.2e} (allowed 1e-8)")


def test_criterion_06_ell_star_prediction():
    config = MediaConfig(alpha=1.0, beta=0.025, gamma=0.01)
    # reference value at exact mean 0.5
    frozen = ell_star(500, 250.0, 20, config)
    assert frozen == pytest.approx(198.79382101055273, rel=1e-12)

    g = gen_random_regular(500, 20, seed=42)
    a = assign_media(g, 1.0, seed=2)
    stop = StopCriteria.for_run(config.gamma, 500, max_periods=1000)

    # exact mean 0.5: truncation lands on ceil of the reference value
    flat = run_periods(g, np.full(500, 0.5), config, a, stop, tol=1e-10)
    assert flat.stop_cause == "radicalized_up"
    assert flat.periods_run in (math.ceil(frozen), math.ceil(frozen) + 1)

    # sampled innate state: compare against the run's own prediction
    s0 = sample_innate(500, 0.5, math.sqrt(0.2), seed=1)
    traj = run_periods(g, s0, config, a, stop, tol=1e-10)
    pred = traj.ell_star_predicted
    assert traj.stop_cause == "radicalized_up"
    assert pred is not None
    assert traj.periods_run in (math.ceil(pred), math.ceil(pred) + 1)
    print(f"ACCEPTANCE 06 PASS: ell* = {frozen:.4f} at mean 0.5 "
          f"(truncated at {flat.periods_run}); sampled run predicted "
          f"{pred:.4f}, truncated at {traj.periods_run}")


def test_criterion_07_alpha_half_conservation_and_limit():
    g = gen_random_regular(200, 8, seed=3)
    s0 = sample_innate(200, 0.5, math.sqrt(0.2), seed=4)
    config = MediaConfig(alpha=0.5, beta=0.5, gamma=0.05)
    a = assign_media(g, 0.5, seed=5)
    assert a.count_M == 100
    stop = StopCriteria(up_threshold=1.0 / 1.05, epsilon=1e-6,
                        max_periods=500, fixed_point_tol=None)
    traj = run_periods(g, s0, config, a, stop, tol=1e-12)
    assert traj.stop_cause == "max_periods"
    assert traj.periods_run == 500
    drift = float(np.max(np.abs(traj.sums - traj.sums[0])))
    assert drift <= 1e-7 * 200

    src = source_opinions(s0, config.gamma)
    limit = alpha_half_limit(g, config.beta,
                             build_zeta(a, src.z_M, src.z_Mprime), tol=1e-12)
    gap = float(np.max(np.abs(traj.final_state - limit)))
    assert gap <= 1e-5
    print(f"ACCEPTANCE 07 PASS: 500 balanced periods, sum drift {drift:.2e} "
          f"(allowed 2e-5), limit-profile gap {gap:.2e} (allowed 1e-5)")


def test_criterion_08_nonstubborn_weakness():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(50):
        g = _random_graph(rng, n_max=300)
        s = rng.uniform(0.05, 0.95, g.n)
        config = MediaConfig(alpha=1.0, beta=float(rng.uniform(0.1, 1.0)),
                             gamma=float(rng.uniform(0.0, 0.2)))
        z, _ = nonstubborn_equilibrium(g, s, config, tol=1e-10)
        bound = (1.0 + (1.0 + config.gamma) / g.n) * float(s.sum())
        slack = float(z.sum()) - bound
        assert slack <= 1e-8 * g.n
        worst = max(worst, slack)

    # head-to-head at n = 20000 on a 44-regular graph, beta=0.025, gamma=0.01
    config = MediaConfig(alpha=1.0, beta=0.025, gamma=0.01)
    g = gen_random_regular(20000, 44, seed=8)
    s = np.full(20000, 0.5)
    stubborn_gain = sum_bounds(g, s, config).exact_if_regular / float(s.sum()) - 1.0
    nonstub_gain = (1.0 + config.gamma) / g.n
    ratio = stubborn_gain / nonstub_gain
    assert ratio >= 100.0
    z, _ = nonstubborn_equilibrium(g, s, config, tol=1e-10)
    assert float(z.sum()) <= (1.0 + nonstub_gain) * float(s.sum()) + 1e-8 * g.n
    print(f"ACCEPTANCE 08 PASS: persuadable-source bound held on 50 graphs "
          f"(worst slack {worst:.2e}); stubborn/non-stubborn gain ratio "
          f"{ratio:.1f}x at n=20000 (needed 100x)")


def test_criterion_09_near_threshold_sensitivity():
    # one node past the balance point radicalizes; exact balance never does
    config = MediaConfig(alpha=0.5, beta=0.5, gamma=0.1)
    outcomes = {}
    for n in (501, 500):
        g = gen_random_regular(n, 20, seed=6)
        a = assign_media(g, 0.5, seed=7)
        stop = StopCriteria.for_run(config.gamma, n, max_periods=50_000)
        traj = run_periods(g, np.full(n, 0.5), config, a, stop, tol=1e-10)
        outcomes[n] = (a.count_M, traj.stop_cause, traj.periods_run)
    assert outcomes[501][0] == 251 and outcomes[500][0] == 250
    assert outcomes[501][1] == "radicalized_up"
    assert outcomes[500][1] == "fixed_point"
    print(f"ACCEPTANCE 09 PASS: n=501 (count_M=251) radicalized in "
          f"{outcomes[501][2]} periods; n=500 (count_M=250) reached a fixed "
          f"point in {outcomes[500][2]}")


def test_criterion_10_determinism(tmp_path):
    args = ["periods", "--gen", "dreg", "--n", "40", "--d", "4",
            "--alpha", "1.0", "--beta", "0.5", "--gamma", "0.05",
            "--reps", "2", "--seed", "3", "--epsilon", "0.01",
            "--max-periods", "30"]
    paths = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli_main(args + ["--out", str(out)]) == 0
        paths.append(out)
    csv_a, csv_b = (p.read_bytes() for p in paths)
    man_a, man_b = (p.with_suffix(".csv.manifest").read_bytes() for p in paths)
    assert csv_a == csv_b
    assert man_a == man_b
    print(f"ACCEPTANCE 10 PASS: repeated CLI runs byte-identical "
          f"({len(csv_a)} CSV bytes, {len(man_a)} manifest bytes)")
