import numpy as np
import pytest

from fjmedia import (ExperimentConfig, Graph, GraphSpec, MediaConfig, fj_equilibrium,
                     gen_barabasi_albert, gen_random_regular, nonstubborn_equilibrium,
                     nonstubborn_sum_bound, run_experiment, source_opinions)
import fjmedia.harness as harness_module
import fjmedia.media as media_module
import fjmedia.nonstubborn as nonstubborn_module
from fjmedia.graph import _ba_edges
from oracles import adjacency, edge_tuples, fj_matrix
from oracles import solve as dense_solve


def single_node_graph():
    z = np.empty(0, dtype=np.int64)
    return Graph(1, z, z, np.empty(0))


def complete_graph(n):
    return Graph.from_edges(
        n, [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)])


def augmented_oracle(g, s, config):
    """Dense FJ solve on the base graph plus a source node n attached to
    every node i with weight beta * (1 + d_i); returns (z, z_M*)."""
    n = g.n
    d = adjacency(g).sum(axis=1)
    s_M = min((1.0 + config.gamma) * float(np.mean(s)), 1.0)
    aug = Graph.from_edges(n + 1, edge_tuples(g) + [
        (i, n, config.beta * (1.0 + d[i])) for i in range(n)
        if config.beta > 0.0])
    want = dense_solve(fj_matrix(aug), np.append(s, s_M))
    return want[:n], want[n]


# ---------------------------------------------------------------------------
# the augmented graph


def test_augmented_weights_follow_degree():
    # path 0-1-2 with beta = 0.5: source node 3 hangs on edges of weight
    # 1.0, 1.5, 1.0
    g = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    s = np.array([0.2, 0.5, 0.8])
    z, z_M, _ = nonstubborn_equilibrium(g, s, 0.5, 0.4, tol=1e-13)
    aug = Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 1.0),
                               (1, 3, 1.5), (2, 3, 1.0)])
    want = dense_solve(fj_matrix(aug), [0.2, 0.5, 0.8, 0.7])
    assert np.max(np.abs(np.append(z, z_M) - want)) <= 1e-10


def test_isolated_node_still_hears_the_source():
    # degree 0: media edge weight beta * (1 + 0) = beta, not dropped, so
    # node and source meet at (2 * 0.2 + 0.3) / 3 and (0.2 + 2 * 0.3) / 3
    z, z_M, _ = nonstubborn_equilibrium(single_node_graph(), np.array([0.2]), 1.0, 0.5,
                                        tol=1e-13)
    assert z[0] == pytest.approx(0.7 / 3.0, abs=1e-10)
    assert z_M == pytest.approx(0.8 / 3.0, abs=1e-10)


def test_beta_zero_detaches_the_source():
    g = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    s = np.array([0.2, 0.5, 0.8])
    z, z_M, s_M = nonstubborn_equilibrium(g, s, 0.0, 0.1)
    # detached source keeps its innate opinion, nodes solve plain FJ
    assert z_M == s_M == source_opinions(s, 0.1).z_M
    assert np.array_equal(z, fj_equilibrium(g, s))
    want = dense_solve(fj_matrix(g), s)
    assert np.max(np.abs(z - want)) <= 1e-9


# ---------------------------------------------------------------------------
# equilibrium


def test_two_node_frozen_value():
    # one node at s = 0.5, gamma = 0.1, beta = 1: source innate 0.55, edge
    # weight 1, so z = (I+L)^{-1} (0.5, 0.55) on a single edge
    z, z_M, s_M = nonstubborn_equilibrium(single_node_graph(), np.array([0.5]), 1.0, 0.1,
                                          tol=1e-13)
    assert s_M == 0.55
    assert z[0] == pytest.approx(0.5166666666666666, abs=1e-10)
    assert z_M == pytest.approx(0.5333333333333333, abs=1e-10)
    assert z[0] + z_M == pytest.approx(1.05, abs=1e-10)


def test_consensus_with_tiny_gamma():
    g = gen_random_regular(20, 4, seed=1)
    s = np.full(20, 0.4)
    z, z_M, _ = nonstubborn_equilibrium(g, s, 0.8, 1e-9)
    assert np.allclose(z, 0.4, atol=1e-8)
    assert z_M == pytest.approx(0.4, abs=1e-8)


def test_sum_conservation_and_bound():
    # augmented FJ conserves: sum(z) + z_M = sum(s) + s_M, and since
    # s_M <= (1+gamma) * mean(s), sum(z) <= (1 + (1+gamma)/n) * sum(s)
    rng = np.random.default_rng(8)
    for seed in range(6):
        g = gen_barabasi_albert(50, 2, seed=seed)
        s = rng.uniform(0.05, 0.9, g.n)
        config = MediaConfig(alpha=1.0, beta=float(rng.uniform(0.1, 1.0)),
                             gamma=float(rng.uniform(0.0, 0.2)))
        z, z_M, s_M = nonstubborn_equilibrium(g, s, config.beta, config.gamma, tol=1e-12)
        assert s_M == min((1.0 + config.gamma) * s.mean(), 1.0)
        assert z.sum() + z_M == pytest.approx(s.sum() + s_M, abs=1e-8)
        assert z.sum() <= (1.0 + (1.0 + config.gamma) / g.n) * s.sum() + 1e-8


def test_influence_cap_on_complete_graph():
    # 45 nodes at 0.5, gamma = 0.01: the persuadable source cannot push the
    # sum past (1 + 1.01/45) * 22.5
    g = complete_graph(45)
    s = np.full(45, 0.5)
    z, z_M, _ = nonstubborn_equilibrium(g, s, 0.025, 0.01, tol=1e-12)
    cap = (1.0 + 1.01 / 45.0) * 22.5
    assert z.sum() <= cap + 1e-10
    assert z.sum() >= 22.5  # source starts above the mean, pull is upward


@pytest.mark.parametrize("beta", [0.025, 0.4, 20.0])
def test_matches_dense_oracle_on_augmented_graph(beta):
    rng = np.random.default_rng(12)
    graphs = [gen_barabasi_albert(30, 2, seed=seed) for seed in range(5)]
    # node 30 has no neighbours, only its media edge of weight beta
    graphs.append(Graph(31, *_ba_edges(30, 2, 0), 1.0))
    for g in graphs:
        s = rng.uniform(0.0, 0.8, g.n)
        config = MediaConfig(1.0, beta, 0.05)
        z, z_M, _ = nonstubborn_equilibrium(g, s, config.beta, config.gamma, tol=1e-12)
        want_z, want_M = augmented_oracle(g, s, config)
        assert np.max(np.abs(np.append(z, z_M) - np.append(want_z, want_M))) <= 1e-8


@pytest.mark.parametrize("beta", [1e16, 1e300])
def test_huge_beta_gives_the_consensus_on_every_node(beta):
    # b = A^-1 w tends to 1, and every node and the source to (sum(s) + s_M) / (n + 1);
    # the old denominator 1 + sum(w) - w^T b lost every digit to cancellation
    g = gen_barabasi_albert(300, 3, seed=0)
    s = np.clip(np.random.default_rng(1).normal(0.5, 0.45, 300), 0.0, 1.0)
    z, z_M, _ = nonstubborn_equilibrium(g, s, beta, 0.1)
    consensus = (s.sum() + source_opinions(s, 0.1).z_M) / 301
    assert np.max(np.abs(z - consensus)) <= 1e-12
    assert abs(z_M - consensus) <= 1e-12


def test_source_innate_caps_at_one():
    g = gen_random_regular(10, 4, seed=3)
    s = np.full(10, 0.999)
    z, z_M, s_M = nonstubborn_equilibrium(g, s, 0.5, 0.5)
    # s_M capped at 1, everything stays in the box
    assert s_M == 1.0
    assert z.max() <= 1.0 + 1e-12
    assert z_M <= 1.0 + 1e-12
    assert z.sum() + z_M == pytest.approx(10 * 0.999 + 1.0, abs=1e-8)


def test_alpha_below_one_rejected():
    # every node hears the persuadable source: the run's config refuses any
    # other alpha, after the range check that names a NaN
    spec = GraphSpec("dreg", n=4, d=2)
    with pytest.raises(ValueError, match=r"^nonstubborn mode needs alpha = 1, got alpha = 0\.9$"):
        ExperimentConfig("nonstubborn", spec, alpha=0.9, beta=0.5, gamma=0.1)
    with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
        ExperimentConfig("nonstubborn", spec, alpha=float("nan"), beta=0.5, gamma=0.1)
    ExperimentConfig("equilibrium", spec, alpha=0.9, beta=0.5, gamma=0.1)


def test_bad_gamma_is_refused_before_any_solve(monkeypatch):
    solves = []
    monkeypatch.setattr(nonstubborn_module, "equilibrium_with_media",
                        lambda *a, **k: solves.append(a))
    with pytest.raises(ValueError, match="gamma"):
        nonstubborn_equilibrium(single_node_graph(), np.array([0.5]), 0.5, 1.5)
    assert solves == []


# ---------------------------------------------------------------------------
# the run's rows


def nonstubborn_config(**kw):
    base = dict(mode="nonstubborn", graph=GraphSpec(kind="ba", n=60, m=2), alpha=1.0,
                beta=0.5, gamma=0.05, repetitions=3, base_seed=4)
    base.update(kw)
    return ExperimentConfig(**base)


def test_each_rep_computes_its_source_opinion_once(monkeypatch):
    calls = []
    real = media_module.source_opinions

    def counting(s, gamma):
        calls.append(gamma)
        return real(s, gamma)

    for module in (harness_module, media_module, nonstubborn_module):
        monkeypatch.setattr(module, "source_opinions", counting, raising=False)
    _, rows = run_experiment(nonstubborn_config())
    assert len(rows) == 3
    assert calls == [0.05] * 3


@pytest.mark.parametrize("gamma", [0.0, 0.05, 1.0])
def test_the_bound_column_is_the_cap(gamma):
    # acceptance 08's formula, bit for bit, in the function and in every row
    _, rows = run_experiment(nonstubborn_config(gamma=gamma))
    for row in rows:
        cap = (1.0 + (1.0 + gamma) / 60) * row["sum_s"]
        assert nonstubborn_sum_bound(row["sum_s"], 60, gamma) == cap == row["bound"]
        assert row["sum_z"] <= cap + 1e-8 * 60


def test_the_cap_refuses_an_empty_graph_and_a_gamma_outside_0_1():
    with pytest.raises(ValueError, match="n must be >= 1"):
        nonstubborn_sum_bound(1.0, 0, 0.1)
    for gamma in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="gamma"):
            nonstubborn_sum_bound(1.0, 3, gamma)
