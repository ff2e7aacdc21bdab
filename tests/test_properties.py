"""Property tests: node labels carry no meaning.

Relabelling the nodes of an instance by a permutation must permute every
per-node output the same way and leave every aggregate (opinion sums, sum
bounds, the non-stubborn source's opinion) unchanged.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fjmedia import (Graph, MediaAssignment, MediaConfig, build_zeta,
                     equilibrium_with_media, nonstubborn_equilibrium,
                     source_opinions, sum_bounds)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)
unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def instances(draw):
    """A small weighted graph, innate opinions, an M-mask and a relabelling."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    weights = draw(st.lists(st.floats(0.1, 3.0), min_size=len(pairs),
                            max_size=len(pairs)))
    edges = [(i, j, w) for (i, j), k, w in zip(pairs, keep, weights) if k]
    s = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    perm = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    return Graph.from_edges(n, edges), s, mask, perm


def relabel(graph, perm):
    """The same graph with node i renamed perm[i]."""
    return Graph.from_edges(graph.n, [(perm[u], perm[v], w)
                                      for u, v, w in graph.edges])


def moved(x, perm):
    """Per-node values after the relabelling: the entry of i lands at perm[i]."""
    out = np.empty_like(x)
    out[perm] = x
    return out


@SETTINGS
@given(instances(), st.floats(0.0, 2.0), unit)
def test_equilibrium_with_media_commutes_with_relabelling(inst, beta, gamma):
    g, s, mask, perm = inst
    src = source_opinions(s, gamma)
    zeta = build_zeta(MediaAssignment(mask), src.z_M, src.z_Mprime)
    z = equilibrium_with_media(g, s, beta, zeta, tol=1e-12)

    g2, s2 = relabel(g, perm), moved(s, perm)
    src2 = source_opinions(s2, gamma)
    assert src2.truncated == src.truncated
    assert src2.z_M == pytest.approx(src.z_M, abs=1e-15)
    zeta2 = build_zeta(MediaAssignment(moved(mask, perm)), src2.z_M, src2.z_Mprime)
    z2 = equilibrium_with_media(g2, s2, beta, zeta2, tol=1e-12)

    assert np.max(np.abs(z2 - moved(z, perm))) <= 1e-9
    assert float(z2.sum()) == pytest.approx(float(z.sum()), abs=1e-9)
    if not src.truncated:
        config = MediaConfig(alpha=float(mask.mean()), beta=beta, gamma=gamma)
        b, b2 = sum_bounds(g, s, config), sum_bounds(g2, s2, config)
        assert (b2.lower, b2.upper) == pytest.approx((b.lower, b.upper), rel=1e-12)
        assert (b2.exact_if_regular is None) == (b.exact_if_regular is None)


@SETTINGS
@given(instances(), st.floats(0.0, 2.0), unit)
def test_nonstubborn_equilibrium_commutes_with_relabelling(inst, beta, gamma):
    g, s, _, perm = inst
    config = MediaConfig(alpha=1.0, beta=beta, gamma=gamma)
    z, z_M = nonstubborn_equilibrium(g, s, config, tol=1e-12)
    z2, z2_M = nonstubborn_equilibrium(relabel(g, perm), moved(s, perm), config,
                                       tol=1e-12)

    assert np.max(np.abs(z2 - moved(z, perm))) <= 1e-9
    assert z2_M == pytest.approx(z_M, abs=1e-9)
    assert float(z2.sum()) == pytest.approx(float(z.sum()), abs=1e-9)
