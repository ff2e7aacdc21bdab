"""Friedkin-Johnsen opinion dynamics on a fixed graph.

Each agent i keeps an innate opinion s_i and repeatedly averages it with its
neighbors' expressed opinions:

    z_i <- (s_i + sum_j w_ij z_j) / (1 + sum_j w_ij)

The map is a contraction toward the unique equilibrium z* = (I + L)^{-1} s,
and column sums of (I + L)^{-1} being 1 gives sum(z*) == sum(s) exactly.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, neighbor_sum
from .numerics import DiagPlusLaplacianOperator, solve_spd

__all__ = ["opinion_vector", "fj_step", "fj_equilibrium"]


def opinion_vector(values, n: int | None = None) -> np.ndarray:
    """Validate and return an opinion vector: finite floats in [0, 1]."""
    z = np.asarray(values, dtype=np.float64).ravel()
    if n is not None and z.shape != (n,):
        raise ValueError(f"expected {n} opinions, got {z.shape}")
    if z.size and (np.any(~np.isfinite(z)) or z.min() < 0.0 or z.max() > 1.0):
        raise ValueError("opinions must lie in [0, 1]")
    return z


def fj_step(graph: Graph, s: np.ndarray, z: np.ndarray) -> np.ndarray:
    """One synchronous update of every node's expressed opinion.

    Each output entry is a convex combination of s_i and neighboring z_j, so
    the result stays inside the interval spanned by the inputs.  Isolated
    nodes return to s_i immediately.
    """
    s = opinion_vector(s, graph.n)
    z = opinion_vector(z, graph.n)
    return (s + neighbor_sum(graph, z)) / (1.0 + graph.degree)


def fj_equilibrium(graph: Graph, s: np.ndarray, tol: float = 1e-10,
                   max_iter: int | None = None) -> np.ndarray:
    """Equilibrium opinions z* = (I + L)^{-1} s, by conjugate gradient.

    On a graph with no edges this returns s itself.
    """
    s = opinion_vector(s, graph.n)
    op = DiagPlusLaplacianOperator(graph, np.ones(graph.n))
    return solve_spd(op, s, tol=tol, max_iter=max_iter).solution
